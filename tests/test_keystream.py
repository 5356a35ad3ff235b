"""Tests for the shared-secret phase shift generator."""

import numpy as np
import pytest

from spofdm import keystream
from spofdm.keystream import PhaseSequence, SecretKey, phase_plans
from support import AESAVS, KEY, aesavs_row_matches, plan_phasors, psk_exp

KEY2 = SecretKey.from_hex("ffeeddccbbaa99887766554433221100")


def stream_bits(key, n_bits, epoch=0, block=0):
    """The first n_bits keystream bits of one block address: a BPSK
    phase_plans row is its bits."""
    return phase_plans(key, epoch, block, 1, n_bits - 1, 2)[0].astype(np.uint8)


def index_groups(m, n_sym):
    """The first n_sym PSK indices of block 0 and their keystream bit groups."""
    log2m = m.bit_length() - 1
    values = phase_plans(KEY, 0, 0, 1, n_sym - 1, m)[0]
    return values, stream_bits(KEY, n_sym * log2m).reshape(n_sym, log2m)


class TestSecretKey:
    def test_accepts_16_and_32_bytes(self):
        SecretKey(b"\x00" * 16)
        SecretKey(b"\x00" * 32)

    def test_rejects_other_lengths(self):
        for n in (0, 8, 15, 17, 24, 33):
            with pytest.raises(ValueError, match="key must be 16 or 32 bytes"):
                SecretKey(b"\x00" * n)

    def test_rejects_bad_hex(self):
        with pytest.raises(ValueError, match="invalid hex key"):
            SecretKey.from_hex("zz" * 16)

    def test_equality(self):
        assert SecretKey(b"\x01" * 16) == SecretKey(b"\x01" * 16)
        assert SecretKey(b"\x01" * 16) != SecretKey(b"\x02" * 16)


class TestDeriveBits:
    """Statistics of the keystream bits behind the phase_plans rows."""

    def test_deterministic(self):
        a = stream_bits(KEY, 128, epoch=3, block=7)
        b = stream_bits(KEY, 128, epoch=3, block=7)
        assert np.array_equal(a, b)

    def test_output_is_binary(self):
        row = phase_plans(KEY, 0, 0, 1, 999, 2)[0]
        assert row.size == 1000
        assert np.issubdtype(row.dtype, np.integer)
        assert set(np.unique(row)) <= {0, 1}

    def test_distinct_keys_disagree_about_half_the_time(self):
        n = 10_000
        a = stream_bits(KEY, n)
        b = stream_bits(KEY2, n)
        agree = int(np.sum(a == b))
        sigma = np.sqrt(n * 0.25)
        assert abs(agree - n / 2) < 3 * sigma

    def test_distinct_addresses_give_distinct_streams(self):
        a = stream_bits(KEY, 128, epoch=0, block=0)
        b = stream_bits(KEY, 128, epoch=0, block=1)
        c = stream_bits(KEY, 128, epoch=1, block=0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prefix_consistency(self):
        long = stream_bits(KEY, 512)
        short = stream_bits(KEY, 200)
        assert np.array_equal(long[:200], short)

    def test_aes_known_answer(self):
        for name, key, epoch, ciphertext in AESAVS:
            assert aesavs_row_matches(key, epoch, ciphertext), name

    def test_bit_balance(self):
        n = 100_000
        bits = stream_bits(KEY, n)
        ones = int(bits.sum())
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 3 * sigma


class TestMapPsk:
    """phase_plans maps each group of log2(M) keystream bits to a PSK index."""

    def test_zero_word_maps_to_zero_angle(self):
        values, groups = index_groups(16, 2000)
        zero = ~groups.any(axis=1)
        assert zero.any() and np.all(values[zero] == 0)

    def test_half_circle(self):
        values, groups = index_groups(16, 2000)
        half = np.all(groups == [1, 0, 0, 0], axis=1)
        assert half.any() and np.all(values[half] == 8)

    def test_big_endian_grouping(self):
        # bits 0101 are the index 5, read most significant bit first
        values, groups = index_groups(16, 2000)
        five = np.all(groups == [0, 1, 0, 1], axis=1)
        assert five.any() and np.all(values[five] == 5)
        assert np.array_equal(values, groups @ [8, 4, 2, 1])

    def test_binary_alphabet(self):
        values, groups = index_groups(2, 1000)
        assert set(np.unique(values)) <= {0, 1}
        assert np.array_equal(values, groups[:, 0])

    def test_one_point_alphabet(self, monkeypatch):
        # M = 1 = 2**0 (classical OFDM) takes no keystream bits: every index
        # is 0 and every phasor exactly 1+0j, with no cipher built
        def no_cipher(*args):
            raise AssertionError("an M = 1 plan built a cipher")
        monkeypatch.setattr(keystream, "Cipher", no_cipher)
        plans = phase_plans(KEY, 0, 5, 3, 128, 1)
        assert plans.dtype == np.int64 and plans.shape == (3, 129)
        assert not plans.any()
        rows = PhaseSequence(KEY, 0, 128, 1).phasors(5, 7)
        assert rows.tobytes() == np.full((3, 129), 1 + 0j).tobytes()

    def test_uniformity_chi_square(self):
        n_sym = 1_000_000
        values = phase_plans(KEY, 0, 0, 1, n_sym - 1, 16)[0]
        counts = np.bincount(values, minlength=16)
        freqs = counts / n_sym
        assert np.all(np.abs(freqs - 1 / 16) < 0.002)


def phase_plan(key, epoch, k, n_carriers, psk_order):
    """Row of block k: CP phase index, then the subcarrier ones."""
    return phase_plans(key, epoch, k, 1, n_carriers, psk_order)[0]


class TestPhasePlan:
    def test_shared_secret_determinism(self):
        a = phase_plan(KEY, 0, 5, 128, 16)
        b = phase_plan(KEY, 0, 5, 128, 16)
        assert np.array_equal(a, b)

    def test_shapes_and_alphabet(self):
        plan = phase_plan(KEY, 0, 0, 128, 16)
        assert plan.shape == (129,)
        assert np.issubdtype(plan.dtype, np.integer)
        assert plan.min() >= 0 and plan.max() < 16

    def test_random_access_matches_sequential(self):
        direct = phase_plan(KEY, 0, 40, 128, 16)
        seq = PhaseSequence(KEY, 0, 128, 16)
        for k in range(41):
            sequential = seq.phasors(k, k)[0]
        assert sequential.tobytes() == psk_exp(direct, 16).tobytes()

    def test_rejects_negative_block(self):
        with pytest.raises(ValueError):
            phase_plan(KEY, 0, -1, 128, 16)

    def test_rejects_negative_components(self):
        # a negative block index is test_rejects_negative_block
        with pytest.raises(ValueError, match="out of range"):
            phase_plan(KEY, -1, 0, 128, 16)

    def test_adjacent_blocks_uncorrelated(self):
        n_blocks = 1000
        seq = PhaseSequence(KEY, 0, 128, 16)
        u = seq.phasors(0, n_blocks)[:, 1:]
        rho = np.mean(u[:-1] * np.conj(u[1:]))
        assert abs(rho) < 0.05

    def test_rejects_out_of_range_address(self):
        with pytest.raises(ValueError, match="out of range"):
            phase_plans(KEY, 1 << 32, 0, 1, 128, 16)
        with pytest.raises(ValueError, match="out of range"):
            phase_plans(KEY, 0, (1 << 64) - 1, 2, 128, 16)
        assert phase_plans(KEY, 0, (1 << 64) - 1, 1, 128, 16).shape == (1, 129)


class TestPhaseSequence:
    def test_plan_slice(self):
        seq = PhaseSequence(KEY, 0, 128, 16)
        arr = seq.phasors(3, 7)
        assert arr.shape == (5, 129)
        assert np.array_equal(arr[0], seq.phasors(3, 3)[0])
        assert np.array_equal(arr[-1], seq.phasors(7, 7)[0])
        # the window holds blocks 3..7; a touching request extends it
        assert seq.plan(4, 5) == slice(1, 3)
        assert seq.plan(2, 2) == slice(0, 1)
        assert seq.plan(4, 5) == slice(2, 4)

    def test_plan_rows_are_read_only(self):
        seq = PhaseSequence(KEY, 0, 128, 16)
        with pytest.raises(ValueError):
            seq.phasors(0, 2)[0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.phasors(3, 2)
        with pytest.raises(ValueError):
            seq.plan(-1, 0)

    @pytest.mark.parametrize("requests", [
        [(10 ** 6, 10 ** 6)],
        [(10 ** 6, 10 ** 6 + 2), (10 ** 6 - 3, 10 ** 6), (10 ** 6 + 1, 10 ** 6 + 5)],
        [(0, 4), (10 ** 6 - 1, 10 ** 6 + 1), (10 ** 6 + 2, 10 ** 6 + 2)],
    ])
    def test_far_blocks_derive_only_their_rows(self, monkeypatch, requests):
        derived = []

        def counting(key, epoch, k_first, count, n_carriers, psk_order):
            derived.extend(range(k_first, k_first + count))
            return phase_plans(key, epoch, k_first, count, n_carriers, psk_order)

        monkeypatch.setattr(keystream, "phase_plans", counting)
        seq = PhaseSequence(KEY, 0, 128, 16)
        wanted = []
        for a, b in requests:
            got = seq.phasors(a, b)
            assert got.tobytes() == plan_phasors(a, b - a + 1).tobytes()
            wanted.extend(range(a, b + 1))
        # each requested block derived once, and no other block
        assert sorted(derived) == sorted(set(wanted))

    def test_cp_phase_stream_uniform_and_uncorrelated(self):
        n = 100_000
        values = phase_plans(KEY, 0, 0, 1, n - 1, 16)[0]
        u = psk_exp(values, 16)
        for lag in range(1, 9):
            rho = np.mean(u[:-lag] * np.conj(u[lag:]))
            assert abs(rho) < 0.05
        counts = np.bincount(values, minlength=16)
        sigma = np.sqrt(n * (1 / 16) * (15 / 16))
        assert np.all(np.abs(counts - n / 16) < 3 * sigma)
