"""Tests for the shared-secret phase shift generator."""

import numpy as np
import pytest

from spofdm.keystream import (KeystreamConfigError, PhaseSequence, SecretKey,
                              aes_encrypt_block, map_psk, phase_plans)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")
KEY2 = SecretKey.from_hex("ffeeddccbbaa99887766554433221100")


def stream_bits(key, n_bits, epoch=0, block=0):
    """The first n_bits keystream bits of one block address: the angles of a
    BPSK phase_plans row are pi times its bits."""
    row = phase_plans(key, epoch, block, 1, n_bits - 1, 2)[0]
    return np.round(row / np.pi).astype(np.uint8)


class TestSecretKey:
    def test_accepts_16_and_32_bytes(self):
        SecretKey(b"\x00" * 16)
        SecretKey(b"\x00" * 32)

    def test_rejects_other_lengths(self):
        for n in (0, 8, 15, 17, 24, 33):
            with pytest.raises(KeystreamConfigError):
                SecretKey(b"\x00" * n)

    def test_rejects_bad_hex(self):
        with pytest.raises(KeystreamConfigError):
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
        assert set(np.unique(row)) <= {0.0, np.pi}

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

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            phase_plans(KEY, 0, 0, 0, 128, 16)

    def test_aes_known_answer(self):
        # FIPS-197 appendix C.1 vector
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = aes_encrypt_block(KEY, pt)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_bit_balance(self):
        n = 100_000
        bits = stream_bits(KEY, n)
        ones = int(bits.sum())
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 3 * sigma


class TestMapPsk:
    def test_zero_word_maps_to_zero_angle(self):
        assert map_psk(np.array([0, 0, 0, 0]), 16)[0] == 0.0

    def test_half_circle(self):
        assert map_psk(np.array([1, 0, 0, 0]), 16)[0] == pytest.approx(np.pi)

    def test_big_endian_grouping(self):
        # value 0b0101 = 5 -> angle 2*pi*5/16
        angle = map_psk(np.array([0, 1, 0, 1]), 16)[0]
        assert angle == pytest.approx(2 * np.pi * 5 / 16)

    def test_binary_alphabet(self):
        angles = map_psk(stream_bits(KEY, 1000), 2)
        assert set(np.unique(angles)) <= {0.0, np.pi}

    def test_rejects_non_power_of_two(self):
        with pytest.raises(KeystreamConfigError):
            map_psk(np.array([0, 1]), 12)

    def test_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            map_psk(np.array([0, 1, 1]), 16)

    def test_uniformity_chi_square(self):
        n_sym = 1_000_000
        angles = phase_plans(KEY, 0, 0, 1, n_sym - 1, 16)[0]
        values = np.round(angles * 16 / (2 * np.pi)).astype(int)
        counts = np.bincount(values, minlength=16)
        freqs = counts / n_sym
        assert np.all(np.abs(freqs - 1 / 16) < 0.002)


def phase_plan(key, epoch, k, n_carriers, psk_order):
    """Row of block k: CP phase angle, then the subcarrier phases."""
    return phase_plans(key, epoch, k, 1, n_carriers, psk_order)[0]


class TestPhasePlan:
    def test_shared_secret_determinism(self):
        a = phase_plan(KEY, 0, 5, 128, 16)
        b = phase_plan(KEY, 0, 5, 128, 16)
        assert np.exp(1j * a[0]) == np.exp(1j * b[0])
        assert np.array_equal(a[1:], b[1:])

    def test_shapes_and_alphabet(self):
        plan = phase_plan(KEY, 0, 0, 128, 16)
        assert plan[1:].size == 128
        assert abs(abs(np.exp(1j * plan[0])) - 1.0) < 1e-12
        steps = plan[1:] * 16 / (2 * np.pi)
        assert np.allclose(steps, np.round(steps))

    def test_random_access_matches_sequential(self):
        direct = phase_plan(KEY, 0, 40, 128, 16)
        seq = PhaseSequence(KEY, 0, 128, 16)
        for k in range(41):
            sequential = seq.plan(k, k)[0]
        assert np.exp(1j * sequential[0]) == np.exp(1j * direct[0])
        assert np.array_equal(sequential[1:], direct[1:])

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
        u = np.exp(1j * seq.plan(0, n_blocks)[:, 1:])
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
        arr = seq.plan(3, 7)
        assert arr.shape == (5, 129)
        assert np.array_equal(arr[0], seq.plan(3, 3)[0])
        assert np.array_equal(arr[-1], seq.plan(7, 7)[0])

    def test_plan_rows_are_read_only(self):
        seq = PhaseSequence(KEY, 0, 128, 16)
        with pytest.raises(ValueError):
            seq.plan(0, 2)[0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.plan(3, 2)

    def test_cp_phase_stream_uniform_and_uncorrelated(self):
        n = 100_000
        u = np.exp(1j * phase_plans(KEY, 0, 0, 1, n - 1, 16)[0])
        for lag in range(1, 9):
            rho = np.mean(u[:-lag] * np.conj(u[lag:]))
            assert abs(rho) < 0.05
        values = np.round(np.angle(u) * 16 / (2 * np.pi)).astype(int) % 16
        counts = np.bincount(values, minlength=16)
        sigma = np.sqrt(n * (1 / 16) * (15 / 16))
        assert np.all(np.abs(counts - n / 16) < 3 * sigma)
