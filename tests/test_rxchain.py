"""Tests for the receiver chain: demodulation, decoding, LLRs, LDPC BP.

Demodulation is ``sync.demod_fft``, the N_c-point FFT of a block body, and
decoding is ``txchain.decode_phases``.
"""

import re

import numpy as np
import pytest
from scipy import stats

from spofdm.keystream import SecretKey
from spofdm.rxchain import (LdpcEncoder, ParityCheckCode, builtin_code,
                            ldpc_bp_decode, llr_qpsk,
                            make_regular_parity_check, qpsk_map)
from spofdm.sync import demod_fft
from spofdm.txchain import (build_waveform, decode_phases, modulate_block,
                            random_symbol_blocks)
from support import CONFIG, plan_phasors, sha256


def secure_waveform(blocks):
    return build_waveform(blocks, plan_phasors(0, len(blocks)), CONFIG)


def block_fft(r, k, start_offset=0):
    """Drop the CP of block k and take the N_c-point FFT of its body."""
    start = start_offset + k * CONFIG.block_samples + CONFIG.cp_samples
    return demod_fft(r, start, CONFIG)


class TestCropAndFft:
    """Crop-and-FFT demodulation: demod_fft of one block body."""

    def test_plain_loopback(self):
        rng = np.random.default_rng(0)
        blocks = random_symbol_blocks(rng, 3, CONFIG)
        wave = modulate_block(blocks, 1.0, CONFIG)
        for k, block in enumerate(blocks):
            out = block_fft(wave, k)
            assert np.max(np.abs(out - block)) < 1e-9

    def test_precoded_loopback_carries_secret_rotation(self):
        rng = np.random.default_rng(1)
        blocks = random_symbol_blocks(rng, 2, CONFIG)
        wave = secure_waveform(blocks)
        for k, block in enumerate(blocks):
            phasors = plan_phasors(k, 1)[0, 1:]
            out = block_fft(wave, k)
            expect = block * np.conj(phasors)
            assert np.max(np.abs(out - expect)) < 1e-9

    def test_start_offset(self):
        rng = np.random.default_rng(2)
        blocks = random_symbol_blocks(rng, 2, CONFIG)
        wave = modulate_block(blocks, 1.0, CONFIG)
        padded = type(wave)(np.concatenate([np.zeros(10), wave.samples]),
                            wave.sample_interval)
        out = block_fft(padded, 1, start_offset=10)
        assert np.max(np.abs(out - blocks[1])) < 1e-9

    def test_out_of_range(self):
        rng = np.random.default_rng(3)
        wave = modulate_block(random_symbol_blocks(rng, 1, CONFIG), 1.0,
                              CONFIG)
        with pytest.raises(ValueError):
            block_fft(wave, 1)


class TestSecureDecode:
    """Secure decoding: decode_phases undoes the secret rotation."""

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        blocks = random_symbol_blocks(rng, 2, CONFIG)
        wave = secure_waveform(blocks)
        for k, block in enumerate(blocks):
            phasors = plan_phasors(k, 1)[0, 1:]
            decoded = decode_phases(block_fft(wave, k), phasors)
            assert np.max(np.abs(decoded - block)) < 1e-9

    def test_wrong_key_scrambles_most_symbols(self):
        rng = np.random.default_rng(5)
        wrong = SecretKey.from_hex("ffeeddccbbaa99887766554433221100")
        n_blocks = 200
        blocks = random_symbol_blocks(rng, n_blocks, CONFIG)
        wave = secure_waveform(blocks)
        errors = 0
        total = 0
        qpsk = qpsk_map(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]).ravel())
        for k, block in enumerate(blocks):
            phasors = plan_phasors(k, 1, key=wrong)[0, 1:]
            decoded = decode_phases(block_fft(wave, k), phasors)
            picks = np.argmin(
                np.abs(decoded[:, None] - qpsk[None, :]), axis=1)
            truth = np.argmin(
                np.abs(block[:, None] - qpsk[None, :]), axis=1)
            errors += int(np.sum(picks != truth))
            total += picks.size
        ser = errors / total
        assert 0.70 < ser < 0.90

    def test_residual_rotation_uniform_without_key(self):
        # the net rotation seen by an eavesdropper is uniform over the
        # phase alphabet; chi-square over 16 bins at alpha = 0.01
        rng = np.random.default_rng(6)
        n_blocks = 500
        blocks = random_symbol_blocks(rng, n_blocks, CONFIG)
        wave = secure_waveform(blocks)
        steps = []
        for k, block in enumerate(blocks):
            raw = block_fft(wave, k)
            rot = np.angle(raw / block)
            steps.append(np.round(rot * 16 / (2 * np.pi)).astype(int) % 16)
        counts = np.bincount(np.concatenate(steps), minlength=16)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_length_mismatch(self):
        phasors = plan_phasors(0, 1, 64)[0, 1:]
        with pytest.raises(ValueError):
            decode_phases(np.zeros(128, dtype=complex), phasors)


class TestQpskAndLlr:
    def test_qpsk_oracle_points(self):
        pts = qpsk_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        s = 1 / np.sqrt(2)
        assert np.allclose(pts, [s + 1j * s, s - 1j * s, -s + 1j * s,
                                 -s - 1j * s])

    def test_qpsk_rejects_odd_length(self):
        with pytest.raises(ValueError):
            qpsk_map(np.array([0, 1, 1]))

    def test_llr_signs_recover_bits(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 2000)
        llr = llr_qpsk(qpsk_map(bits), 1.0)
        assert np.array_equal((llr < 0).astype(int), bits)

    def test_llr_scale(self):
        llr = llr_qpsk(np.array([1 / np.sqrt(2) + 0j]), 0.5)
        assert llr[0] == pytest.approx(2 * np.sqrt(2) / np.sqrt(2) / 0.5)
        assert llr[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("bits", [[2, 0], [0, 256], [-1, 0], [0.5, 1]])
    def test_qpsk_rejects_non_binary_bits(self, bits):
        with pytest.raises(ValueError, match="bit values must be 0 or 1"):
            qpsk_map(np.array(bits))

    def test_uncoded_ber_matches_q_function(self):
        rng = np.random.default_rng(8)
        n_bits = 1_000_000
        sigma2 = 1 / 2.326 ** 2  # puts hard-decision BER near 1e-2
        bits = rng.integers(0, 2, n_bits)
        s = qpsk_map(bits)
        noise = rng.normal(0, np.sqrt(sigma2 / 2), (s.size, 2))
        r = s + noise[:, 0] + 1j * noise[:, 1]
        hard = (llr_qpsk(r, sigma2) < 0).astype(int)
        ber = np.mean(hard != bits)
        expect = stats.norm.sf(1 / np.sqrt(sigma2))
        assert abs(ber - expect) / expect < 0.10


class TestParityCheckCode:
    def test_dense_and_syndrome_agree(self):
        code = make_regular_parity_check(24, 12, seed=1)
        h = code.dense()
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, (5, 24)).astype(np.uint8)
        assert np.array_equal(code.syndrome(bits), (bits @ h.T) % 2)

    def test_regular_column_degree(self):
        code = make_regular_parity_check(48, 24, col_degree=3, seed=2)
        assert np.all(code.dense().sum(axis=0) == 3)

    def test_regular_rejects_degree_above_check_count(self):
        # a variable cannot meet three distinct checks out of two
        with pytest.raises(ValueError, match="col_degree 3"):
            make_regular_parity_check(8, 2, col_degree=3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParityCheckCode(n=0, m=1, check_of_edge=np.array([]),
                            var_of_edge=np.array([]))

    def test_rejects_check_or_variable_without_edges(self):
        with pytest.raises(ValueError, match="check 1 has no edges"):
            ParityCheckCode(n=3, m=3, check_of_edge=np.array([0, 2, 0, 2]),
                            var_of_edge=np.array([0, 1, 2, 2]))
        for empty in (0, 2):  # the first and the last variable
            with pytest.raises(ValueError, match=f"variable {empty} has no edges"):
                ParityCheckCode(n=3, m=1, check_of_edge=np.zeros(2, dtype=int),
                                var_of_edge=np.delete(np.arange(3), empty))
        with pytest.raises(ValueError, match="check index 1 out of range"):
            ParityCheckCode(n=2, m=1, check_of_edge=np.array([0, 1]),
                            var_of_edge=np.array([0, 1]))

    def test_rejects_repeated_edge(self):
        # H has one 1 per (check, variable): counted twice, the edge would
        # cancel in the syndrome but not in dense() or the encoder
        with pytest.raises(ValueError,
                           match="^check 0 and variable 0 share more than one edge"):
            ParityCheckCode(n=4, m=2, check_of_edge=np.array([0, 0, 0, 0, 1, 1]),
                            var_of_edge=np.array([0, 0, 1, 2, 2, 3]))
        with pytest.raises(ValueError, match="^check 1 and variable 2 share"):
            ParityCheckCode(n=3, m=2, check_of_edge=np.array([1, 0, 1, 0, 1]),
                            var_of_edge=np.array([2, 0, 0, 1, 2]))

    @pytest.mark.parametrize("name, checks, variables", [
        ("check", [0, -1], [0, 1]), ("variable", [0, 0], [-1, 1])])
    def test_rejects_negative_index(self, name, checks, variables):
        with pytest.raises(ValueError, match=f"^{name} index -1 out of range"):
            ParityCheckCode(n=2, m=1, check_of_edge=np.array(checks),
                            var_of_edge=np.array(variables))

    @pytest.mark.parametrize("shape", [(25,), (19,), (3, 21), ()])
    def test_syndrome_rejects_wrong_length(self, shape):
        # 25 bits used to give the syndrome of the first 20
        code = make_regular_parity_check(20, 10, 3)
        with pytest.raises(ValueError, match="^bits length must be 20"):
            code.syndrome(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, 256, -1])
    def test_syndrome_rejects_non_binary_bits(self, value):
        # all 2s (or -1s, cast to 255) used to read as a codeword
        code = make_regular_parity_check(20, 10, 3)
        with pytest.raises(ValueError, match=f"got {value}"):
            code.syndrome(np.full((2, 20), value))

    def test_bundled_codes(self):
        for label, rate in [("1_4", 0.25), ("1_3", 1 / 3), ("1_2", 0.5),
                            ("2_3", 2 / 3)]:
            code = builtin_code(label)
            assert code.n == 2016
            assert (code.n - code.m) / code.n == pytest.approx(rate, abs=1e-9)
            enc = LdpcEncoder(code)
            assert enc.k == round(2016 * rate)

    def test_missing_bundled_code(self):
        with pytest.raises(ValueError, match="no built-in code for rate '9_10'"):
            builtin_code("9_10")

    @pytest.mark.parametrize("label, digest", [
        ("1_4", "2c80d8ff858a437c9e0323503c1fd6a0466acaa0bc0616340f48e7c314254f42"),
        ("1_3", "d7070015f0f487916864b21750b70f505dc356afac031ed2e0827dc7e8a5d4d9"),
        ("1_2", "b70eb17931ba9f38c6fd3bad061ce516716ddc4c659035b7a367a22babc825af"),
        ("2_3", "8e18aa88d45abc8483a0936d5684a68719118274ec5bc9bedea3438207f1dee5"),
    ])
    def test_builtin_code_edges_pinned(self, label, digest):
        # the digest of the variable-sorted edge arrays: a change to
        # make_regular_parity_check changes every code
        code = builtin_code(label)
        edges = np.stack([code.var_of_edge, code.check_of_edge]).astype("<i8")
        assert sha256(edges.tobytes()) == digest


class TestEncoder:
    def test_codewords_satisfy_checks(self):
        code = builtin_code("1_2")
        enc = LdpcEncoder(code)
        rng = np.random.default_rng(10)
        msg = rng.integers(0, 2, (4, enc.k)).astype(np.uint8)
        cw = enc.encode(msg)
        assert np.all(code.syndrome(cw) == 0)
        assert np.array_equal(enc.extract_message(cw), msg)

    def test_single_vector_shape(self):
        code = make_regular_parity_check(24, 12, seed=4)
        enc = LdpcEncoder(code)
        cw = enc.encode(np.zeros(enc.k, dtype=np.uint8))
        assert cw.shape == (24,)
        assert np.all(cw == 0)

    def test_empty_batch(self):
        enc = LdpcEncoder(make_regular_parity_check(24, 12, seed=5))
        cw = enc.encode(np.zeros((0, enc.k), dtype=np.uint8))
        assert cw.shape == (0, 24)
        assert cw.dtype == np.uint8

    def test_wrong_message_length(self):
        enc = LdpcEncoder(make_regular_parity_check(24, 12, seed=5))
        with pytest.raises(ValueError):
            enc.encode(np.zeros(enc.k + 1, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(25,), (19,), (2, 21)])
    def test_extract_message_rejects_wrong_length(self, shape):
        # 25 bits used to give 10 message bits, 19 an IndexError
        enc = LdpcEncoder(make_regular_parity_check(20, 10, 3))
        with pytest.raises(ValueError, match="^codeword length must be 20"):
            enc.extract_message(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, 256, -1])
    def test_rejects_non_binary_message(self, value):
        # 2 used to reach the codeword, 256 and -1 to wrap in the uint8 cast
        enc = LdpcEncoder(make_regular_parity_check(24, 12, seed=5))
        message = np.zeros((2, enc.k), dtype=np.int64)
        message[1, 3] = value
        with pytest.raises(ValueError, match=f"got {value}"):
            enc.encode(message)


class TestBpDecode:
    def test_clean_llr_converges_immediately(self):
        code = make_regular_parity_check(24, 12, seed=6)
        enc = LdpcEncoder(code)
        rng = np.random.default_rng(11)
        cw = enc.encode(rng.integers(0, 2, enc.k).astype(np.uint8))
        llr = 10.0 * (1 - 2 * cw.astype(float))
        hard, converged, iters = ldpc_bp_decode(code, llr)
        assert converged
        assert iters == 0
        assert np.array_equal(hard, cw)

    def test_corrects_single_flips(self):
        code = builtin_code("1_2")
        enc = LdpcEncoder(code)
        rng = np.random.default_rng(12)
        cw = enc.encode(rng.integers(0, 2, enc.k).astype(np.uint8))
        base = 4.0 * (1 - 2 * cw.astype(float))
        llr = np.tile(base, (30, 1))
        positions = rng.choice(code.n, 30, replace=False)
        llr[np.arange(30), positions] *= -1
        hard, converged, _ = ldpc_bp_decode(code, llr)
        assert np.all(converged)
        assert np.array_equal(hard, np.tile(cw, (30, 1)))

    def test_converged_output_is_a_codeword(self):
        code = builtin_code("1_4")
        enc = LdpcEncoder(code)
        rng = np.random.default_rng(13)
        cw = enc.encode(rng.integers(0, 2, (3, enc.k)).astype(np.uint8))
        s = qpsk_map(cw.ravel()).reshape(3, -1)
        sigma2 = 0.5
        noise = rng.normal(0, np.sqrt(sigma2 / 2), s.shape + (2,))
        r = s + noise[..., 0] + 1j * noise[..., 1]
        llr = llr_qpsk(r.ravel(), sigma2).reshape(3, code.n)
        hard, converged, _ = ldpc_bp_decode(code, llr)
        assert np.all(converged)
        assert np.all(code.syndrome(hard) == 0)
        assert np.array_equal(hard, cw)

    def test_batch_matches_individual(self):
        # (code, LLR mean shift): check degrees 6, 4 and 5 (built-in rate
        # 1/3), 2 and 3, and 1 and 2; the shifted frames converge at
        # different iterations, so the batch's working set shrinks
        cases = [(make_regular_parity_check(48, 24, seed=8), 0.0),
                 (builtin_code("1_3"), 3.0),
                 (make_regular_parity_check(30, 29, col_degree=2, seed=1), 0.0),
                 (make_regular_parity_check(30, 20, col_degree=1, seed=1), 0.0)]
        for code, shift in cases:
            rng = np.random.default_rng(14)
            llr = (rng.normal(0, 3, (6, code.n))
                   + shift * np.linspace(0.5, 1.5, 6)[:, None])
            batch_hard, batch_conv, batch_iters = ldpc_bp_decode(code, llr)
            for b in range(6):
                hard, conv, iters = ldpc_bp_decode(code, llr[b])
                assert np.array_equal(hard, batch_hard[b])
                assert conv == batch_conv[b]
                assert iters == batch_iters[b]

    def test_degree_one_check_flips_its_variable(self):
        # checks {0, 1, 2} and {2}: the degree-1 check's message forces
        # variable 2, whose channel LLR points to 1, back to 0
        code = ParityCheckCode(n=3, m=2, check_of_edge=np.array([0, 0, 0, 1]),
                               var_of_edge=np.array([0, 1, 2, 2]))
        hard, converged, iters = ldpc_bp_decode(code, np.array([4.0, 4.0, -6.0]))
        assert converged
        assert iters >= 1
        assert np.array_equal(hard, [0, 0, 0])

    def test_wrong_llr_length(self):
        code = make_regular_parity_check(24, 12, seed=9)
        with pytest.raises(ValueError):
            ldpc_bp_decode(code, np.zeros(23))

    @pytest.mark.parametrize("shape", [(), (2, 2, 24), (1, 1, 1, 24)])
    def test_llr_rank_rejected(self, shape):
        code = make_regular_parity_check(24, 12, seed=9)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            ldpc_bp_decode(code, np.zeros(shape))

    def test_nan_llr_rejected(self):
        # NaN < 0 is False: unchecked, this frame passed as converged at 0
        code = make_regular_parity_check(24, 12, seed=9)
        llr = np.full(24, 3.0)
        llr[5] = np.nan
        with pytest.raises(ValueError, match="llr"):
            ldpc_bp_decode(code, llr)

    def test_infinite_and_huge_llrs_saturate(self):
        # beyond the float32 range (a warning-raising cast if unclamped);
        # the weak flipped bits are corrected through saturated messages
        code = builtin_code("1_2")
        enc = LdpcEncoder(code)
        rng = np.random.default_rng(15)
        cw = enc.encode(rng.integers(0, 2, (2, enc.k)).astype(np.uint8))
        sign = 1 - 2 * cw.astype(float)
        llr = 4.0 * sign
        llr[:, 0::3] = np.inf * sign[:, 0::3]
        llr[:, 1::5] = 1e300 * sign[:, 1::5]
        llr[:, 2::7] = 3.5e38 * sign[:, 2::7]
        llr[0, [4, 10, 20]] *= -1
        hard, converged, iters = ldpc_bp_decode(code, llr)
        assert np.all(converged)
        assert iters.tolist()[1] == 0 and iters[0] >= 1
        assert np.array_equal(hard, cw)
