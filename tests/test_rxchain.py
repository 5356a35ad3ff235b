"""Tests for the receiver chain: demodulation, decoding, LLRs, LDPC BP.

Demodulation is ``sync.demod_fft`` on the plain N_c-bin grid (no CFO search
margin) and decoding is ``txchain.decode_phases``.
"""

import numpy as np
import pytest
from scipy import stats

from spofdm.keystream import SecretKey, phase_plans
from spofdm.rxchain import (LdpcEncoder, ParityCheckCode, bundled_code_path,
                            ldpc_bp_decode, llr_qpsk, load_alist,
                            make_regular_parity_check, qpsk_map, save_alist)
from spofdm.sync import SyncConfig, demod_fft
from spofdm.txchain import (OfdmConfig, build_waveform, decode_phases,
                            modulate_block, random_symbol_blocks)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")
CONFIG = OfdmConfig(n_carriers=128, cp1_samples=16, cp2_samples=8,
                    psk_order=16)
PLAIN_GRID = SyncConfig(n_l=0, n_u=0)


def subcarrier_phases(key, k_first, count):
    """Secret subcarrier phases of blocks k_first.. (one row per block)."""
    return phase_plans(key, 0, k_first, count, CONFIG.n_carriers,
                       CONFIG.psk_order)[:, 1:]


def secure_waveform(blocks):
    return build_waveform(blocks, phase_plans(KEY, 0, 0, len(blocks),
                                              CONFIG.n_carriers,
                                              CONFIG.psk_order), CONFIG)


def block_fft(r, k, start_offset=0):
    """Drop the CP of block k and take the N_c-point FFT of its body."""
    start = start_offset + k * CONFIG.block_samples + CONFIG.cp_samples
    return demod_fft(r, start, CONFIG, PLAIN_GRID)


class TestCropAndFft:
    """Crop-and-FFT demodulation: demod_fft without a CFO search margin."""

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
            phases = subcarrier_phases(KEY, k, 1)[0]
            out = block_fft(wave, k)
            expect = block * np.exp(-1j * phases)
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
            phases = subcarrier_phases(KEY, k, 1)[0]
            decoded = decode_phases(block_fft(wave, k), phases)
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
            phases = subcarrier_phases(wrong, k, 1)[0]
            decoded = decode_phases(block_fft(wave, k), phases)
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
        phases = phase_plans(KEY, 0, 0, 1, 64, 16)[0, 1:]
        with pytest.raises(ValueError):
            decode_phases(np.zeros(128, dtype=complex), phases)


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

    def test_llr_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            llr_qpsk(np.zeros(2, dtype=complex), 0.0)

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

    def test_alist_zero_degree_variable(self, tmp_path):
        path = tmp_path / "code.alist"
        # variable 1 is declared with degree 0 and a zero-padding entry
        path.write_text("3 2\n1 1\n1 0 1\n1 1\n1\n0\n2\n1\n3\n")
        with pytest.raises(ValueError, match="variable 1 has no edges"):
            load_alist(path)

    def test_alist_round_trip(self, tmp_path):
        code = make_regular_parity_check(30, 15, seed=3)
        path = tmp_path / "code.alist"
        save_alist(code, path)
        back = load_alist(path)
        assert back.n == code.n and back.m == code.m
        assert np.array_equal(back.dense(), code.dense())

    def test_alist_row_section_cross_checked(self, tmp_path):
        code = make_regular_parity_check(30, 15, seed=3)
        path = tmp_path / "code.alist"
        save_alist(code, path)
        lines = path.read_text().splitlines()
        first_row = [int(v) for v in lines[4 + code.n].split()]
        absent = next(v for v in range(1, code.n + 1) if v not in first_row)
        lines[4 + code.n] = " ".join(map(str, [absent] + first_row[1:]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row section disagrees"):
            load_alist(path)
        path.write_text("\n".join(lines[:4 + code.n]) + "\n")
        with pytest.raises(ValueError, match="row section must have 15 entries"):
            load_alist(path)

    def test_bundled_codes(self):
        for label, rate in [("1_4", 0.25), ("1_3", 1 / 3), ("1_2", 0.5),
                            ("2_3", 2 / 3)]:
            code = load_alist(bundled_code_path(label))
            assert code.n == 2016
            assert (code.n - code.m) / code.n == pytest.approx(rate, abs=1e-9)
            enc = LdpcEncoder(code)
            assert enc.k == round(2016 * rate)

    def test_missing_bundled_code(self):
        with pytest.raises(FileNotFoundError):
            bundled_code_path("9_10")


class TestEncoder:
    def test_codewords_satisfy_checks(self):
        code = load_alist(bundled_code_path("1_2"))
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

    def test_wrong_message_length(self):
        enc = LdpcEncoder(make_regular_parity_check(24, 12, seed=5))
        with pytest.raises(ValueError):
            enc.encode(np.zeros(enc.k + 1, dtype=np.uint8))


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
        code = load_alist(bundled_code_path("1_2"))
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
        code = load_alist(bundled_code_path("1_4"))
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
        # (code, LLR mean shift): check degrees 6, 4 and 5 (bundled rate
        # 1/3), 2 and 3, and 1 and 2; the shifted frames converge at
        # different iterations, so the batch's working set shrinks
        cases = [(make_regular_parity_check(48, 24, seed=8), 0.0),
                 (load_alist(bundled_code_path("1_3")), 3.0),
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
