"""Tests for the two-stage synchronizer."""

import numpy as np
import pytest

from spofdm.channel import OffsetSpec, apply_offsets
from spofdm.jammer import JammerSpec, combine, generate_jamming
from spofdm.keystream import PhaseSequence, SecretKey, phase_plans
from spofdm.sync import (SyncConfig, _gamma_avg, corr_pre_fft, demod_fft,
                         estimate_fine_time, estimate_integer_cfo,
                         estimate_phase, estimate_pre_fft, pre_fft_surface, synchronize,
                         v_expected)
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            random_symbol_blocks)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")
PILOTS = {24: 1.0 + 0j, 32: 1.0 + 0j}


def table1_config():
    return OfdmConfig(n_carriers=128, cp1_samples=16, cp2_samples=8,
                      psk_order=16, pilot_positions=PILOTS)


def toy_config():
    return OfdmConfig(n_carriers=8, cp1_samples=2, cp2_samples=1, psk_order=4,
                      sample_interval=1.0 / 8)


def make_received(config, n_blocks, k0=0, t0_samples=0, nu=0.0, phi0=0.0,
                  seed=0):
    rng = np.random.default_rng(seed)
    blocks = random_symbol_blocks(rng, n_blocks, config)
    angles = phase_plans(KEY, 0, k0, n_blocks, config.n_carriers,
                         config.psk_order)
    wave = build_waveform(blocks, angles, config)
    dt = config.sample_interval
    omega0 = 2 * np.pi * nu / config.t_body
    return apply_offsets(wave, OffsetSpec(t0=t0_samples * dt, omega0=omega0,
                                          phi0=phi0))


class TestVExpected:
    def test_triangle_values(self):
        t_cp1 = 16 / 128
        assert v_expected(0.0, t_cp1) == pytest.approx(t_cp1)
        assert v_expected(t_cp1, t_cp1) == 0.0
        assert v_expected(-t_cp1, t_cp1) == 0.0
        assert v_expected(t_cp1 / 2, t_cp1) == pytest.approx(t_cp1 / 2)
        assert v_expected(2 * t_cp1, t_cp1) == 0.0


class TestCorrPreFft:
    def test_matches_brute_force_double_sum(self):
        config = toy_config()
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 6, seed=1)
        dt = config.sample_interval
        for k in (1, 2):
            for tau in (0, 3, 7):
                for d in (0, 2):
                    got = corr_pre_fft(r, k, tau, d, seq, config)
                    start = tau - config.cp_samples + k * config.block_samples
                    acc = 0.0 + 0j
                    for i in range(config.cp1_samples):
                        acc += (r.samples[start + i]
                                * np.conj(r.samples[start + i
                                                    + config.n_carriers]))
                    cp_phase = np.exp(1j * seq.plan(k + d, k + d)[0, 0])
                    oracle = acc * np.conj(cp_phase) * dt
                    assert abs(got - oracle) < 1e-10

    def test_aligned_value_real_positive(self):
        config = table1_config()
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 4, seed=2)
        y = corr_pre_fft(r, 1, config.cp_samples, 0, seq, config)
        assert y.real > 0
        assert abs(y.imag) < 1e-12 * max(1.0, y.real)

    def test_wrong_candidate_same_magnitude(self):
        config = table1_config()
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 4, seed=3)
        y0 = corr_pre_fft(r, 1, config.cp_samples, 0, seq, config)
        y5 = corr_pre_fft(r, 1, config.cp_samples, 5, seq, config)
        assert abs(abs(y5) - abs(y0)) < 1e-12

    def test_out_of_range_window(self):
        config = table1_config()
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 2, seed=4)
        with pytest.raises(ValueError):
            corr_pre_fft(r, 0, 0, 0, seq, config)


class TestPreFftSurface:
    def test_matches_direct_correlator(self):
        config = toy_config()
        sync_cfg = SyncConfig(n_blocks=3, candidates=np.arange(4))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 6, seed=5)
        surface = pre_fft_surface(r, config, sync_cfg, seq)
        for tau in range(config.block_samples):
            for j, d in enumerate(sync_cfg.candidates):
                direct = np.mean([
                    corr_pre_fft(r, k, tau, int(d), seq, config)
                    for k in range(1, 4)])
                assert abs(surface[tau, j] - direct) < 1e-12

    def test_rejects_short_signal(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=25)
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 5, seed=6)
        with pytest.raises(ValueError):
            pre_fft_surface(r, config, sync_cfg, seq)


class TestEstimatePreFft:
    def test_noiseless_exact_time_and_candidate(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, candidates=np.arange(50))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 14, k0=17, t0_samples=40, seed=7)
        est, _ = estimate_pre_fft(r, config, sync_cfg, seq)
        assert est.t0_hat == pytest.approx(40 * config.sample_interval)
        assert est.k0_hat == 17
        assert min(est.frac_cfo_hat, 1.0 - est.frac_cfo_hat) < 1e-9

    def test_fractional_cfo_from_peak_phase(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, candidates=np.arange(50))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 14, k0=3, t0_samples=12, nu=0.125, seed=8)
        est, _ = estimate_pre_fft(r, config, sync_cfg, seq)
        assert est.k0_hat == 3
        assert abs(est.frac_cfo_hat - 0.125) < 1e-6

    def test_peak_value_matches_cp1_energy(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, candidates=np.arange(50))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 14, seed=9)
        est, _ = estimate_pre_fft(r, config, sync_cfg, seq)
        dt = config.sample_interval
        energies = []
        for k in range(1, 11):
            start = k * config.block_samples
            cp1 = r.samples[start:start + config.cp1_samples]
            energies.append(np.sum(np.abs(cp1) ** 2) * dt)
        assert est.peak_metric == pytest.approx(np.mean(energies), rel=1e-9)


class TestDemodFft:
    def test_reduces_to_plain_fft_without_search_margin(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=5, n_l=0, n_u=0)
        r = make_received(config, 6, seed=10)
        start = config.block_samples + config.cp_samples
        out = demod_fft(r, start, config, sync_cfg)
        oracle = np.fft.fft(r.samples[start:start + 128])
        assert out.size == 128
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_extended_grid_recovers_scaled_symbols(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=5, n_l=-2, n_u=2)
        rng = np.random.default_rng(11)
        blocks = random_symbol_blocks(rng, 3, config)
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        wave = build_waveform(blocks, seq.plan(0, 2), config)
        start = config.block_samples + config.cp_samples
        out = demod_fft(wave, start, config, sync_cfg)
        expected = (132 / 128) * blocks[1] * np.exp(
            -1j * seq.plan(1, 1)[0, 1:])
        assert np.max(np.abs(out[:128] - expected)) < 1e-9

    def test_integer_cfo_shifts_bins(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=5, n_l=-2, n_u=2)
        n_fft = sync_cfg.n_fft(config)
        assert n_fft == 132
        # single active carrier, then a 2-bin frequency offset
        body = np.fft.ifft(np.eye(128)[5] * 128.0)
        sig = ComplexSignal(body, config.sample_interval)
        shifted = apply_offsets(
            sig, OffsetSpec(omega0=2 * np.pi * 2 / config.t_body))
        out = demod_fft(shifted, 0, config, sync_cfg)
        assert int(np.argmax(np.abs(out))) == 7


def synthetic_pilot_blocks(n_fft, i_p, pilot, phases, n0, zeta0, tb_ts,
                           t0p_norm=0.0):
    """Demodulated pilot bins with a frequency offset of n0+zeta0 subcarrier
    spacings and a residual window offset of t0p_norm body durations."""
    k = np.arange(phases.size)
    r = np.zeros((phases.size, n_fft), dtype=complex)
    cfo = np.exp(2j * np.pi * (n0 + zeta0) * k * tb_ts)
    ramp = np.exp(-2j * np.pi * i_p * t0p_norm)
    r[:, (i_p + n0) % n_fft] = pilot * np.exp(-1j * phases) * cfo * ramp
    return r


class TestEstimateIntegerCfo:
    def test_zero_offset_peak_at_pilot_bin(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(12)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        r_blocks = synthetic_pilot_blocks(132, 24, 1.0 + 0j, phases, 0, 0.0,
                                          152 / 128)
        n0, zeta0, low = estimate_integer_cfo(r_blocks, [(24, 1.0 + 0j)],
                                              phases[:, None], config,
                                              sync_cfg)
        assert n0 == 0
        assert abs(zeta0) < 1e-12
        assert abs(_gamma_avg(r_blocks, phases)[24] - 1.0) < 1e-12
        assert not low

    def test_integer_offset_moves_peak(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(13)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        for n0_true in (-2, -1, 1, 2):
            r_blocks = synthetic_pilot_blocks(132, 24, 1.0 + 0j, phases,
                                              n0_true, 0.0, 152 / 128)
            n0, zeta0, _ = estimate_integer_cfo(r_blocks, [(24, 1.0 + 0j)],
                                                phases[:, None], config,
                                                sync_cfg)
            assert n0 == n0_true
            assert abs(zeta0) < 1e-12

    def test_residual_fraction_recovered(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(14)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        r_blocks = synthetic_pilot_blocks(132, 24, 1.0 + 0j, phases, 1, 0.013,
                                          152 / 128)
        n0, zeta0, _ = estimate_integer_cfo(r_blocks, [(24, 1.0 + 0j)],
                                            phases[:, None], config, sync_cfg)
        assert n0 == 1
        assert abs(zeta0 - 0.013) < 1e-9


class TestEstimateFineTime:
    def test_zero_residual(self):
        config = table1_config()
        rng = np.random.default_rng(15)
        th1 = 2 * np.pi * rng.integers(0, 16, 8) / 16
        th2 = 2 * np.pi * rng.integers(0, 16, 8) / 16
        r = (synthetic_pilot_blocks(132, 24, 1.0 + 0j, th1, 0, 0.0, 152 / 128)
             + synthetic_pilot_blocks(132, 32, 1.0 + 0j, th2, 0, 0.0,
                                      152 / 128))
        t0p = estimate_fine_time(r, [(24, 1.0 + 0j), (32, 1.0 + 0j)],
                                 np.column_stack([th1, th2]), 0, config)
        assert t0p == pytest.approx(0.0, abs=1e-12)

    def test_half_cp2_residual(self):
        config = table1_config()
        rng = np.random.default_rng(16)
        th1 = 2 * np.pi * rng.integers(0, 16, 8) / 16
        th2 = 2 * np.pi * rng.integers(0, 16, 8) / 16
        t0p_true = config.t_cp2 / 2
        t0p_norm = t0p_true / config.t_body
        r = (synthetic_pilot_blocks(132, 24, 1.0 + 0j, th1, 0, 0.0, 152 / 128,
                                    t0p_norm)
             + synthetic_pilot_blocks(132, 32, 1.0 + 0j, th2, 0, 0.0,
                                      152 / 128, t0p_norm))
        t0p = estimate_fine_time(r, [(24, 1.0 + 0j), (32, 1.0 + 0j)],
                                 np.column_stack([th1, th2]), 0, config)
        assert abs(t0p - t0p_true) < config.sample_interval

    def test_rejects_duplicate_pilots(self):
        config = table1_config()
        r = np.zeros((8, 132), dtype=complex)
        with pytest.raises(ValueError):
            estimate_fine_time(r, [(24, 1.0 + 0j), (24, 1.0 + 0j)],
                               np.zeros((8, 2)), 0, config)


class TestEstimatePhase:
    def test_weighted_pilots_recover_phase(self):
        config = table1_config()
        rng = np.random.default_rng(17)
        pilots = [(24, 1.0 + 0j), (32, 2j)]
        phases = 2 * np.pi * rng.integers(0, 16, (8, 2)) / 16
        phi0 = 0.7
        r = sum(synthetic_pilot_blocks(132, i, p * np.exp(1j * phi0),
                                       phases[:, j], 0, 0.0, 152 / 128)
                for j, (i, p) in enumerate(pilots))
        got = estimate_phase(r, pilots, phases, 0, 0.0, 0.0, config)
        assert abs(got - phi0) < 1e-12


class TestSynchronizeNoiseless:
    def run_case(self, k0=0, t0_samples=0, nu=0.0, phi0=0.0, seed=0):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, candidates=np.arange(50))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        r = make_received(config, 15, k0=k0, t0_samples=t0_samples, nu=nu,
                          phi0=phi0, seed=seed)
        est, _ = synchronize(r, config, sync_cfg, seq)
        return config, sync_cfg, est

    def test_zero_offsets(self):
        config, sync_cfg, est = self.run_case()
        assert est.t0_hat == 0.0
        assert est.k0_hat == 0
        assert est.n0_hat == 0
        assert abs(est.total_cfo_normalized()) < 1e-9
        backoff_t = sync_cfg.backoff(config) * config.sample_interval
        assert est.t0p_hat == pytest.approx(backoff_t, abs=1e-9)
        assert abs(est.phi0_hat) < 1e-9

    def test_combined_offsets_recovered(self):
        config, sync_cfg, est = self.run_case(k0=23, t0_samples=77, nu=1.43,
                                              phi0=np.pi / 3, seed=1)
        backoff_t = sync_cfg.backoff(config) * config.sample_interval
        time_est = est.t0_hat + est.t0p_hat - backoff_t \
            - est.k0_hat * config.t_block
        time_true = 77 * config.sample_interval - 23 * config.t_block
        delta = time_est - time_true
        delta -= config.t_block * round(delta / config.t_block)
        assert abs(delta) / config.t_block < 1e-9
        assert abs(est.total_cfo_normalized() - 1.43) < 1e-9
        err = (est.phi0_hat - np.pi / 3 + np.pi) % (2 * np.pi) - np.pi
        assert abs(err) < 1e-9

    def test_negative_integer_cfo(self):
        config, sync_cfg, est = self.run_case(k0=5, t0_samples=10, nu=-1.8,
                                              seed=2)
        assert est.n0_hat == -2
        assert abs(est.total_cfo_normalized() - (-1.8)) < 1e-9

    def test_phase_recovery_is_exact_per_value(self):
        for phi0 in (0.0, np.pi / 3):
            _, _, est = self.run_case(t0_samples=30, phi0=phi0, seed=3)
            err = (est.phi0_hat - phi0 + np.pi) % (2 * np.pi) - np.pi
            assert abs(err) < 1e-9


class TestSynchronizeUnderJamming:
    def run_trials(self, n_trials, sync_blocks, seed_base=0):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=sync_blocks, candidates=np.arange(50))
        seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
        p = config.symbol_power / config.n_carriers
        sigma2 = p * 10 ** (-1.5)
        results = []
        for trial in range(n_trials):
            rng = np.random.default_rng([seed_base, trial])
            k0 = int(rng.integers(0, 50))
            t0 = int(rng.integers(0, config.block_samples))
            nu = float(rng.uniform(-2, 2))
            phi0 = float(rng.uniform(0, 2 * np.pi))
            r = make_received(config, sync_blocks + 5, k0=k0, t0_samples=t0,
                              nu=nu, phi0=phi0, seed=int(rng.integers(1 << 31)))
            jam = generate_jamming(
                JammerSpec("disguised_ofdm", power=p,
                           offsets=OffsetSpec(
                               t0=int(rng.integers(0, config.block_samples))
                               * config.sample_interval)),
                config, r.samples.size, rng)
            rx = combine(r, jam, sigma2, rng)
            est, _ = synchronize(rx, config, sync_cfg, seq)
            phase_err = (est.phi0_hat - phi0 + np.pi) % (2 * np.pi) - np.pi
            results.append({
                "freq_err": abs(est.total_cfo_normalized() - nu),
                "phase_err": abs(phase_err),
            })
        return results

    def test_integer_cfo_mostly_correct(self):
        results = self.run_trials(100, sync_blocks=25, seed_base=100)
        ok = sum(r["freq_err"] < 0.5 for r in results)
        assert ok >= 95

    def test_phase_estimate_is_informative(self):
        # The absolute phase couples to residual timing and frequency
        # errors (a sub-sample timing slip rotates pilot bin 24 by
        # roughly 2 * pi * 24 / 132 radians per sample), so under 0 dB
        # disguised jamming the error is far from zero but must still be
        # much tighter than the uniform distribution an uninformative
        # estimator would produce (median pi / 2, 48% below 1.5 rad).
        results = self.run_trials(100, sync_blocks=40, seed_base=200)
        errs = np.array([r["phase_err"] for r in results])
        assert np.median(errs) < 1.0
        assert np.mean(errs < 1.5) >= 0.70
