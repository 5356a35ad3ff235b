"""Tests for the two-stage synchronizer."""

from dataclasses import replace

import numpy as np
import pytest

from spofdm.channel import OffsetSpec, apply_offsets
from spofdm.harness import run_sync_experiment, table1_scenario
from spofdm.jammer import JammerSpec, combine, generate_jamming
from spofdm.sync import (SyncConfig, _gamma_avg, demod_fft, estimate_fine_time,
                         estimate_integer_cfo, estimate_phase, estimate_pre_fft,
                         pre_fft_surface, synchronize)
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            random_symbol_blocks)
from support import (CONFIG, corr_pre_fft, despread, make_received,
                     plan_phasors, receiver_phasors, table_phasors, v_expected)

PILOTS = {24: 1.0 + 0j, 32: 1.0 + 0j}
PILOTED = replace(CONFIG, pilot_positions=PILOTS)  # table 1 with two pilots


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
        config = OfdmConfig(n_carriers=8, cp1_samples=2, cp2_samples=1,
                            psk_order=4)
        phasors = table_phasors(0, 8, 8, 4)
        r = make_received(config, 6, seed=1)
        dt = config.sample_interval
        for k in (1, 2):
            for tau in (0, 3, 7):
                for d in (0, 2):
                    got = corr_pre_fft(r, k, tau, d, phasors, config)
                    start = tau - config.cp_samples + k * config.block_samples
                    acc = 0.0 + 0j
                    for i in range(config.cp1_samples):
                        acc += (r.samples[start + i]
                                * np.conj(r.samples[start + i
                                                    + config.n_carriers]))
                    cp_phase = plan_phasors(k + d, 1, 8, 4)[0, 0]
                    oracle = acc * np.conj(cp_phase) * dt
                    assert abs(got - oracle) < 1e-10

    def test_aligned_value_real_positive(self):
        phasors = table_phasors(0, 8)
        r = make_received(PILOTED, 4, seed=2)
        y = corr_pre_fft(r, 1, PILOTED.cp_samples, 0, phasors, PILOTED)
        assert y.real > 0
        assert abs(y.imag) < 1e-12 * max(1.0, y.real)

    def test_wrong_candidate_same_magnitude(self):
        phasors = table_phasors(0, 8)
        r = make_received(PILOTED, 4, seed=3)
        y0 = corr_pre_fft(r, 1, PILOTED.cp_samples, 0, phasors, PILOTED)
        y5 = corr_pre_fft(r, 1, PILOTED.cp_samples, 5, phasors, PILOTED)
        assert abs(abs(y5) - abs(y0)) < 1e-12

    def test_out_of_range_window(self):
        phasors = table_phasors(0, 8)
        r = make_received(PILOTED, 2, seed=4)
        with pytest.raises(ValueError):
            corr_pre_fft(r, 0, 0, 0, phasors, PILOTED)


class TestPreFftSurface:
    def test_rejects_short_signal(self):
        sync_cfg = SyncConfig(n_blocks=25)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        r = make_received(PILOTED, 5, seed=6)
        with pytest.raises(ValueError):
            pre_fft_surface(r, PILOTED, sync_cfg, phasors)


class TestPhasorRows:
    @pytest.mark.parametrize("receiver", [pre_fft_surface, synchronize])
    def test_rejects_phasors_one_row_short(self, receiver):
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        r = make_received(PILOTED, 15, seed=0)
        with pytest.raises(ValueError, match="phasors needs 61 rows, got 60"):
            receiver(r, PILOTED, sync_cfg, phasors[:-1])

    def test_last_candidate_reads_no_row_past_them(self):
        # at k0_hat = n_candidates - 1 the post-FFT stage reads the last row
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        r = make_received(PILOTED, 15, k0=49, t0_samples=40, seed=4)
        est, _ = synchronize(r, PILOTED, sync_cfg,
                             receiver_phasors(PILOTED, sync_cfg))
        assert est.k0_hat == 49 and est.n0_hat == 0
        assert abs(est.total_cfo_normalized()) < 1e-9


class TestEstimatePreFft:
    def test_noiseless_exact_time_and_candidate(self):
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        r = make_received(PILOTED, 14, k0=17, t0_samples=40, seed=7)
        est, _ = estimate_pre_fft(r, PILOTED, sync_cfg, phasors)
        assert est.t0_hat == pytest.approx(40 * PILOTED.sample_interval)
        assert est.k0_hat == 17
        assert min(est.frac_cfo_hat, 1.0 - est.frac_cfo_hat) < 1e-9

    def test_fractional_cfo_from_peak_phase(self):
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        r = make_received(PILOTED, 14, k0=3, t0_samples=12, nu=0.125, seed=8)
        est, _ = estimate_pre_fft(r, PILOTED, sync_cfg, phasors)
        assert est.k0_hat == 3
        assert abs(est.frac_cfo_hat - 0.125) < 1e-6

    def test_peak_value_matches_cp1_energy(self):
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        r = make_received(PILOTED, 14, seed=9)
        est, _ = estimate_pre_fft(r, PILOTED, sync_cfg, phasors)
        dt = PILOTED.sample_interval
        energies = []
        for k in range(1, 11):
            start = k * PILOTED.block_samples
            cp1 = r.samples[start:start + PILOTED.cp1_samples]
            energies.append(np.sum(np.abs(cp1) ** 2) * dt)
        assert est.peak_metric == pytest.approx(np.mean(energies), rel=1e-9)


class TestDemodFft:
    def test_is_plain_fft(self):
        r = make_received(PILOTED, 6, seed=10)
        start = PILOTED.block_samples + PILOTED.cp_samples
        out = demod_fft(r, start, PILOTED)
        oracle = np.fft.fft(r.samples[start:start + 128])
        assert out.shape == (128,)
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_recovers_rotated_symbols(self):
        rng = np.random.default_rng(11)
        blocks = random_symbol_blocks(rng, 3, PILOTED)
        wave = build_waveform(blocks, table_phasors(0, 3), PILOTED)
        start = PILOTED.block_samples + PILOTED.cp_samples
        out = demod_fft(wave, start, PILOTED)
        expected = blocks[1] * np.conj(plan_phasors(1, 1)[0, 1:])
        assert np.max(np.abs(out - expected)) < 1e-9

    @staticmethod
    def shifted_carrier(config, carrier, n0):
        """demod_fft of one body carrying only ``carrier``, after a
        frequency offset of n0 subcarrier spacings."""
        n_c = config.n_carriers
        body = np.fft.ifft(np.eye(n_c)[carrier] * n_c)
        sig = ComplexSignal(body, config.sample_interval)
        shifted = apply_offsets(
            sig, OffsetSpec(omega0=2 * np.pi * n0 / config.t_body))
        return demod_fft(shifted, 0, config)

    def test_integer_cfo_shifts_bins(self):
        out = self.shifted_carrier(PILOTED, 5, 2)
        assert int(np.argmax(np.abs(out))) == 7

    @pytest.mark.parametrize("carrier, n0, peak", [
        (0, -1, 127), (0, -2, 126), (1, -2, 127), (127, 1, 0), (126, 2, 0)])
    def test_band_edge_carrier_wraps_at_n_c(self, carrier, n0, peak):
        # the estimators read carrier i at bin (i + n0) mod out.shape[-1]
        out = self.shifted_carrier(PILOTED, carrier, n0)
        assert int(np.argmax(np.abs(out))) == peak
        assert (carrier + n0) % out.shape[-1] == peak


def synthetic_pilot_blocks(n_c, i_p, pilot, phases, n0, zeta0, tb_ts,
                           t0p_norm=0.0):
    """Demodulated pilot bins with a frequency offset of n0+zeta0 subcarrier
    spacings and a residual window offset of t0p_norm body durations."""
    k = np.arange(phases.size)
    r = np.zeros((phases.size, n_c), dtype=complex)
    cfo = np.exp(2j * np.pi * (n0 + zeta0) * k * tb_ts)
    ramp = np.exp(-2j * np.pi * i_p * t0p_norm)
    r[:, (i_p + n0) % n_c] = pilot * np.exp(-1j * phases) * cfo * ramp
    return r


class TestEstimateIntegerCfo:
    PILOT = [(24, 1.0 + 0j)]

    def estimate(self, r_blocks, phases, sync_cfg):
        bins = np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)[:, None] + 24
        z = despread(r_blocks, bins, self.PILOT, np.exp(1j * phases)[:, None])
        return estimate_integer_cfo(z, PILOTED, sync_cfg), z

    def test_zero_offset_peak_at_pilot_bin(self):
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(12)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        r_blocks = synthetic_pilot_blocks(128, 24, 1.0 + 0j, phases, 0, 0.0,
                                          152 / 128)
        (n0, zeta0, low), z = self.estimate(r_blocks, phases, sync_cfg)
        assert n0 == 0
        assert abs(zeta0) < 1e-12
        assert abs(_gamma_avg(z, 1)[0, -sync_cfg.n_l, 0] - 1.0) < 1e-12
        assert not low

    def test_integer_offset_moves_peak(self):
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(13)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        for n0_true in (-2, -1, 1, 2):
            r_blocks = synthetic_pilot_blocks(128, 24, 1.0 + 0j, phases,
                                              n0_true, 0.0, 152 / 128)
            (n0, zeta0, _), _ = self.estimate(r_blocks, phases, sync_cfg)
            assert n0 == n0_true
            assert abs(zeta0) < 1e-12

    def test_residual_fraction_recovered(self):
        sync_cfg = SyncConfig(n_blocks=8)
        rng = np.random.default_rng(14)
        phases = 2 * np.pi * rng.integers(0, 16, 9) / 16
        r_blocks = synthetic_pilot_blocks(128, 24, 1.0 + 0j, phases, 1, 0.013,
                                          152 / 128)
        (n0, zeta0, _), _ = self.estimate(r_blocks, phases, sync_cfg)
        assert n0 == 1
        assert abs(zeta0 - 0.013) < 1e-9

    @pytest.mark.parametrize("k_count", [1, 2, 4, 9, 25])
    def test_independent_of_memory_layout(self, k_count):
        # every lag's block sum runs in block order for a block-major and a
        # pilot-major copy of the same observations alike
        sync_cfg = SyncConfig(n_blocks=k_count)
        shape = (k_count + 1, sync_cfg.n_u - sync_cfg.n_l + 1, 2)
        rng = np.random.default_rng(15)
        for _ in range(20):
            z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            by_block, by_pilot = (
                estimate_integer_cfo(layout(z), PILOTED, sync_cfg)
                for layout in (np.ascontiguousarray, np.asfortranarray))
            assert by_block[1].hex() == by_pilot[1].hex()
            assert by_block == by_pilot


class TestEstimateFineTime:
    PILOTS = [(24, 1.0 + 0j), (32, 1.0 + 0j)]

    def estimate(self, t0p_norm):
        rng = np.random.default_rng(15)
        th = 2 * np.pi * rng.integers(0, 16, (8, 2)) / 16
        r = sum(synthetic_pilot_blocks(128, i, p, th[:, j], 0, 0.0, 152 / 128,
                                       t0p_norm)
                for j, (i, p) in enumerate(self.PILOTS))
        z = despread(r, [[24, 32]], self.PILOTS, np.exp(1j * th))[:, 0]
        return estimate_fine_time(z, [24, 32], PILOTED)

    def test_zero_residual(self):
        assert self.estimate(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_cp2_residual(self):
        t0p_true = PILOTED.cp2_samples * PILOTED.sample_interval / 2
        t0p = self.estimate(t0p_true / PILOTED.t_body)
        assert abs(t0p - t0p_true) < PILOTED.sample_interval
        assert type(t0p) is float

    def test_rejects_duplicate_pilots(self):
        with pytest.raises(ValueError, match="two distinct pilots"):
            estimate_fine_time(np.zeros((8, 2), dtype=complex), [24, 24],
                               PILOTED)

    def test_numpy_indices_give_a_python_float(self):
        # a clipped estimate and NumPy pilot indices must not leak np.float64
        # into the records, whose CSV prints floats with repr
        for angle in (-3.0, -0.1, 0.1, 3.0):  # clipped above, below, not
            z = np.column_stack([np.ones(8), np.full(8, np.exp(1j * angle))])
            assert type(estimate_fine_time(z, np.array([24, 32]), PILOTED)) is float


class TestEstimatePhase:
    def test_weighted_pilots_recover_phase(self):
        rng = np.random.default_rng(17)
        pilots = [(24, 1.0 + 0j), (32, 2j)]
        phases = 2 * np.pi * rng.integers(0, 16, (8, 2)) / 16
        phi0 = 0.7
        r = sum(synthetic_pilot_blocks(128, i, p * np.exp(1j * phi0),
                                       phases[:, j], 0, 0.0, 152 / 128)
                for j, (i, p) in enumerate(pilots))
        z = despread(r, [[24, 32]], pilots, np.exp(1j * phases))[:, 0]
        got = estimate_phase(z, [24, 32], 0, 0.0, 0.0, PILOTED)
        assert abs(got - phi0) < 1e-12

    def test_independent_of_memory_layout(self):
        # the block sums run in block order for a row-major and a
        # pilot-major copy of the same pilots alike
        args = ([24, 32], 1, 0.013, 2.5, PILOTED, 0.7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
            by_row = estimate_phase(np.ascontiguousarray(z), *args)
            assert by_row == estimate_phase(np.asfortranarray(z), *args)


class TestSynchronizeNoiseless:
    def run_case(self, k0=0, t0_samples=0, nu=0.0, phi0=0.0, seed=0,
                 pilots=PILOTS):
        config = replace(CONFIG, pilot_positions=pilots)
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 15, k0=k0, t0_samples=t0_samples, nu=nu,
                          phi0=phi0, seed=seed)
        est, _ = synchronize(r, config, sync_cfg, phasors)
        return config, est

    def test_zero_offsets(self):
        config, est = self.run_case()
        assert est.t0_hat == 0.0
        assert est.k0_hat == 0
        assert est.n0_hat == 0
        assert abs(est.total_cfo_normalized()) < 1e-9
        assert est.frame_time(config) == pytest.approx(0.0, abs=1e-9)
        assert abs(est.phi0_hat) < 1e-9

    def check_combined_offsets(self, pilots):
        config, est = self.run_case(k0=23, t0_samples=77, nu=1.43,
                                    phi0=np.pi / 3, seed=1, pilots=pilots)
        time_true = 77 * config.sample_interval - 23 * config.t_block
        delta = est.frame_time(config) - time_true
        delta -= config.t_block * round(delta / config.t_block)
        assert abs(delta) / config.t_block < 1e-9
        assert abs(est.total_cfo_normalized() - 1.43) < 1e-9
        err = (est.phi0_hat - np.pi / 3 + np.pi) % (2 * np.pi) - np.pi
        assert abs(err) < 1e-9

    def test_combined_offsets_recovered(self):
        self.check_combined_offsets(PILOTS)

    def test_complex_pilot_value_recovered(self):
        # synchronize divides each despread pilot by its value, so a wrong
        # weighting rotates pilot 32 by pi and breaks t0p and phi0
        self.check_combined_offsets({24: 1.0 + 0j, 32: 2j})

    def test_negative_integer_cfo(self):
        _, est = self.run_case(k0=5, t0_samples=10, nu=-1.8, seed=2)
        assert est.n0_hat == -2
        assert abs(est.total_cfo_normalized() - (-1.8)) < 1e-9

    def test_phase_recovery_is_exact_per_value(self):
        for phi0 in (0.0, np.pi / 3):
            _, est = self.run_case(t0_samples=30, phi0=phi0, seed=3)
            err = (est.phi0_hat - phi0 + np.pi) % (2 * np.pi) - np.pi
            assert abs(err) < 1e-9


class TestClassicalSynchronize:
    def test_classical_trial_without_jammer(self):
        # the classical receiver is the secure one with the one-point phase
        # alphabet (M = 1) and the one candidate offset 0
        report = run_sync_experiment(table1_scenario(
            psk_order=1, n_candidates=1, jammer_strategy="none", trials=1))
        record = report.records[0]
        assert record["error"] is None and record["k0_true"] == 0
        assert record["freq_error"] < 0.04


class TestSynchronizeUnderJamming:
    def run_trials(self, n_trials, sync_blocks, seed_base=0):
        sync_cfg = SyncConfig(n_blocks=sync_blocks, n_candidates=50)
        phasors = receiver_phasors(PILOTED, sync_cfg)
        p = PILOTED.sample_power
        sigma2 = p * 10 ** (-1.5)
        results = []
        for trial in range(n_trials):
            rng = np.random.default_rng([seed_base, trial])
            k0 = int(rng.integers(0, 50))
            t0 = int(rng.integers(0, PILOTED.block_samples))
            nu = float(rng.uniform(-2, 2))
            phi0 = float(rng.uniform(0, 2 * np.pi))
            r = make_received(PILOTED, sync_blocks + 5, k0=k0, t0_samples=t0,
                              nu=nu, phi0=phi0, seed=int(rng.integers(1 << 31)))
            jam = generate_jamming(
                JammerSpec("disguised_ofdm", power=p,
                           offsets=OffsetSpec(
                               delay=int(rng.integers(0, PILOTED.block_samples)))),
                PILOTED, r.samples.size, rng)
            rx = combine(r, jam, sigma2, rng)
            est, _ = synchronize(rx, PILOTED, sync_cfg, phasors)
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
        # roughly 2 * pi * 24 / 128 radians per sample), so under 0 dB
        # disguised jamming the error is far from zero but must still be
        # much tighter than the uniform distribution an uninformative
        # estimator would produce (median pi / 2, 48% below 1.5 rad).
        results = self.run_trials(100, sync_blocks=40, seed_base=200)
        errs = np.array([r["phase_err"] for r in results])
        assert np.median(errs) < 1.0
        assert np.mean(errs < 1.5) >= 0.70


class TestBandEdgePilots:
    @pytest.mark.parametrize("pilots", [(0, 8), (1, 9)],
                             ids=["carriers_0_8", "carriers_1_9"])
    def test_pilots_within_the_cfo_bound_of_carrier_0(self, pilots):
        # with n0 down to n_l = -2, carrier 0 or 1 moves to a bin at the top
        # of the band, so these trials fail if the bins do not wrap at N_c
        scenario = table1_scenario(
            pilot_positions=tuple((i, 1.0 + 0j) for i in pilots),
            jammer_strategy="none", snr_db=30.0, trials=60)
        report = run_sync_experiment(scenario)
        assert report.aggregates["n_failed"] == 0
        assert report.aggregates["time_cdf"]["lt_0.02"] == 1.0
