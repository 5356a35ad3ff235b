"""Tests for the two-stage synchronizer."""

import numpy as np
import pytest

from spofdm.channel import OffsetSpec, apply_offsets
from spofdm.harness import run_sync_experiment, table1_scenario
from spofdm.jammer import JammerSpec, combine, generate_jamming
from spofdm.keystream import SecretKey, phase_plans, psk_phasors
from spofdm.sync import (FIRST_BLOCK, SyncConfig, _gamma_avg, demod_fft,
                         estimate_fine_time, estimate_integer_cfo,
                         estimate_phase, estimate_pre_fft, pre_fft_surface, synchronize)
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            decode_phases, random_symbol_blocks)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")
PILOTS = {24: 1.0 + 0j, 32: 1.0 + 0j}


def table1_config(pilots=PILOTS):
    return OfdmConfig(n_carriers=128, cp1_samples=16, cp2_samples=8,
                      psk_order=16, pilot_positions=pilots)


def toy_config():
    return OfdmConfig(n_carriers=8, cp1_samples=2, cp2_samples=1, psk_order=4)


def secret_phasors(config, n_rows):
    """Keystream blocks 0..n_rows-1 as unit phasors: row k is block k."""
    return psk_phasors(config.psk_order)[phase_plans(
        KEY, 0, 0, n_rows, config.n_carriers, config.psk_order)]


def receiver_phasors(config, sync_cfg):
    """The secret phasors of every block the receiver reads, and no more."""
    return secret_phasors(config, FIRST_BLOCK + sync_cfg.n_blocks
                          + sync_cfg.n_candidates)


def make_received(config, n_blocks, k0=0, t0_samples=0, nu=0.0, phi0=0.0,
                  seed=0):
    rng = np.random.default_rng(seed)
    blocks = random_symbol_blocks(rng, n_blocks, config)
    v = phase_plans(KEY, 0, k0, n_blocks, config.n_carriers, config.psk_order)
    wave = build_waveform(
        blocks, np.exp(1j * (2.0 * np.pi * v / config.psk_order)), config)
    omega0 = 2 * np.pi * nu / config.t_body
    return apply_offsets(wave, OffsetSpec(delay=t0_samples, omega0=omega0,
                                          phi0=phi0))


@pytest.mark.parametrize("field, value", [
    (name, value) for name in ("n_blocks", "n_candidates")
    for value in (0, -1, 2.5, np.inf, True)] + [
    (name, value) for name in ("n_l", "n_u") for value in (2.5, np.inf, True)])
def test_sync_config_rejects_non_integer_or_nonpositive_counts(field, value):
    # unchecked, a fractional count would fail only in the first trial, as a
    # TypeError the harness does not catch
    with pytest.raises(ValueError, match=field):
        SyncConfig(**{field: value})


def v_expected(tau: float | np.ndarray, t_cp1: float) -> np.ndarray:
    """Limit shape of the averaged CP1 correlation: a triangle of height and
    half-width T_CP1 centred at zero offset (the criterion-3 oracle)."""
    tau = np.asarray(tau, dtype=float)
    return np.where(np.abs(tau) < t_cp1, t_cp1 - np.abs(tau), 0.0)


def corr_pre_fft(r: ComplexSignal, k: int, tau_samples: int, d: int,
                 phasors: np.ndarray, config: OfdmConfig) -> complex:
    """Single correlation coefficient Y_k(tau, d) as a direct Riemann sum
    (the oracle of the pre-FFT surface).

    Window: the CP1 span of block k at trial offset tau, correlated against
    the signal one body-duration later and despread by the candidate CP phase.
    """
    x = r.samples
    n_c = config.n_carriers
    start = tau_samples - config.cp_samples + k * config.block_samples
    stop = start + config.cp1_samples
    if start < 0 or stop + n_c > x.size:
        raise ValueError("correlation window out of range")
    window = x[start:stop] * np.conj(x[start + n_c:stop + n_c])
    cp_phase = phasors[k + d, 0]
    return complex(np.sum(window) * np.conj(cp_phase) * r.sample_interval)


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
        phasors = secret_phasors(config, 8)
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
                    v = phase_plans(KEY, 0, k + d, 1, config.n_carriers,
                                    config.psk_order)[0, 0]
                    cp_phase = np.exp(1j * (2.0 * np.pi * v / config.psk_order))
                    oracle = acc * np.conj(cp_phase) * dt
                    assert abs(got - oracle) < 1e-10

    def test_aligned_value_real_positive(self):
        config = table1_config()
        phasors = secret_phasors(config, 8)
        r = make_received(config, 4, seed=2)
        y = corr_pre_fft(r, 1, config.cp_samples, 0, phasors, config)
        assert y.real > 0
        assert abs(y.imag) < 1e-12 * max(1.0, y.real)

    def test_wrong_candidate_same_magnitude(self):
        config = table1_config()
        phasors = secret_phasors(config, 8)
        r = make_received(config, 4, seed=3)
        y0 = corr_pre_fft(r, 1, config.cp_samples, 0, phasors, config)
        y5 = corr_pre_fft(r, 1, config.cp_samples, 5, phasors, config)
        assert abs(abs(y5) - abs(y0)) < 1e-12

    def test_out_of_range_window(self):
        config = table1_config()
        phasors = secret_phasors(config, 8)
        r = make_received(config, 2, seed=4)
        with pytest.raises(ValueError):
            corr_pre_fft(r, 0, 0, 0, phasors, config)


class TestPreFftSurface:
    def test_matches_direct_correlator(self):
        config = toy_config()
        sync_cfg = SyncConfig(n_blocks=3, n_candidates=4)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 6, seed=5)
        surface = pre_fft_surface(r, config, sync_cfg, phasors)
        for tau in range(config.block_samples):
            for j, d in enumerate(sync_cfg.candidates):
                direct = np.mean([
                    corr_pre_fft(r, k, tau, int(d), phasors, config)
                    for k in range(1, 4)])
                assert abs(surface[tau, j] - direct) < 1e-12

    def test_rejects_short_signal(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=25)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 5, seed=6)
        with pytest.raises(ValueError):
            pre_fft_surface(r, config, sync_cfg, phasors)


class TestPhasorRows:
    @pytest.mark.parametrize("receiver", [pre_fft_surface, synchronize])
    def test_rejects_phasors_one_row_short(self, receiver):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 15, seed=0)
        with pytest.raises(ValueError, match="phasors needs 61 rows, got 60"):
            receiver(r, config, sync_cfg, phasors[:-1])

    def test_last_candidate_reads_no_row_past_them(self):
        # at k0_hat = n_candidates - 1 the post-FFT stage reads the last row
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        r = make_received(config, 15, k0=49, t0_samples=40, seed=4)
        est, _ = synchronize(r, config, sync_cfg,
                             receiver_phasors(config, sync_cfg))
        assert est.k0_hat == 49 and est.n0_hat == 0
        assert abs(est.total_cfo_normalized()) < 1e-9


class TestEstimatePreFft:
    def test_noiseless_exact_time_and_candidate(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 14, k0=17, t0_samples=40, seed=7)
        est, _ = estimate_pre_fft(r, config, sync_cfg, phasors)
        assert est.t0_hat == pytest.approx(40 * config.sample_interval)
        assert est.k0_hat == 17
        assert min(est.frac_cfo_hat, 1.0 - est.frac_cfo_hat) < 1e-9

    def test_fractional_cfo_from_peak_phase(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 14, k0=3, t0_samples=12, nu=0.125, seed=8)
        est, _ = estimate_pre_fft(r, config, sync_cfg, phasors)
        assert est.k0_hat == 3
        assert abs(est.frac_cfo_hat - 0.125) < 1e-6

    def test_peak_value_matches_cp1_energy(self):
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=10, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        r = make_received(config, 14, seed=9)
        est, _ = estimate_pre_fft(r, config, sync_cfg, phasors)
        dt = config.sample_interval
        energies = []
        for k in range(1, 11):
            start = k * config.block_samples
            cp1 = r.samples[start:start + config.cp1_samples]
            energies.append(np.sum(np.abs(cp1) ** 2) * dt)
        assert est.peak_metric == pytest.approx(np.mean(energies), rel=1e-9)


class TestDemodFft:
    def test_is_plain_fft(self):
        config = table1_config()
        r = make_received(config, 6, seed=10)
        start = config.block_samples + config.cp_samples
        out = demod_fft(r, start, config)
        oracle = np.fft.fft(r.samples[start:start + 128])
        assert out.shape == (128,)
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_recovers_rotated_symbols(self):
        config = table1_config()
        rng = np.random.default_rng(11)
        blocks = random_symbol_blocks(rng, 3, config)
        wave = build_waveform(blocks, secret_phasors(config, 3), config)
        start = config.block_samples + config.cp_samples
        out = demod_fft(wave, start, config)
        v = phase_plans(KEY, 0, 1, 1, 128, 16)[0, 1:]
        expected = blocks[1] * np.exp(-1j * (2.0 * np.pi * v / 16))
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
        out = self.shifted_carrier(table1_config(), 5, 2)
        assert int(np.argmax(np.abs(out))) == 7

    @pytest.mark.parametrize("carrier, n0, peak", [
        (0, -1, 127), (0, -2, 126), (1, -2, 127), (127, 1, 0), (126, 2, 0)])
    def test_band_edge_carrier_wraps_at_n_c(self, carrier, n0, peak):
        # the estimators read carrier i at bin (i + n0) mod out.shape[-1]
        out = self.shifted_carrier(table1_config(), carrier, n0)
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


def despread(r_blocks, bins, pilots, phasors):
    """(K, C, P) despread observations, as synchronize forms them: the
    (C, P) ``bins`` of ``r_blocks`` (K, N_c), decode_phases by the (K, P)
    pilot phasors, divided by the values of the pilots [(index, value), ...]."""
    return (decode_phases(r_blocks[:, bins], phasors[:, None])
            / np.array([value for _, value in pilots]))


class TestEstimateIntegerCfo:
    PILOT = [(24, 1.0 + 0j)]

    def estimate(self, r_blocks, phases, sync_cfg):
        bins = np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)[:, None] + 24
        z = despread(r_blocks, bins, self.PILOT, np.exp(1j * phases)[:, None])
        return estimate_integer_cfo(z, table1_config(), sync_cfg), z

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
                estimate_integer_cfo(layout(z), table1_config(), sync_cfg)
                for layout in (np.ascontiguousarray, np.asfortranarray))
            assert by_block[1].hex() == by_pilot[1].hex()
            assert by_block == by_pilot


class TestEstimateFineTime:
    PILOTS = [(24, 1.0 + 0j), (32, 1.0 + 0j)]

    def estimate(self, t0p_norm):
        config = table1_config()
        rng = np.random.default_rng(15)
        th = 2 * np.pi * rng.integers(0, 16, (8, 2)) / 16
        r = sum(synthetic_pilot_blocks(128, i, p, th[:, j], 0, 0.0, 152 / 128,
                                       t0p_norm)
                for j, (i, p) in enumerate(self.PILOTS))
        z = despread(r, [[24, 32]], self.PILOTS, np.exp(1j * th))[:, 0]
        return estimate_fine_time(z, [24, 32], config)

    def test_zero_residual(self):
        assert self.estimate(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_cp2_residual(self):
        config = table1_config()
        t0p_true = config.cp2_samples * config.sample_interval / 2
        t0p = self.estimate(t0p_true / config.t_body)
        assert abs(t0p - t0p_true) < config.sample_interval
        assert type(t0p) is float

    def test_rejects_duplicate_pilots(self):
        with pytest.raises(ValueError, match="two distinct pilots"):
            estimate_fine_time(np.zeros((8, 2), dtype=complex), [24, 24],
                               table1_config())

    def test_numpy_indices_give_a_python_float(self):
        # a clipped estimate and NumPy pilot indices must not leak np.float64
        # into the records, whose CSV prints floats with repr
        config = table1_config()
        for angle in (-3.0, -0.1, 0.1, 3.0):  # clipped above, below, not
            z = np.column_stack([np.ones(8), np.full(8, np.exp(1j * angle))])
            assert type(estimate_fine_time(z, np.array([24, 32]), config)) is float


class TestEstimatePhase:
    def test_weighted_pilots_recover_phase(self):
        config = table1_config()
        rng = np.random.default_rng(17)
        pilots = [(24, 1.0 + 0j), (32, 2j)]
        phases = 2 * np.pi * rng.integers(0, 16, (8, 2)) / 16
        phi0 = 0.7
        r = sum(synthetic_pilot_blocks(128, i, p * np.exp(1j * phi0),
                                       phases[:, j], 0, 0.0, 152 / 128)
                for j, (i, p) in enumerate(pilots))
        z = despread(r, [[24, 32]], pilots, np.exp(1j * phases))[:, 0]
        got = estimate_phase(z, [24, 32], 0, 0.0, 0.0, config)
        assert abs(got - phi0) < 1e-12

    def test_independent_of_memory_layout(self):
        # the block sums run in block order for a row-major and a
        # pilot-major copy of the same pilots alike
        config = table1_config()
        args = ([24, 32], 1, 0.013, 2.5, config, 0.7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
            by_row = estimate_phase(np.ascontiguousarray(z), *args)
            assert by_row == estimate_phase(np.asfortranarray(z), *args)


class TestSynchronizeNoiseless:
    def run_case(self, k0=0, t0_samples=0, nu=0.0, phi0=0.0, seed=0,
                 pilots=PILOTS):
        config = table1_config(pilots)
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
        config = table1_config()
        sync_cfg = SyncConfig(n_blocks=sync_blocks, n_candidates=50)
        phasors = receiver_phasors(config, sync_cfg)
        p = config.sample_power
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
                               delay=int(rng.integers(0, config.block_samples)))),
                config, r.samples.size, rng)
            rx = combine(r, jam, sigma2, rng)
            est, _ = synchronize(rx, config, sync_cfg, phasors)
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
