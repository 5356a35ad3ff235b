"""Tests for the adversary strategies."""

import numpy as np
import pytest

from spofdm.channel import OffsetSpec
from spofdm.jammer import JammerConfigError, JammerSpec, combine, generate_jamming
from spofdm.txchain import ComplexSignal, OfdmConfig

CONFIG = OfdmConfig(n_carriers=128, cp1_samples=16, cp2_samples=8, psk_order=16)


class TestJammerSpec:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(JammerConfigError):
            JammerSpec(strategy="pulse")

    def test_rejects_unknown_cp_mode(self):
        with pytest.raises(JammerConfigError):
            JammerSpec(strategy="disguised_ofdm", cp_phase_mode="weird")

    def test_rejects_negative_power(self):
        with pytest.raises(JammerConfigError):
            JammerSpec(strategy="gaussian", power=-1.0)


class TestGenerateJamming:
    def test_none_strategy_is_silent(self):
        out = generate_jamming(JammerSpec("none"), CONFIG, 500, 0)
        assert np.array_equal(out.samples, np.zeros(500))

    def test_gaussian_power(self):
        spec = JammerSpec("gaussian", power=1.0)
        out = generate_jamming(spec, CONFIG, 1_000_000, 0)
        power = np.mean(np.abs(out.samples) ** 2)
        assert abs(power - 1.0) < 0.005

    def test_disguised_power(self):
        p_j = CONFIG.symbol_power / CONFIG.n_carriers  # 0 dB versus the signal
        spec = JammerSpec("disguised_ofdm", power=p_j)
        out = generate_jamming(spec, CONFIG, 100_000, 1)
        power = np.mean(np.abs(out.samples) ** 2)
        assert abs(power - p_j) / p_j < 0.01

    def test_disguised_format_mimicry(self):
        # zero offset, plain CP mode: every block passes the classical CP check
        p_j = CONFIG.symbol_power / CONFIG.n_carriers
        spec = JammerSpec("disguised_ofdm", power=p_j)
        out = generate_jamming(spec, CONFIG, 5 * 152, 2)
        for k in range(5):
            seg = out.samples[k * 152:(k + 1) * 152]
            assert np.max(np.abs(seg[:24] - seg[-24:])) < 1e-12

    def test_disguised_random_cp_rotates_cp1_only(self):
        p_j = CONFIG.symbol_power / CONFIG.n_carriers
        spec = JammerSpec("disguised_ofdm", power=p_j,
                          cp_phase_mode="random_cp")
        out = generate_jamming(spec, CONFIG, 5 * 152, 3)
        for k in range(5):
            seg = out.samples[k * 152:(k + 1) * 152]
            assert np.max(np.abs(seg[16:24] - seg[-8:])) < 1e-12
            ratio = seg[:16] / seg[-24:-8]
            assert np.max(np.abs(ratio - ratio[0])) < 1e-9
            assert abs(abs(ratio[0]) - 1.0) < 1e-9

    def test_jammer_time_offset(self):
        p_j = CONFIG.symbol_power / CONFIG.n_carriers
        dt = CONFIG.sample_interval
        base = generate_jamming(
            JammerSpec("disguised_ofdm", power=p_j), CONFIG, 1000, 4)
        moved = generate_jamming(
            JammerSpec("disguised_ofdm", power=p_j,
                       offsets=OffsetSpec(t0=10 * dt)), CONFIG, 1000, 4)
        assert np.max(np.abs(moved.samples[10:] - base.samples[:-10])) < 1e-12

    def test_independent_seeds_give_independent_data(self):
        p_j = CONFIG.symbol_power / CONFIG.n_carriers
        spec = JammerSpec("disguised_ofdm", power=p_j)
        a = generate_jamming(spec, CONFIG, 10_000, 5).samples
        b = generate_jamming(spec, CONFIG, 10_000, 6).samples
        rho = np.abs(np.vdot(a, b)) / np.sqrt(
            np.vdot(a, a).real * np.vdot(b, b).real)
        assert rho < 0.05

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            generate_jamming(JammerSpec("none"), CONFIG, 0, 0)


class TestCombine:
    def test_identity_without_jam_and_noise(self):
        rng = np.random.default_rng(0)
        sig = ComplexSignal(rng.normal(size=100) + 1j * rng.normal(size=100),
                            CONFIG.sample_interval)
        silent = generate_jamming(JammerSpec("none"), CONFIG, 100, 0)
        out = combine(sig, silent, 0.0, 0)
        assert np.array_equal(out.samples, sig.samples)

    def test_superposition_with_zero_signal(self):
        jam = ComplexSignal(np.full(100, 2.0 + 1j), CONFIG.sample_interval)
        sig = ComplexSignal(np.zeros(100, dtype=complex),
                            CONFIG.sample_interval)
        out = combine(sig, jam, 0.0, 0)
        assert np.array_equal(out.samples, jam.samples)

    def test_shorter_input_zero_padded(self):
        sig = ComplexSignal(np.ones(50, dtype=complex), CONFIG.sample_interval)
        jam = ComplexSignal(np.ones(100, dtype=complex), CONFIG.sample_interval)
        out = combine(sig, jam, 0.0, 0)
        assert np.array_equal(out.samples[:50], np.full(50, 2.0 + 0j))
        assert np.array_equal(out.samples[50:], np.ones(50))

    def test_equal_power_at_zero_db_sjr(self):
        rng = np.random.default_rng(1)
        n = 100_000
        p = CONFIG.symbol_power / CONFIG.n_carriers
        sig = ComplexSignal(
            rng.normal(0, np.sqrt(p / 2), (n, 2)) @ np.array([1, 1j]),
            CONFIG.sample_interval)
        jam = generate_jamming(JammerSpec("disguised_ofdm", power=p),
                               CONFIG, n, 2)
        p_sig = np.mean(np.abs(sig.samples) ** 2)
        p_jam = np.mean(np.abs(jam.samples) ** 2)
        assert abs(p_sig - p) / p < 0.01
        assert abs(p_jam - p) / p < 0.01
