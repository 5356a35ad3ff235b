"""Tests for channel impairments: offsets, fading, AWGN."""

import numpy as np
import pytest
from scipy import stats

from spofdm.channel import (FadingSpec, OffsetSpec, add_awgn, apply_fading,
                            apply_offsets, complex_normal, random_multipath_taps)
from spofdm.txchain import ComplexSignal

DT = 1.0 / 128


def random_signal(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ComplexSignal(x, DT)


class TestOffsetSpec:
    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            OffsetSpec(t0=-0.1)


class TestApplyOffsets:
    def test_identity(self):
        sig = random_signal()
        out = apply_offsets(sig, OffsetSpec())
        assert np.array_equal(out.samples, sig.samples)

    def test_global_sign_flip(self):
        sig = random_signal()
        out = apply_offsets(sig, OffsetSpec(phi0=np.pi))
        assert np.max(np.abs(out.samples + sig.samples)) < 1e-12

    def test_frequency_ramp_matches_pointwise_oracle(self):
        sig = random_signal()
        omega0 = 2 * np.pi * 0.2  # 0.2 subcarrier spacings at t_body = 1
        out = apply_offsets(sig, OffsetSpec(omega0=omega0))
        t = np.arange(sig.samples.size) * DT
        oracle = sig.samples * np.exp(1j * omega0 * t)
        assert np.max(np.abs(out.samples - oracle)) < 1e-12

    def test_grid_delay(self):
        sig = random_signal()
        out = apply_offsets(sig, OffsetSpec(t0=5 * DT))
        assert np.array_equal(out.samples[5:], sig.samples[:-5])
        assert np.array_equal(out.samples[:5], np.zeros(5))

    def test_offset_composition(self):
        sig = random_signal()
        spec = OffsetSpec(t0=3 * DT, omega0=2 * np.pi * 0.7, phi0=0.9)
        combined = apply_offsets(sig, spec)
        staged = apply_offsets(
            apply_offsets(sig, OffsetSpec(t0=3 * DT)),
            OffsetSpec(omega0=spec.omega0, phi0=spec.phi0))
        assert np.max(np.abs(combined.samples - staged.samples)) < 1e-12

    def test_off_grid_without_interpolation_raises(self):
        sig = random_signal()
        with pytest.raises(ValueError):
            apply_offsets(sig, OffsetSpec(t0=0.4 * DT))


class TestApplyFading:
    def test_single_unit_tap_identity(self):
        sig = random_signal()
        out = apply_fading(sig, FadingSpec(taps=((0.0, 1.0 + 0j, 0.0),)))
        assert np.array_equal(out.samples, sig.samples)

    def test_flat_gain(self):
        sig = random_signal()
        g = 0.3 - 0.7j
        out = apply_fading(sig, FadingSpec(taps=((0.0, g, 0.0),)))
        assert np.max(np.abs(out.samples - g * sig.samples)) < 1e-12

    def test_two_taps_match_convolution_oracle(self):
        sig = random_signal(n=256, seed=1)
        g0, g1 = 0.8 + 0.1j, 0.3 - 0.4j
        d1 = 3
        out = apply_fading(sig, FadingSpec(
            taps=((0.0, g0, 0.0), (d1 * DT, g1, 0.0))))
        h = np.zeros(d1 + 1, dtype=complex)
        h[0], h[d1] = g0, g1
        oracle = np.convolve(sig.samples, h)[:sig.samples.size]
        assert np.max(np.abs(out.samples - oracle)) < 1e-10

    def test_doppler_tap(self):
        sig = random_signal()
        doppler = 2 * np.pi * 0.02
        out = apply_fading(sig, FadingSpec(taps=((0.0, 1.0, doppler),)))
        t = np.arange(sig.samples.size) * DT
        assert np.max(np.abs(out.samples - sig.samples * np.exp(1j * doppler * t))) < 1e-12

    def test_energy_preserved_by_unit_tap(self):
        sig = random_signal()
        out = apply_fading(sig, FadingSpec(taps=((2 * DT, 1.0 + 0j, 0.0),)))
        e_in = np.sum(np.abs(sig.samples[:-2]) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        assert abs(e_in - e_out) < 1e-12

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            FadingSpec(taps=((-DT, 1.0, 0.0),))


class TestAddAwgn:
    def test_zero_variance_identity(self):
        sig = random_signal()
        out = add_awgn(sig, 0.0, 0)
        assert np.array_equal(out.samples, sig.samples)

    def test_seeded_reproducibility(self):
        sig = random_signal()
        a = add_awgn(sig, 0.5, 42)
        b = add_awgn(sig, 0.5, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_variance(self):
        n = 1_000_000
        sig = ComplexSignal(np.zeros(n, dtype=complex), DT)
        out = add_awgn(sig, 1.0, 7)
        var = np.mean(np.abs(out.samples) ** 2)
        assert abs(var - 1.0) < 0.005

    def test_circular_symmetry(self):
        n = 1_000_000
        sig = ComplexSignal(np.zeros(n, dtype=complex), DT)
        out = add_awgn(sig, 1.0, 8)
        cov = np.mean(out.samples.real * out.samples.imag)
        assert abs(cov) < 0.005

    def test_rotation_invariance_ks(self):
        n = 100_000
        sig = ComplexSignal(np.zeros(n, dtype=complex), DT)
        noise = add_awgn(sig, 1.0, 9).samples
        rotated = np.exp(1j * 0.7) * add_awgn(sig, 1.0, 10).samples
        stat = stats.ks_2samp(noise.real, rotated.real)
        assert stat.pvalue > 0.01

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            add_awgn(random_signal(), -0.1, 0)


class TestComplexNormal:
    def test_one_normal_draw_real_then_imaginary(self):
        # the records depend on this layout of the generator's output
        z = complex_normal(np.random.default_rng(11), 0.5, (3, 4))
        g = np.random.default_rng(11).normal(0, np.sqrt(0.25), size=(3, 4, 2))
        assert z.shape == (3, 4)
        assert np.array_equal(z, g[..., 0] + 1j * g[..., 1])

    def test_awgn_is_complex_normal(self):
        sig = random_signal()
        out = add_awgn(sig, 0.5, 12)
        noise = complex_normal(np.random.default_rng(12), 0.5, (sig.samples.size,))
        assert np.array_equal(out.samples, sig.samples + noise)


class TestTapFactories:
    def test_multipath_total_power(self):
        rng = np.random.default_rng(0)
        taps = random_multipath_taps(rng, 4, 3 * DT, total_power=1.0,
                                     decay=0.1)
        power = sum(abs(g) ** 2 for _, g, _ in taps)
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_multipath_geometric_profile(self):
        rng = np.random.default_rng(1)
        taps = random_multipath_taps(rng, 4, 3 * DT, decay=0.5)
        powers = np.array([abs(g) ** 2 for _, g, _ in taps])
        ratios = powers[1:] / powers[:-1]
        assert np.allclose(ratios, 0.5)

    def test_multipath_delays_span_range(self):
        rng = np.random.default_rng(2)
        taps = random_multipath_taps(rng, 4, 3 * DT)
        delays = [d for d, _, _ in taps]
        assert delays[0] == 0.0
        assert delays[-1] == pytest.approx(3 * DT)

    def test_multipath_doppler_bounded(self):
        rng = np.random.default_rng(3)
        w_max = 2 * np.pi * 0.02
        taps = random_multipath_taps(rng, 4, 3 * DT, max_doppler=w_max)
        assert all(abs(w) <= w_max for _, _, w in taps)

    def test_multipath_rejects_bad_decay(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            random_multipath_taps(rng, 4, 3 * DT, decay=0.0)
