"""Tests for the symbol-level jamming channel analysis tools."""

import math

import numpy as np
import pytest
from scipy import stats

from spofdm.avc import (InputDist, JammingDist, MiEstimate, SymbolChannelSpec,
                        avc_capacity, mi_estimate, saddle_check,
                        simulate_symbol_channel)


class TestDistributions:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InputDist("laplace")

    def test_discrete_needs_points(self):
        with pytest.raises(ValueError):
            InputDist("discrete", points=np.array([]))

    def test_qpsk_power(self):
        dist = InputDist.qpsk(2.0)
        assert dist.power == pytest.approx(2.0)
        assert np.allclose(np.abs(dist.points), math.sqrt(2.0))

    def test_gaussian_sample_power(self):
        rng = np.random.default_rng(0)
        x = InputDist("gaussian", 1.5).sample(rng, 200_000)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.5, rel=0.02)

    def test_none_jamming_is_zero(self):
        rng = np.random.default_rng(1)
        x = JammingDist("none").sample(rng, 100)
        assert np.array_equal(x, np.zeros(100))
        assert JammingDist("none").power == 0.0

    def test_disguised_matches_input_constellation(self):
        jam = JammingDist.disguised(power=1.0)
        sig = InputDist.qpsk(1.0)
        assert np.allclose(np.sort_complex(jam.points),
                           np.sort_complex(sig.points))


class TestSimulate:
    def test_no_jam_no_noise_is_identity(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), noise_power=0.0)
        s, r = simulate_symbol_channel(spec, JammingDist("none"), 1000, 2)
        assert np.array_equal(s, r)

    def test_received_power_budget(self):
        p_s, p_j, p_n = 1.0, 1.0, 0.25
        spec = SymbolChannelSpec(InputDist.qpsk(p_s), p_n)
        s, r = simulate_symbol_channel(spec, JammingDist.disguised(power=p_j),
                                       300_000, 3)
        assert np.mean(np.abs(r) ** 2) == pytest.approx(p_s + p_j + p_n,
                                                        rel=0.02)

    def test_seeded_reproducibility(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), 0.1)
        a = simulate_symbol_channel(spec, JammingDist.disguised(), 100, 4)
        b = simulate_symbol_channel(spec, JammingDist.disguised(), 100, 4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestCapacity:
    def test_closed_form_value(self):
        assert avc_capacity(1.0, 1.0, 1.0) == pytest.approx(
            math.log2(1.5), abs=1e-12)

    def test_awgn_reductions(self):
        assert avc_capacity(1.0, 0.0, 1.0) == pytest.approx(1.0)
        assert avc_capacity(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_infinite_without_disturbance(self):
        assert avc_capacity(1.0, 0.0, 0.0) == math.inf

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            avc_capacity(-1.0, 1.0, 1.0)

    def test_monotone_in_each_power(self):
        grid = [0.5, 1.0, 2.0]
        for p_j in grid:
            for p_n in grid:
                caps = [avc_capacity(p_s, p_j, p_n) for p_s in grid]
                assert caps == sorted(caps)
        for p_s in grid:
            for p_n in grid:
                caps = [avc_capacity(p_s, p_j, p_n) for p_j in grid]
                assert caps == sorted(caps, reverse=True)


class TestSymmetryWitness:
    """Pairwise exchange witness for symmetrizability.

    A jammer that replays constellation symbols confuses the receiver when
    'transmit s, jam with t' and 'transmit t, jam with s' produce the same
    received law (r = s + t + n either way). The secret phase rotates only
    the jamming term, so the two laws separate: one is centered near s, the
    other near t."""

    N = 100_000
    ALPHA = 0.01

    def exchange_pair(self, s, t, phase_order, seed):
        def one(tx, jam_point, sub_seed):
            spec = SymbolChannelSpec(
                InputDist("discrete", points=np.array([tx])),
                noise_power=0.1, phase_order=phase_order)
            jam = JammingDist("discrete", points=np.array([jam_point]))
            _, r = simulate_symbol_channel(spec, jam, self.N, sub_seed)
            return r

        return one(s, t, seed), one(t, s, seed + 1)

    def rejects(self, a, b):
        flags = []
        for dim in (np.real, np.imag):
            p = stats.ks_2samp(dim(a), dim(b)).pvalue
            flags.append(p < self.ALPHA)
        return any(flags)

    def pairs(self):
        points = InputDist.qpsk(1.0).points
        return [(points[i], points[j], 100 * i + 10 * j)
                for i in range(4) for j in range(4) if i != j]

    def test_phase_off_exchange_is_indistinguishable(self):
        for s, t, seed in self.pairs():
            r1, r2 = self.exchange_pair(s, t, None, seed)
            assert not self.rejects(r1, r2)

    def test_phase_on_breaks_exchange_symmetry(self):
        for s, t, seed in self.pairs():
            r1, r2 = self.exchange_pair(s, t, 16, 5000 + seed)
            assert self.rejects(r1, r2)


class TestMiEstimate:
    def test_awgn_calibration(self):
        for snr_db, seed in [(0.0, 30), (3.0, 31), (10.0, 32)]:
            p_s = 10 ** (snr_db / 10)
            spec = SymbolChannelSpec(InputDist("gaussian", p_s),
                                     noise_power=1.0, phase_order=None)
            est = mi_estimate(spec, JammingDist("none"), 100_000, seed)
            assert est.contains(math.log2(1 + p_s))

    def test_phase_on_beats_phase_off_under_disguised_jamming(self):
        jam = JammingDist.disguised(power=1.0)
        on = mi_estimate(SymbolChannelSpec(InputDist.qpsk(), 0.1, 16),
                         jam, 60_000, 40)
        off = mi_estimate(SymbolChannelSpec(InputDist.qpsk(), 0.1, None),
                          jam, 60_000, 41)
        assert on.bits > off.bits
        assert not on.overlaps(off)

    def test_ci_orders_and_brackets_estimate(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), 0.2, 16)
        est = mi_estimate(spec, JammingDist.disguised(), 20_000, 42)
        assert est.ci_low <= est.bits <= est.ci_high
        assert est.n_samples == 20_000

    def test_overlap_helper(self):
        a = MiEstimate(1.0, 0.9, 1.1, 10)
        b = MiEstimate(1.05, 1.0, 1.2, 10)
        c = MiEstimate(2.0, 1.9, 2.1, 10)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


class TestSaddleCheck:
    def test_unit_powers_saddle(self):
        report = saddle_check(1.0, 1.0, 1.0, n_samples=100_000, seed=0)
        assert report.capacity == pytest.approx(math.log2(1.5), abs=1e-12)
        assert report.saddle_mi.contains(report.capacity)
        assert report.all_satisfied
        assert len(report.deviations) == 4
