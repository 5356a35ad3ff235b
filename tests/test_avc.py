"""Tests for the symbol-level jamming channel analysis tools."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spofdm
from spofdm.avc import (InputDist, MiEstimate, SymbolChannelSpec, avc_capacity,
                        mi_estimate, saddle_check, simulate_symbol_channel)
from spofdm.txchain import QPSK

NO_JAMMING = InputDist("gaussian", 0.0)


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
        x = NO_JAMMING.sample(rng, 100)
        assert np.array_equal(x, np.zeros(100))
        assert NO_JAMMING.power == 0.0
        # a zero-power law draws nothing, so later draws keep their place
        assert rng.random() == np.random.default_rng(1).random()

    def test_disguised_matches_input_constellation(self):
        assert np.array_equal(InputDist.qpsk(1.0).points, QPSK)

    @pytest.mark.parametrize("probs, field", [
        ([2.0, -1.0], "probs"),
        ([float("nan"), 1.0], "probs"),
        ([1.0, float("inf")], "probs"),
        ([0.0, 0.0], "probs"),
        ([1.0], "probs"),
        ([0.5, 0.25, 0.25], "probs"),
    ])
    def test_rejects_bad_probs(self, probs, field):
        with pytest.raises(ValueError, match=field):
            InputDist("discrete", points=[1.0, -1.0], probs=probs)

    def test_rejects_non_finite_points(self):
        with pytest.raises(ValueError, match="points"):
            InputDist("discrete", points=[float("nan"), 1.0])

    @pytest.mark.parametrize("field", ["points", "probs"])
    def test_gaussian_rejects_a_discrete_field(self, field):
        # a Gaussian law used to keep the field and ignore it
        with pytest.raises(ValueError, match=f"^{field} "):
            InputDist("gaussian", 1.0, **{field: [1.0, 2.0]})


class TestMixture:
    def test_gaussian_is_one_component_at_zero(self):
        means, logw, var = InputDist("gaussian", 1.5).mixture()
        assert np.array_equal(means, [0j])
        assert np.array_equal(logw, [0.0])
        assert var == 1.5

    def test_discrete_is_its_points_without_variance(self):
        dist = InputDist("discrete", points=np.array([1.0, -1.0]),
                         probs=np.array([1.0, 3.0]))
        means, logw, var = dist.mixture()
        assert np.array_equal(means, dist.points)
        assert np.allclose(np.exp(logw), [0.25, 0.75])
        assert var == 0.0

    def test_zero_weight_points_are_left_out(self):
        dist = InputDist("discrete", points=[1.0, -1.0], probs=[1.0, 0.0])
        means, logw, _ = dist.mixture()
        assert np.array_equal(means, [1.0])
        assert np.array_equal(logw, [0.0])
        # sampling still sees every point, so the rng draws do not move
        assert dist.points.size == 2


class TestSimulate:
    def test_no_jam_no_noise_is_identity(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), noise_power=0.0)
        s, r = simulate_symbol_channel(spec, NO_JAMMING, 1000, 2)
        assert np.array_equal(s, r)

    def test_received_power_budget(self):
        p_s, p_j, p_n = 1.0, 1.0, 0.25
        spec = SymbolChannelSpec(InputDist.qpsk(p_s), p_n)
        s, r = simulate_symbol_channel(spec, InputDist.qpsk(p_j), 300_000, 3)
        assert np.mean(np.abs(r) ** 2) == pytest.approx(p_s + p_j + p_n,
                                                        rel=0.02)

    def test_seeded_reproducibility(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), 0.1)
        a = simulate_symbol_channel(spec, InputDist.qpsk(), 100, 4)
        b = simulate_symbol_channel(spec, InputDist.qpsk(), 100, 4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_spec_accepts_numpy_phase_order(self):
        assert SymbolChannelSpec(phase_order=np.int64(4)).phase_order == 4


class TestCapacity:
    def test_closed_form_value(self):
        assert avc_capacity(1.0, 1.0, 1.0) == pytest.approx(
            math.log2(1.5), abs=1e-12)

    def test_awgn_reductions(self):
        assert avc_capacity(1.0, 0.0, 1.0) == pytest.approx(1.0)
        assert avc_capacity(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_infinite_without_disturbance(self):
        assert avc_capacity(1.0, 0.0, 0.0) == math.inf

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


class TestMiEstimate:
    def test_awgn_calibration(self):
        for snr_db, seed in [(0.0, 30), (3.0, 31), (10.0, 32)]:
            p_s = 10 ** (snr_db / 10)
            spec = SymbolChannelSpec(InputDist("gaussian", p_s),
                                     noise_power=1.0, phase_order=1)
            est = mi_estimate(spec, NO_JAMMING, 100_000, seed)
            assert est.contains(math.log2(1 + p_s))

    def test_phase_on_beats_phase_off_under_disguised_jamming(self):
        jam = InputDist.qpsk(1.0)
        on = mi_estimate(SymbolChannelSpec(InputDist.qpsk(), 0.1, 16),
                         jam, 60_000, 40)
        off = mi_estimate(SymbolChannelSpec(InputDist.qpsk(), 0.1, 1),
                          jam, 60_000, 41)
        assert on.bits > off.bits
        assert not on.overlaps(off)

    def test_ci_orders_and_brackets_estimate(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), 0.2, 16)
        est = mi_estimate(spec, InputDist.qpsk(), 20_000, 42)
        assert est.ci_low <= est.bits <= est.ci_high
        assert est.n_samples == 20_000

    @pytest.mark.parametrize("p_s", [1.0, 10.0])
    def test_ci_covers_capacity_at_95_percent(self, p_s):
        # Gaussian input and jammer with M = 1 is the closed-form channel;
        # 0.95 +- 4 binomial sigmas over 1,000 intervals is [0.922, 0.978]
        spec = SymbolChannelSpec(InputDist("gaussian", p_s), 1.0, 1)
        jam = InputDist("gaussian", 1.0)
        cap = avc_capacity(p_s, 1.0, 1.0)
        rng = np.random.default_rng(int(p_s))
        hits = sum(mi_estimate(spec, jam, 2000, rng).contains(cap)
                   for _ in range(1000))
        assert 0.922 <= hits / 1000 <= 0.978

    def test_draws_only_the_channel_samples(self):
        spec = SymbolChannelSpec(InputDist.qpsk(), 0.2, 16)
        jam = InputDist.qpsk(0.8)
        after_mi = np.random.default_rng(7)
        mi_estimate(spec, jam, 500, after_mi)
        after_sim = np.random.default_rng(7)
        simulate_symbol_channel(spec, jam, 500, after_sim)
        assert after_mi.bit_generator.state == after_sim.bit_generator.state

    def test_one_sample_has_a_zero_width_ci(self):
        est = mi_estimate(SymbolChannelSpec(), InputDist.qpsk(), 1, 3)
        assert est.ci_low == est.bits == est.ci_high

    def test_rejects_zero_gaussian_variance(self):
        # and variances whose deviation the rounding of r - mean swamps:
        # these gave 1.852 bits at 1e-31 (1.828 at 1e-28), 6.4e67 bits at
        # 1e-100 and 6.4e267 bits with CI (-inf, inf) at 1e-300
        point = InputDist("discrete", points=[1])
        for noise_power, jamming in ((0.0, InputDist.qpsk()), (1e-31, point),
                                     (1e-100, point), (1e-300, point)):
            spec = SymbolChannelSpec(InputDist.qpsk(), noise_power=noise_power)
            with pytest.raises(ValueError, match="noise_power"):
                mi_estimate(spec, jamming, 100, 0)

    def test_zero_weight_jamming_point_is_no_point(self):
        # log(0) weights used to warn (an error here) and poison the sums
        spec = SymbolChannelSpec()
        zero = InputDist("discrete", points=[1.0, -1.0], probs=[1.0, 0.0])
        one = InputDist("discrete", points=[1.0])
        est = mi_estimate(spec, zero, 1000, 0)
        assert est == mi_estimate(spec, one, 1000, 0)
        assert est.bits == 1.2160628926293429

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

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 1.0, 1.0), "p_s"), ((1.0, -1.0, 1.0), "p_j"),
        ((1.0, 1.0, math.inf), "p_n"), ((1.0, 1.0, -1.0), "p_n"),
        ((1.0, 1.0, 0.0), "p_n"), ((1.0, 0.0, 0.0), "p_n")])
    def test_rejects_bad_power_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            saddle_check(*args, n_samples=10)


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(spofdm.__file__).parents[1])}
    code = ("import sys, spofdm.avc; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# (input, jamming, phase order) -> (bits, ci_low, ci_high) of
# mi_estimate(..., 2000, seed=5) with noise power 0.2; pins every float
PINNED_MI = {
    ("gaussian", "none", 1): (2.5476965132713247, 2.467709619665991, 2.6276834068766584),
    ("gaussian", "none", 16): (2.5863290591774866, 2.50601561765578, 2.666642500699193),
    ("gaussian", "gaussian", 1): (1.2205459628710555, 1.1520051831234785, 1.2890867426186325),
    ("gaussian", "gaussian", 16): (1.2712514813547622, 1.2041898188002425, 1.338313143909282),
    ("gaussian", "disguised", 1): (1.463875296194359, 1.3933375216210926, 1.5344130707676256),
    ("gaussian", "disguised", 16): (1.2582916019896244, 1.1950568979507734, 1.3215263060284754),
    ("qpsk", "none", 1): (1.887209007751384, 1.8620299610340882, 1.9123880544686795),
    ("qpsk", "none", 16): (1.8939934635261755, 1.8694462508666763, 1.9185406761856747),
    ("qpsk", "gaussian", 1): (1.192749210608122, 1.1409835835629074, 1.2445148376533364),
    ("qpsk", "gaussian", 16): (1.2005643993280772, 1.1483094627523005, 1.252819335903854),
    ("qpsk", "disguised", 1): (1.0091004812300564, 0.9716127111483263, 1.0465882513117866),
    ("qpsk", "disguised", 16): (1.0567794269846589, 1.014427150646134, 1.0991317033231838),
}


@pytest.mark.parametrize("case", sorted(PINNED_MI, key=str))
def test_mi_estimate_pinned(case):
    inputs = {"gaussian": InputDist("gaussian", 1.0), "qpsk": InputDist.qpsk(1.0)}
    jammers = {"none": NO_JAMMING, "gaussian": InputDist("gaussian", 0.5),
               "disguised": InputDist.qpsk(0.8)}
    input_kind, jam_kind, phase_order = case
    est = mi_estimate(SymbolChannelSpec(inputs[input_kind], 0.2, phase_order),
                      jammers[jam_kind], 2000, 5)
    assert (est.bits, est.ci_low, est.ci_high) == PINNED_MI[case]
