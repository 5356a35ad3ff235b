"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with pytest -s or in the captured
output of a failing run).
"""

import math

import numpy as np
import pytest
from scipy import stats

from spofdm.avc import (InputDist, SymbolChannelSpec, avc_capacity,
                        saddle_check, simulate_symbol_channel)
from spofdm.harness import (correlation_surface, run_ber_experiment,
                            run_sync_experiment, table1_scenario)
from spofdm.keystream import phase_plans, psk_phasors
from spofdm.sync import demod_fft
from spofdm.txchain import (build_waveform, decode_phases, modulate_block,
                            random_symbol_blocks)
from support import (AESAVS, CONFIG, KEY, aesavs_row_matches, plan_phasors,
                     psk_exp, sha256, table_phasors, v_expected)


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nacceptance {num} ({name}): {status}{suffix}")
    assert ok, f"acceptance criterion {num} ({name}) failed{suffix}"


class TestCriterion1Capacity:
    def test_closed_form_and_monotonicity(self):
        exact = abs(avc_capacity(1.0, 1.0, 1.0) - math.log2(1.5)) < 1e-12
        grid = [0.5, 1.0, 2.0]
        monotone = True
        for p_j in grid:
            for p_n in grid:
                caps = [avc_capacity(p_s, p_j, p_n) for p_s in grid]
                monotone &= caps == sorted(caps)
        for p_s in grid:
            for p_n in grid:
                caps = [avc_capacity(p_s, p_j, p_n) for p_j in grid]
                monotone &= caps == sorted(caps, reverse=True)
        for p_s in grid:
            for p_j in grid:
                caps = [avc_capacity(p_s, p_j, p_n) for p_n in grid]
                monotone &= caps == sorted(caps, reverse=True)
        _verdict(1, "capacity closed form", exact and monotone,
                 f"value={avc_capacity(1.0, 1.0, 1.0):.12f}")


class TestCriterion2SymmetryWitness:
    N = 100_000
    ALPHA = 0.01

    def _exchange(self, s, t, phase_order, seed):
        def one(tx, jam_point, sub_seed):
            spec = SymbolChannelSpec(
                InputDist("discrete", points=np.array([tx])),
                noise_power=0.1, phase_order=phase_order)
            jam = InputDist("discrete", points=np.array([jam_point]))
            _, r = simulate_symbol_channel(spec, jam, self.N, sub_seed)
            return r

        return one(s, t, seed), one(t, s, seed + 1)

    def _rejects(self, a, b):
        return any(stats.ks_2samp(dim(a), dim(b)).pvalue < self.ALPHA
                   for dim in (np.real, np.imag))

    def test_witness(self):
        points = InputDist.qpsk(1.0).points
        pairs = [(points[i], points[j], 100 * i + 10 * j)
                 for i in range(4) for j in range(4) if i != j]
        off_ok = all(not self._rejects(*self._exchange(s, t, 1, seed))
                     for s, t, seed in pairs)
        on_ok = all(self._rejects(*self._exchange(s, t, 16, 7000 + seed))
                    for s, t, seed in pairs)
        _verdict(2, "symmetry witness", off_ok and on_ok,
                 f"off indistinguishable={off_ok} on rejects={on_ok}")


class TestCriterion3CorrelationShape:
    def test_shape_and_off_candidates(self):
        scenario = table1_scenario(sync_blocks=1000)
        result = correlation_surface(scenario, n_trials=1)
        surf = result["surface"]
        config = scenario.ofdm_config()
        dt = config.sample_interval
        off = result["signal_offset_samples"]
        k0_col = int(np.flatnonzero(result["candidates"] == result["k0"])[0])

        tau = np.arange(config.block_samples)
        half = config.block_samples // 2
        delta = (((tau - config.cp_samples - off + half) % config.block_samples)
                 - half) * dt
        expected = config.sample_power * v_expected(
            delta, config.cp1_samples * dt)
        peak = expected.max()
        shape_dev = np.max(np.abs(surf[:, k0_col] - expected)) / peak

        # wrong-candidate response at the aligned offset: the mean over
        # the 49 wrong sequences is the stable statistic; the max of that
        # many noise magnitudes concentrates near sqrt(ln 49 / K) of the
        # peak (about 6% at K = 1000) and is reported but not asserted
        peak_tau = int(np.argmax(surf[:, k0_col]))
        measured_peak = surf[peak_tau, k0_col]
        others = np.delete(np.arange(surf.shape[1]), k0_col)
        fractions = surf[peak_tau, others] / measured_peak
        ok = shape_dev < 0.10 and fractions.mean() < 0.05
        _verdict(3, "correlation shape", ok,
                 f"shape_dev={shape_dev:.3f} off_mean={fractions.mean():.3f} "
                 f"off_max={fractions.max():.3f}")


class TestCriterion4TwoPeaks:
    def test_traditional_vs_precoded(self):
        trad = correlation_surface(
            table1_scenario(sync_blocks=25, psk_order=1, n_candidates=1),
            n_trials=100)
        block = 152
        sig_tau = (trad["signal_offset_samples"] + 24) % block
        jam_tau = (trad["jammer_offset_samples"] + 24) % block
        ratio = trad["surface"][jam_tau] / trad["surface"][sig_tau]

        sp = correlation_surface(table1_scenario(sync_blocks=40), n_trials=100)
        jam_tau_sp = (sp["jammer_offset_samples"] + 24) % block
        jam_peak = sp["surface"][jam_tau_sp, :].max()
        global_peak = sp["surface"].max()
        sp_ratio = jam_peak / global_peak

        ok = 0.8 <= ratio <= 1.25 and sp_ratio < 0.20
        _verdict(4, "two-peak demonstration", ok,
                 f"traditional_ratio={ratio:.3f} precoded_ratio={sp_ratio:.3f}")


class TestCriterion5SyncCdfs:
    @pytest.fixture(scope="class")
    def reports(self):
        # the 1,500 trials run once, for the verdict and the digests
        return [
            run_sync_experiment(table1_scenario(trials=500, sync_blocks=25)),
            run_sync_experiment(
                table1_scenario(trials=500, sync_blocks=25,
                                channel="multipath", master_seed=1)),
            run_sync_experiment(
                table1_scenario(trials=500, sync_blocks=30, channel="doppler",
                                max_doppler_normalized=0.02, master_seed=2)),
        ]

    def test_three_channels(self, reports):
        details = []
        ok = True
        awgn, multi, dopp = reports

        t_frac = awgn.aggregates["time_cdf"]["lt_0.01"]
        f_frac = awgn.aggregates["freq_cdf"]["lt_0.04"]
        ok &= t_frac >= 0.96 and f_frac >= 0.95
        details.append(f"awgn t<0.01:{t_frac:.3f} f<0.04:{f_frac:.3f}")

        t_frac = multi.aggregates["time_cdf"]["lt_0.02"]
        f_frac = multi.aggregates["freq_cdf"]["lt_0.04"]
        ok &= t_frac >= 0.95 and f_frac >= 0.935
        details.append(f"multipath t<0.02:{t_frac:.3f} f<0.04:{f_frac:.3f}")

        t_frac = dopp.aggregates["time_cdf"]["lt_0.02"]
        f_frac = dopp.aggregates["freq_cdf"]["lt_0.04"]
        ok &= t_frac >= 0.95 and f_frac >= 0.935
        details.append(f"doppler t<0.02:{t_frac:.3f} f<0.04:{f_frac:.3f}")

        _verdict(5, "sync error CDFs", ok, " ".join(details))

    @pytest.mark.blas_kernel
    def test_records_digests(self, reports):
        # the records themselves, so a speed-up that moves any trial shows
        digests = [sha256(report.records_csv()) for report in reports]
        assert digests == [
            "2e45478130de41eeee9ee46864aba5431924f894f455936837854cf704c73426",
            "40bff41095d88b1681476aefbbc28644a0aa06a313a7539a4eb5e7582169c1d9",
            "d1c3b0965720a94810a68798724331108e8e10dac8298b542fa545746909f577",
        ]


class TestCriterion6BerDirection:
    def test_coded_ber(self):
        scenario = table1_scenario()
        details = []

        off = run_ber_experiment(table1_scenario(psk_order=1, n_candidates=1),
                                 ["1_4", "1_3", "1_2"], [9.0, 12.0, 15.0],
                                 target_errors=100, max_codewords=50)
        off_ok = all(r["ber"] > 1e-2 for r in off.records)
        details.append(f"off_min_ber={min(r['ber'] for r in off.records):.3g}")

        bers = {}
        for rate, n_cw in [("1_2", 100), ("1_3", 1600), ("1_4", 3000)]:
            rep = run_ber_experiment(scenario, [rate], [15.0],
                                     target_errors=300, max_codewords=n_cw)
            bers[rate] = rep.records[0]["ber"]
        on_ok = bers["1_2"] > bers["1_3"] > bers["1_4"] and bers["1_4"] < 1e-4
        details.append("on_ber " + " ".join(f"{r}:{bers[r]:.3g}"
                                            for r in ("1_2", "1_3", "1_4")))

        rician = run_ber_experiment(scenario, ["1_3"], [15.0],
                                    rician_k0_db_list=[3.0, 6.0, 10.0],
                                    target_errors=10 ** 9, max_codewords=600)
        r_bers = [r["ber"] for r in rician.records]
        rician_ok = r_bers[0] > r_bers[1] > r_bers[2]
        details.append("rician " + " ".join(f"{b:.3g}" for b in r_bers))

        _verdict(6, "coded BER direction", off_ok and on_ok and rician_ok,
                 " ".join(details))


class TestCriterion7Saddle:
    def test_saddle_point(self):
        report = saddle_check(1.0, 1.0, 1.0, n_samples=200_000, seed=0)
        contains = report.saddle_mi.contains(math.log2(1.5))
        ok = contains and report.all_satisfied
        _verdict(7, "MI saddle point", ok,
                 f"mi={report.saddle_mi.bits:.4f} "
                 f"ci=[{report.saddle_mi.ci_low:.4f},"
                 f"{report.saddle_mi.ci_high:.4f}] "
                 f"deviations_ok={report.all_satisfied}")


class TestCriterion8Exactness:
    def test_exactness_suite(self):
        rng = np.random.default_rng(0)
        checks = {}

        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        c = psk_exp(3, 16)
        sig = modulate_block(precoded, c, CONFIG).samples
        body = sig[24:]
        checks["cp_structure"] = (
            np.array_equal(sig[16:24], body[-8:])
            and np.max(np.abs(sig[:16] - c * body[-24:-8])) < 1e-12)

        # the package's phasor table out, the PSK formula on the plans back
        blocks = random_symbol_blocks(rng, 2, CONFIG)
        wave = build_waveform(blocks, table_phasors(0, 2), CONFIG)
        round_ok = True
        for k, block in enumerate(blocks):
            phases = plan_phasors(k, 1)[0, 1:]
            start = k * CONFIG.block_samples + CONFIG.cp_samples
            decoded = decode_phases(
                demod_fft(wave, start, CONFIG), phases)
            round_ok &= bool(np.max(np.abs(decoded - block)) < 1e-9)
        checks["fft_round_trip"] = round_ok

        a = phase_plans(KEY, 2, 5, 1, 128, 16)
        b = psk_phasors(16)[a]
        checks["keystream_determinism"] = (
            np.array_equal(a, phase_plans(KEY, 2, 5, 1, 128, 16))
            and b.tobytes() == psk_exp(a, 16).tobytes())

        checks["aes_known_answer"] = all(
            aesavs_row_matches(*vector[1:]) for vector in AESAVS)

        n = 100_000
        g = rng.normal(0, np.sqrt(0.5), (2, n, 2))
        noise = g[:, :, 0] + 1j * g[:, :, 1]
        rotated = np.exp(1j * 0.7) * noise[1]
        checks["noise_rotation_invariance"] = (
            stats.ks_2samp(noise[0].real, rotated.real).pvalue > 0.01)

        ok = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        _verdict(8, "exactness suite", ok,
                 "all checks passed" if ok else f"failed: {failed}")
