"""Run one benchmark workload in this process and print its result.

Started by ``run.py``, one process per workload, with BLAS/OpenMP threads
pinned to 1. The process is a closed loop with a single caller: it calls the
``spofdm.harness`` experiment functions (and ``avc.saddle_check``) round after
round until the measuring time is up, then checks the outputs against the
acceptance-criterion tolerances. Round ``r`` of seed ``s`` always gets the
same inputs, so a fixed round count gives a fixed records digest.

Times are in reference seconds. Around every timed call the worker times a
fixed reference kernel (numpy and interpreter work that no change to spofdm
can speed up); the call's wall time is multiplied by the machine speed the
kernel shows, its rate over ``REF_HZ``, averaged over the two ends of the
call. Shared hosts drift by tens of percent within minutes; the ratio to the
kernel drifts far less, so runs minutes apart stay comparable. The
wall-clock figures are reported next to them.

The last line of standard output is one JSON object with ``setup_s`` (from
the launch time passed by ``run.py`` to the end of set-up), the attempted
and failed operation counts, the check verdicts, the records digest and the
metrics. The exit code is 1 when a check failed or an operation failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# work per round; "tiny" is for the benchmark's own tests
SCALES = {
    "full": {"sync_trials": 10, "conv_cw": 150, "sat_cw": 50,
             "sp_trials": 10, "plain_trials": 10, "mi_samples": 20_000},
    "tiny": {"sync_trials": 2, "conv_cw": 5, "sat_cw": 5,
             "sp_trials": 2, "plain_trials": 2, "mi_samples": 2_000},
}

# criterion 5, per channel: scenario overrides, time tolerance (in blocks),
# least fraction within it, least fraction with freq error < FREQ_TOL
SYNC_SETTINGS = {
    "awgn": ({}, 0.01, 0.96, 0.95),
    "multipath": ({"channel": "multipath"}, 0.02, 0.95, 0.935),
    "doppler": ({"channel": "doppler", "max_doppler_normalized": 0.02,
                 "sync_blocks": 30}, 0.02, 0.95, 0.935),
}
FREQ_TOL = 0.04
# A fraction check fails only when the fraction's upper confidence bound at
# this many standard errors (Wilson score) is below the criterion, so a
# correct program fails it with probability about 3e-5 at any trial count.
CHECK_Z = 4.0
# criterion 6: BER with precoding on stays below this, with it off above it
BER_SPLIT = 1e-2
# criterion 4: range of the classical jammer-to-signal peak ratio
PLAIN_RATIO = (0.8, 1.25)
# criterion 7 asks for the 95% bootstrap CI to contain log2(1.5); a 95% CI
# misses one seed in twenty, so the check allows this many standard errors
# of the run's pooled estimate
SADDLE_SIGMAS = 5.0

# reference kernel runs per reference second; the machine speed it gives
# read between 1 and 2.2 on the 2-core Xeon host the benchmark was written
# on, as other tenants came and went
REF_HZ = 260.0

# descriptive name and unit of each workload's two throughputs
ALIASES = {
    "sync_cdf": {"ops_per_s": ("sync_trials_per_s", "trials/s"),
                 "alt_ops_per_s": ("sync_fading_trials_per_s", "trials/s")},
    "ber_ldpc": {"ops_per_s": ("bp_converging_cw_per_s", "codewords/s"),
                 "alt_ops_per_s": ("bp_saturated_cw_per_s", "codewords/s")},
    "analysis": {"ops_per_s": ("surface_trials_per_s", "trials/s"),
                 "alt_ops_per_s": ("mi_samples_per_s", "samples/s")},
}


def import_spofdm():
    """Import spofdm from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spofdm

    if Path(spofdm.__file__).resolve().parent != src / "spofdm":
        raise SystemExit(f"spofdm imported from {spofdm.__file__}, not {src}")
    return spofdm


@functools.cache
def _reference_data() -> tuple:
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.normal(size=150_000)
    return (rng.normal(size=(64, 64)), np.exp(2j * np.pi * rng.random(4096)),
            big, rng.permutation(big.size))


def machine_speed() -> float:
    """Reference kernel rate over REF_HZ, best of two runs of about 3 ms.

    The kernel mixes the kinds of work spofdm does: small numpy calls
    dominated by interpreter overhead, an FFT, and passes over a
    megabyte-sized array with a random gather, as in BP decoding. The best
    run is the one least disturbed by interrupts, so it follows the
    machine's speed rather than momentary noise.
    """
    import numpy as np

    a, z, big, perm = _reference_data()
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(10):
            a @ a
            np.tanh(a).sum()
            np.fft.fft(z)
        np.tanh(big)[perm].sum()
        x = 0
        for i in range(10_000):
            x += i
        best = min(best, time.perf_counter() - start)
    return 1.0 / (best * REF_HZ)


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r; the three sync channels add 0, 1 and 2."""
    return 4 * ((seed << 20) + r)


def wilson_upper(successes: int, n: int, z: float = CHECK_Z) -> float:
    if n == 0:
        return 0.0
    p = successes / n
    centre = p + z * z / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (centre + spread) / (1 + z * z / n)


class Workload:
    """Counters, timings, checks and digest shared by the three workloads.

    A subclass sets up in ``setup`` and runs round ``r`` in ``step``; each
    timed call goes through ``call``, which counts its operations and
    records an exception as the failure of all of them.
    """

    def __init__(self, seed: int, scale: dict):
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        # (work, reference seconds) of each timed measurement, per metric
        self.timed = {"ops_per_s": [], "alt_ops_per_s": []}
        self.checks = {}   # name -> [calls, failures, first failure detail]
        self.digest = hashlib.sha256()
        self.tracer = None
        self.quality = {}
        self.speed = None          # machine speed at the end of the last call
        self.wall_s = self.ref_s = 0.0

    def call(self, what: str, ops: int, fn, *args, **kwargs):
        """Timed call; returns (result, reference seconds), or (None, 0) if
        it raised."""
        self.attempted += ops
        before = self.speed if self.speed is not None else machine_speed()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the operations fail, the run goes on
            print(f"{self.name}: {what}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed += ops
            self.speed = None
            return None, 0.0
        wall = time.perf_counter() - start
        self.speed = machine_speed()
        ref = wall * (before + self.speed) / 2
        self.wall_s += wall
        self.ref_s += ref
        return result, ref

    def check(self, name: str, ok: bool, detail: str, ops: int) -> None:
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail
            self.failed += ops

    def check_list(self) -> list:
        return [{"name": f"{self.name}.{name}", "ok": failures == 0,
                 "calls": calls, "detail": detail}
                for name, (calls, failures, detail) in self.checks.items()]


class SyncCdf(Workload):
    """Criterion-5 sync CDFs: AWGN, multipath and Doppler in equal shares."""

    name = "sync_cdf"

    def setup(self):
        from spofdm import harness

        self.harness = harness
        self.scenarios = {
            channel: harness.table1_scenario(
                trials=self.scale["sync_trials"], **{"sync_blocks": 25,
                                                     **overrides})
            for channel, (overrides, *_) in SYNC_SETTINGS.items()}
        self.records = {channel: [] for channel in SYNC_SETTINGS}
        for scenario in self.scenarios.values():
            harness.run_sync_experiment(replace(scenario, trials=1))

    def step(self, r):
        n = self.scale["sync_trials"]
        seconds = {}
        for i, (channel, scenario) in enumerate(self.scenarios.items()):
            scenario = replace(scenario, master_seed=round_seed(self.seed, r) + i)
            report, seconds[channel] = self.call(
                f"round {r} {channel}", n, self.harness.run_sync_experiment,
                scenario)
            if report is None:
                self.records[channel].extend([None] * n)
                continue
            self.digest.update(report.records_csv().encode())
            self.records[channel].extend(report.records)
            self.failed += sum(rec["error"] is not None for rec in report.records)
            if self.tracer is not None:
                self.tracer.sync_records.extend(report.records)
        if all(seconds.values()):
            self.timed["ops_per_s"].append((3 * n, sum(seconds.values())))
            self.timed["alt_ops_per_s"].append(
                (2 * n, seconds["multipath"] + seconds["doppler"]))

    def finish(self):
        total = time_ok = freq_ok = both_ok = 0
        for channel, (_, t_tol, t_min, f_min) in SYNC_SETTINGS.items():
            recs = self.records[channel]
            # a trial that failed or was never run counts against, as in
            # the harness CDFs
            t = sum(rec is not None and rec["time_error"] < t_tol for rec in recs)
            f = sum(rec is not None and rec["freq_error"] < FREQ_TOL
                    for rec in recs)
            b = sum(rec is not None and rec["time_error"] < t_tol
                    and rec["freq_error"] < FREQ_TOL for rec in recs)
            n = len(recs)
            total, time_ok, freq_ok, both_ok = (
                total + n, time_ok + t, freq_ok + f, both_ok + b)
            self.check(channel, wilson_upper(t, n) >= t_min
                       and wilson_upper(f, n) >= f_min,
                       f"time<{t_tol}: {t}/{n} (criterion {t_min}), "
                       f"freq<{FREQ_TOL}: {f}/{n} (criterion {f_min})", n)
        self.quality = {"sync_time_ok_frac": time_ok / total,
                        "sync_freq_ok_frac": freq_ok / total}
        return both_ok / total


class BerLdpc(Workload):
    """Criterion-6 BER points at SJR 0 dB, SNR 15 dB: rate 1/3 precoded (BP
    converges early) and rate 1/2 unprecoded (every frame runs all
    iterations and fails)."""

    name = "ber_ldpc"
    # label, rate, precoding, codewords per round, rate metric
    POINTS = (("converging", "1_3", True, "conv_cw", "ops_per_s"),
              ("saturated", "1_2", False, "sat_cw", "alt_ops_per_s"))

    def setup(self):
        from spofdm import harness

        self.harness = harness
        self.scenario = harness.table1_scenario()
        self.errors = {label: [0, 0] for label, *_ in self.POINTS}
        self.codewords = {label: 0 for label, *_ in self.POINTS}
        # the first call per rate loads the alist and runs GF(2) elimination
        for _, rate, precoding, *_ in self.POINTS:
            harness.run_ber_experiment(self.scenario, [rate], [15.0],
                                       precoding=precoding, max_codewords=1)

    def step(self, r):
        scenario = replace(self.scenario, master_seed=round_seed(self.seed, r))
        for label, rate, precoding, size, metric in self.POINTS:
            n = self.scale[size]
            self.codewords[label] += n
            if self.tracer is not None:
                self.tracer.set_phase(label)
                self.tracer.point_ops[label] = (
                    self.tracer.point_ops.get(label, 0) + n)
            report, seconds = self.call(
                f"round {r} {label}", n, self.harness.run_ber_experiment,
                scenario, [rate], [15.0], precoding=precoding,
                target_errors=math.inf, max_codewords=n)
            if report is None:
                continue
            rec = report.records[0]
            self.digest.update(report.records_csv().encode())
            self.errors[label][0] += rec["bit_errors"]
            self.errors[label][1] += rec["bits"]
            self.timed[metric].append((rec["codewords"], seconds))
        if self.tracer is not None:
            self.tracer.set_phase("")

    def finish(self):
        ber = {label: (e / b if b else 1.0)
               for label, (e, b) in self.errors.items()}
        self.check("converging", ber["converging"] < BER_SPLIT,
                   f"rate 1/3 precoded BER {ber['converging']:.3g}, "
                   f"criterion < {BER_SPLIT}", self.codewords["converging"])
        self.check("saturated", ber["saturated"] > BER_SPLIT,
                   f"rate 1/2 unprecoded BER {ber['saturated']:.3g}, "
                   f"criterion > {BER_SPLIT}", self.codewords["saturated"])
        self.quality = {"ber_precoded": ber["converging"],
                        "ber_saturated": ber["saturated"]}
        return 1.0 - ber["converging"]


class Analysis(Workload):
    """Criterion-3/4 correlation surfaces (precoded K=40, classical K=25)
    and the criterion-7 saddle-point check."""

    name = "analysis"

    def setup(self):
        from spofdm import avc, harness

        self.harness = harness
        self.avc = avc
        self.precoded = harness.table1_scenario(sync_blocks=40)
        self.classical = harness.table1_scenario(sync_blocks=25)
        config = self.precoded.ofdm_config()
        self.block, self.cp = config.block_samples, config.cp_samples
        self.cp2 = config.cp2_samples
        self.rejection = []
        self.saddle_calls = []  # per call: name -> (side, MI, standard error)
        harness.correlation_surface(self.precoded, precoding=True, n_trials=1)
        harness.correlation_surface(self.classical, precoding=False,
                                    n_trials=1)
        avc.saddle_check(1.0, 1.0, 1.0, n_samples=1_000)

    def _tau(self, offset: int) -> int:
        return (offset + self.cp) % self.block

    def step(self, r):
        import numpy as np

        seed = round_seed(self.seed, r)
        n_sp, n_plain = self.scale["sp_trials"], self.scale["plain_trials"]
        sp, t_sp = self.call(f"round {r} precoded surface", n_sp,
                             self.harness.correlation_surface,
                             replace(self.precoded, master_seed=seed),
                             precoding=True, n_trials=n_sp)
        plain, t_plain = self.call(f"round {r} classical surface", n_plain,
                                   self.harness.correlation_surface,
                                   replace(self.classical, master_seed=seed),
                                   precoding=False, n_trials=n_plain)
        if sp is not None and plain is not None:
            self.timed["ops_per_s"].append((n_sp + n_plain, t_sp + t_plain))
        if sp is not None:
            surf = sp["surface"]
            self.digest.update(np.ascontiguousarray(surf).tobytes())
            sig = sp["signal_offset_samples"]
            # a window past the block edge sees the previous block, whose
            # secret CP phase sits one candidate lower
            d_true = sp["k0"] - (sig + self.cp) // self.block
            if d_true in sp["candidates"]:
                want = (self._tau(sig),
                        int(np.flatnonzero(sp["candidates"] == d_true)[0]))
                got = tuple(int(v) for v in
                            np.unravel_index(np.argmax(surf), surf.shape))
                self.check("precoded_peak", got == want,
                           f"round {r}: peak {got}, true cell {want}", n_sp)
            jam = self._tau(sp["jammer_offset_samples"])
            self.rejection.append(1.0 - surf[jam].max() / surf.max())
        if plain is not None:
            p = plain["surface"]
            self.digest.update(np.ascontiguousarray(p).tobytes())
            sig = self._tau(plain["signal_offset_samples"])
            jam = self._tau(plain["jammer_offset_samples"])
            ratio = p[jam] / p[sig]
            # with a plain CP the correlation is flat while the window
            # stays inside CP1+CP2, so each peak is a plateau of cp2 samples
            peak = int(np.argmax(p))
            on_plateau = any((peak - start) % self.block <= self.cp2
                             for start in (sig, jam))
            self.check("classical_two_peaks",
                       on_plateau and PLAIN_RATIO[0] <= ratio <= PLAIN_RATIO[1],
                       f"round {r}: argmax {peak}, signal {sig}, "
                       f"jammer {jam}, ratio {ratio:.3f}", n_plain)

        n_mi = self.scale["mi_samples"]
        report, t_mi = self.call(f"round {r} saddle", 1, self.avc.saddle_check,
                                 1.0, 1.0, 1.0, n_samples=n_mi, seed=seed)
        if report is None:
            return
        mi = report.saddle_mi
        self.digest.update(repr((mi.bits, mi.ci_low, mi.ci_high,
                                 [d.mi.bits for d in report.deviations])).encode())
        self.saddle_calls.append({"saddle": ("saddle", *_bits_se(mi)), **{
            d.name: (d.side, *_bits_se(d.mi)) for d in report.deviations}})
        # saddle_check runs one MI estimate plus one per deviation
        self.timed["alt_ops_per_s"].append(
            (n_mi * (1 + len(report.deviations)), t_mi))

    def finish(self):
        self._check_saddle()
        return statistics.fmean(self.rejection) if self.rejection else 0.0

    def _check_saddle(self):
        """Criterion 7 on the run's saddle checks pooled into one.

        Every call has the same sample count, so the pooled estimate is the
        mean and its standard error shrinks with the number of calls; the
        deviation rule is avc.saddle_check's, on the pooled 95% intervals.
        """
        calls = self.saddle_calls
        if not calls:
            return

        def pooled(name):
            side = calls[0][name][0]
            bits = statistics.fmean(c[name][1] for c in calls)
            se = math.sqrt(sum(c[name][2] ** 2 for c in calls)) / len(calls)
            return side, bits, bits - 1.96 * se, bits + 1.96 * se, se

        _, mi, lo, hi, se = pooled("saddle")
        target = math.log2(1.5)
        self.check("saddle_mi", abs(mi - target) <= SADDLE_SIGMAS * se,
                   f"pooled MI {mi:.4f} (se {se:.4f}) over {len(calls)} "
                   f"calls, log2(1.5) = {target:.4f}", len(calls))
        for name in calls[0]:
            if name == "saddle":
                continue
            side, bits, d_lo, d_hi, _ = pooled(name)
            beats = bits <= hi if side == "input" else bits >= lo
            self.check("saddle_deviations", beats or (d_lo <= hi and lo <= d_hi),
                       f"{side} deviation {name}: MI {bits:.4f} against the "
                       f"saddle's [{lo:.4f}, {hi:.4f}]", len(calls))


def _bits_se(mi) -> tuple:
    """Estimate and standard error from an MiEstimate's 95% interval."""
    return mi.bits, (mi.ci_high - mi.ci_low) / (2 * 1.96)


WORKLOADS = {cls.name: cls for cls in (SyncCdf, BerLdpc, Analysis)}


def setup_workload(name: str, seed: int, scale: str) -> Workload:
    import_spofdm()
    workload = WORKLOADS[name](seed, SCALES[scale])
    workload.setup()
    return workload


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", rounds: int | None = None,
        t_launch: float | None = None) -> dict:
    """Set up and run one workload; return the result dictionary.

    With ``rounds`` the run does exactly that many rounds and ignores
    ``seconds``. With ``trace`` the rounds alternate untraced and traced,
    starting untraced; the per-layer metrics come from the traced rounds and
    the overhead compares the two kinds.
    """
    workload = setup_workload(name, seed, scale)
    setup_wall_s = None if t_launch is None else time.monotonic() - t_launch
    setup_speed = machine_speed()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    by_kind = {False: [], True: []}   # ops_per_s measurements, traced or not
    traced_ops = 0
    start = time.perf_counter()
    r = 0
    while (r < rounds if rounds is not None
           else r == 0 or time.perf_counter() - start < seconds):
        on = trace and r % 2 == 1
        before = (workload.attempted, len(workload.timed["ops_per_s"]))
        if on:
            workload.tracer = tracer
            tracer.install()
        try:
            workload.step(r)
        finally:
            if on:
                tracer.uninstall()
                workload.tracer = None
        if on:
            traced_ops += workload.attempted - before[0]
        by_kind[on].extend(workload.timed["ops_per_s"][before[1]:])
        r += 1
    measured_s = time.perf_counter() - start

    accuracy = workload.finish()
    checks = workload.check_list()
    failed = min(workload.failed, workload.attempted)
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "rounds": r,
        "measured_s": measured_s,
        "setup_s": (None if setup_wall_s is None
                    else setup_wall_s * setup_speed),
        "setup_wall_s": setup_wall_s,
        # time-weighted mean speed over the timed calls
        "machine_speed": (workload.ref_s / workload.wall_s
                          if workload.wall_s else setup_speed),
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "attempted": workload.attempted,
        "failed": failed,
        "checks": checks,
        "records_digest": workload.digest.hexdigest(),
        "python_threads": threading.active_count(),
        "versions": _versions(),
    }
    if trace:
        result["metrics"] = _trace_metrics(tracer, traced_ops, by_kind)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json.gz")
    else:
        result["metrics"] = {
            "ops_per_s": throughput(workload.timed["ops_per_s"]),
            "alt_ops_per_s": throughput(workload.timed["alt_ops_per_s"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_fraction": (workload.attempted - failed) / workload.attempted,
            "accuracy": accuracy,
        }
        result["quality"] = workload.quality
        result["wall"] = {key: value * result["machine_speed"]
                          for key, value in result["metrics"].items()
                          if key.endswith("per_s")}
    return result


def throughput(timed: list) -> float:
    """Work completed per reference second over all measurements."""
    seconds = sum(s for _, s in timed)
    return sum(w for w, _ in timed) / seconds if seconds else 0.0


def _trace_metrics(tracer, traced_ops, by_kind):
    from tracer import layer_metrics

    from spofdm import harness

    metrics = layer_metrics(tracer, traced_ops)
    # acquired: the estimate's (t0, k0) pair names the true block, allowing
    # for a time estimate that wrapped into the neighbouring block
    trials = acquired = low_conf = 0
    estimates = iter(tracer.sync_estimates)
    t_block = harness.table1_scenario().ofdm_config().t_block
    for rec in tracer.sync_records:
        trials += 1
        low_conf += rec["low_confidence"]
        if rec["error"] is None:
            k0_hat, t0_hat = next(estimates)
            wraps = round((rec["t0_true"] - t0_hat) / t_block)
            acquired += k0_hat + wraps == rec["k0_true"]
    metrics["sync.acquired_ratio"] = acquired / trials if trials else 0.0
    metrics["sync.low_conf_ratio"] = low_conf / trials if trials else 0.0
    untraced, traced = throughput(by_kind[False]), throughput(by_kind[True])
    metrics["trace.overhead_ratio"] = (untraced / traced - 1.0
                                       if untraced and traced else 0.0)
    return metrics


def _versions() -> dict:
    import importlib.metadata as md

    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "cryptography"):
        try:
            out[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            out[pkg] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--t-launch", type=float, required=True,
                        help="time.monotonic() when run.py started this "
                             "process (CLOCK_MONOTONIC is system-wide)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print setup_s")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        setup_workload(args.workload, args.seed, args.scale)
        wall = time.monotonic() - args.t_launch
        print(json.dumps({"setup_s": wall * machine_speed(),
                          "setup_wall_s": wall}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, args.rounds, args.t_launch)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
