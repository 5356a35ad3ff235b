"""Benchmark launcher: runs each workload in its own single-threaded process.

    python3 bench/run.py --workload sync_cdf --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; spofdm is imported from the ``src/`` next to ``bench/``.
For every workload it pins BLAS/OpenMP threads to 1, starts ``worker.py``
several times for set-up only (``setup_s`` is the median, measured from
process launch to the end of set-up), then once more to measure. It prints
each metric by name with its unit, the checks, the records digest and the
run metadata, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The exit code is 0 only when every output check passed and no operation
failed. The full result, with metadata, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import ALIASES, OUT_DIR, ROOT, SCALES, WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # set-ups per untraced run, the measuring one included
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# a run must end within 180 s; the worker gets what is left after set-up
RUN_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class BenchError(RuntimeError):
    """A worker crashed, hung or printed no result."""


def _worker(args: list, timeout: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--t-launch", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker exited with {proc.returncode} and no "
                         f"result") from exc
    if proc.returncode not in (0, 1):
        raise BenchError(f"worker exited with {proc.returncode}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 extra: list) -> dict:
    args = ["--workload", name, "--seed", str(seed), *extra]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker([*args, "--setup-only"],
                                  deadline - time.monotonic()))
    result = _worker([*args, "--seconds", repr(seconds),
                      "--trace", str(int(trace))],
                     deadline - time.monotonic())
    setups.append(result)
    result["setup_runs"] = [(r["setup_s"], r["setup_wall_s"]) for r in setups]
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            r["setup_s"] for r in setups)
        result["wall"]["setup_s"] = statistics.median(
            r["setup_wall_s"] for r in setups)
    return result


def metadata(seed: int) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "threads_env": THREAD_ENV,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(path: Path) -> str | None:
    if not path.is_dir():
        return None
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def report(result: dict, spec: dict, trace: bool) -> None:
    """Human-readable lines: metrics with units, aliases, checks, digest."""
    name = result["workload"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    aliases = ALIASES.get(name, {}) if not trace else {}
    for key, value in result["metrics"].items():
        alias = aliases.get(key)
        suffix = f"   = {alias[0]} [{alias[1]}]" if alias else ""
        print(f"{name}  {key} = {value:.6g} {units.get(key, '')}{suffix}")
    print(f"{name}  machine_speed = {result['machine_speed']:.4g} "
          f"(reference kernel rate / REF_HZ, time-weighted over the calls)")
    for key, value in result.get("wall", {}).items():
        print(f"{name}  wall-clock {key} = {value:.6g} {units.get(key, '')}")
    for key, value in result.get("quality", {}).items():
        print(f"{name}  {key} = {value:.6g} ratio")
    for check in result["checks"]:
        print(f"{name}  check {check['name']}: "
              f"{'PASS' if check['ok'] else 'FAIL'} ({check['calls']} calls)"
              + ("" if check["ok"] else f" {check['detail']}"))
    print(f"{name}  records_digest {result['records_digest']} "
          f"({result['rounds']} rounds, seed {result['seed']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the spofdm benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="work per round; tiny is for quick checks")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (fixed records "
                             "digest), ignoring --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    extra = ["--scale", args.scale]
    if args.rounds is not None:
        extra += ["--rounds", str(args.rounds)]

    meta = metadata(args.seed)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, trace, extra)
            result["meta"] = meta
            report(result, spec, trace)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{int(trace)}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            results.append(result)
    except BenchError as exc:
        print(f"benchmark: {name}: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps({**meta, "versions": results[0]["versions"],
                                "python_threads": max(
                                    r["python_threads"] for r in results)}))

    correct = all(r["correct"] for r in results)
    for r in results:
        if not r["correct"]:
            print(f"benchmark: workload {r['workload']} failed its output "
                  f"checks or had failed operations", file=sys.stderr)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": v, "unit": units[k]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
