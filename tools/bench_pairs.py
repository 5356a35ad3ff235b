"""Compare the benchmark of this checkout with a parent commit, in pairs.

    python3 tools/bench_pairs.py --workload sync_cdf --pairs 10 --seed 301 \
        --claim ops_per_s
    python3 tools/bench_pairs.py --workload analysis --parent HEAD~1

Both sides run outside this checkout, in sibling directories of one
temporary directory that is deleted on exit, so their paths differ only in
the side's name: ``parent/`` holds the parent's committed files, exported
with ``git archive``, and ``change/`` a copy of this checkout's working
tree (every file ``git ls-files --cached --others --exclude-standard``
names that exists). Nothing is written into the checkout. Pair i runs
``bench/run.py --workload W --seed SEED+i --trace 0`` once on each side,
alternating which side runs first. Each run goes in its own process group,
which is killed if the script stops early, so no worker outlives it. The
metrics are read from each side's ``.bench_out/``.

For every end-to-end metric of ``BENCHMARK.json``, and for the wall-clock
rates and ``machine_speed``, it prints each side's median and quartiles and
the pairs the change won (ties count for neither). The verdicts follow the
benchmark's rules: a claimed metric needs at least 9/10 wins and a median
gap, in its better direction, larger than the parent's interquartile
range. Every other end-to-end metric must be no worse than its bound,
relative to the parent's median; where the parent's own spread is wider
than the bound it is unresolved, unless every run of the change beats every
run of the parent. ``machine_speed``, the reference kernel's rate that
turns wall time into reference seconds, fails when the two sides' medians
differ by a ratio outside [0.8, 1.25]: that is an allocator flip, not a
change in speed. glibc raises its mmap threshold once a process frees a
larger array, the kernel's megabyte-sized temporaries then come from the
heap instead of page-faulting, and every reference-unit rate of that side
moves by about 30%. A timed run's ``records_digest`` covers however many
rounds fit in its time, so after the pairs each side runs once more with
``--rounds 3 --seed SEED --trace 0``, and it prints whether those two
digests are identical. The exit code is 0 only when every verdict passes
and every run passed its output checks; it does not depend on the digests,
since a change may move the records by intent.
Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
SPEED_RATIO = (0.8, 1.25)  # change/parent median machine_speed, no flip
DIGEST_ROUNDS = 3  # rounds of the untimed run whose records are compared


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """This checkout's tracked and untracked, not ignored, files under
    ``dest``, as they are in the working tree."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_bench(checkout: Path, workload: str, seed: int, seconds=None,
              rounds=None) -> dict:
    """One untraced benchmark run in ``checkout``, of ``seconds`` or of
    exactly ``rounds`` rounds; its saved result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code not in (0, 1):
        raise RuntimeError(f"{checkout}: bench/run.py exited with {code}")
    out = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def values(result: dict) -> dict:
    """Every compared number of one run, by name."""
    row = dict(result["metrics"])
    row.update({f"wall {k}": v for k, v in result["wall"].items()})
    row["machine_speed"] = result["machine_speed"]
    return row


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def count_wins(parent, change, higher) -> int:
    """Pairs the change won, in the metric's better direction; ties count
    for neither side."""
    sign = 1 if higher else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, wins, higher, bound, claimed) -> tuple:
    """(text, passed) for one metric; a metric without a bound passes."""
    sign = 1 if higher else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if claimed:
        ok = wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1
        return ("claim met" if ok else "claim NOT met"), ok
    if bound is None:
        return "", True
    if pm == 0:
        ok = sign * cm >= 0
        return ("no worse than 0" if ok else "REGRESSION from 0"), ok
    if (p3 - p1) / abs(pm) > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return "unresolved: parent spread wider than bound", False
    ok = sign * (pm - cm) / abs(pm) <= bound
    return ("within bound" if ok else "REGRESSION"), ok


def speed_verdict(parent, change) -> tuple:
    """(text, passed) for ``machine_speed``: a flip of the allocator state
    moves the reference kernel's median by more than SPEED_RATIO allows."""
    ratio = statistics.median(change) / statistics.median(parent)
    if SPEED_RATIO[0] <= ratio <= SPEED_RATIO[1]:
        return "", True
    return (f"ALLOCATOR STATE MOVED: median ratio {ratio:.2f} outside "
            f"[{SPEED_RATIO[0]}, {SPEED_RATIO[1]}]"), False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=301,
                        help="pair i uses seed SEED+i on both sides")
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare against (default: HEAD)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: the benchmark's)")
    parser.add_argument("--claim", action="append", default=[],
                        help="end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"] == "higher", m["bound"])
              for m in spec["end_to_end"]}
    unknown = set(args.claim) - set(better)
    if unknown or args.pairs < 1:
        parser.error(f"--pairs must be >= 1 and --claim one of {sorted(better)}")

    # a terminated script still kills its run and deletes the export
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs = {"parent": [], "change": []}
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in runs}
        export(args.parent, sides["parent"])
        copy_worktree(sides["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_bench(sides[side], args.workload, args.seed + i,
                                   args.seconds)
                runs[side].append(values(result))
                if not result["correct"]:
                    incorrect += 1
                    print(f"pair {i + 1}: {side} failed its output checks or "
                          f"operations", file=sys.stderr)
            print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
                f"{side} {runs[side][-1]['ops_per_s']:.4g}"
                for side in ("parent", "change")), file=sys.stderr)
        digests = {side: run_bench(sides[side], args.workload, args.seed,
                                   rounds=DIGEST_ROUNDS)["records_digest"]
                   for side in runs}

    ok = incorrect == 0
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}, parent {args.parent}")
    print(f"{'metric':22s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s}  verdict")
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        higher, bound = better.get(name, (not name.endswith("setup_s"), None))
        wins = count_wins(parent, change, higher)
        text, passed = (speed_verdict(parent, change)
                        if name == "machine_speed" else
                        verdict(parent, change, wins, higher, bound,
                                name in args.claim))
        ok &= passed
        cells = ["{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(xs))
                 for xs in (parent, change)]
        print(f"{name:22s} {cells[0]:>32s} {cells[1]:>32s} "
              f"{wins:>3d}/{len(parent):<2d}  {text}")
    print(f"records_digest, {DIGEST_ROUNDS} rounds of seed {args.seed}: "
          + ("identical" if digests["parent"] == digests["change"] else
             f"DIFFERENT, parent {digests['parent']}, change "
             f"{digests['change']}"))
    print(json.dumps(runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
