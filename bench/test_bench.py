"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_spofdm()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _launch(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc, result = _launch("--workload", name, "--seed", "3", "--rounds",
                           str(1 + trace), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_give_identical_records(name):
    plain = worker.run(name, 5, 0, trace=False, scale="tiny", rounds=2)
    traced = worker.run(name, 5, 0, trace=True, scale="tiny", rounds=2)
    assert plain["records_digest"] == traced["records_digest"]
    assert traced["correct"]


def test_trace_restores_the_package():
    import spofdm.harness as harness
    import spofdm.keystream as keystream

    before = (harness.run_sync_experiment, keystream.Cipher,
              keystream.PhaseSequence.plan)
    worker.run("sync_cdf", 1, 0, trace=True, scale="tiny", rounds=2)
    assert (harness.run_sync_experiment, keystream.Cipher,
            keystream.PhaseSequence.plan) == before


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_the_inputs(name):
    a = worker.run(name, 1, 0, trace=False, scale="tiny", rounds=1)
    b = worker.run(name, 2, 0, trace=False, scale="tiny", rounds=1)
    again = worker.run(name, 1, 0, trace=False, scale="tiny", rounds=1)
    assert a["records_digest"] != b["records_digest"]
    assert a["records_digest"] == again["records_digest"]


def test_forced_sync_failure_counts_as_failed(monkeypatch):
    import spofdm.harness as harness

    calls = []

    def failing_synchronize(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise ValueError("forced failure")
        return real(*args, **kwargs)

    real = harness.synchronize
    monkeypatch.setattr(harness, "synchronize", failing_synchronize)
    result = worker.run("sync_cdf", 1, 0, trace=False, scale="tiny", rounds=1)
    assert result["failed"] > 0
    assert result["metrics"]["ok_fraction"] < 1.0
    assert not result["correct"]


def test_checkout_without_the_package_fails(tmp_path):
    # only BENCHMARK.json and bench/: non-zero exit and no result line
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sync_cdf", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
