"""Tests for the verdicts of ``tools/bench_pairs.py``, which compares the
benchmark of a change with its parent commit in alternating pairs of runs.
The script is not a package module, so it is loaded by path."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# inclusive quartiles 99.25, 100, 100.75: an interquartile range of 1.5
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def claim(change, higher=True, parent=PARENT):
    wins = bench_pairs.count_wins(parent, change, higher)
    return bench_pairs.verdict(parent, change, wins, higher, 0.25, True)


def unclaimed(change, higher=True, parent=PARENT, bound=0.25):
    wins = bench_pairs.count_wins(parent, change, higher)
    return bench_pairs.verdict(parent, change, wins, higher, bound, False)


def test_quartiles_of_the_parent():
    assert bench_pairs.quartiles(PARENT) == (99.25, 100.0, 100.75)


def test_ties_count_for_neither_side():
    parent, change = [1.0, 2.0, 3.0], [1.0, 3.0, 2.0]
    assert bench_pairs.count_wins(parent, change, True) == 1
    assert bench_pairs.count_wins(parent, change, False) == 1
    assert bench_pairs.count_wins(parent, parent, True) == 0
    assert bench_pairs.count_wins(parent, parent, False) == 0


@pytest.mark.parametrize("ties, met", [(0, True), (1, True), (2, False)])
def test_claim_needs_nine_of_ten_wins(ties, met):
    # every other pair gains 2, more than the parent's interquartile range
    change = [p if i < ties else p + 2 for i, p in enumerate(PARENT)]
    assert bench_pairs.count_wins(PARENT, change, True) == 10 - ties
    assert claim(change) == (("claim met", True) if met
                             else ("claim NOT met", False))


def test_claim_needs_a_gap_beyond_the_parent_spread():
    # ten wins, but a median gap of 1 is inside the range of 1.5
    assert claim([p + 1 for p in PARENT]) == ("claim NOT met", False)
    assert claim([p + 1.6 for p in PARENT]) == ("claim met", True)


def test_claim_on_a_lower_is_better_metric():
    assert claim([p - 2 for p in PARENT], higher=False) == ("claim met", True)
    assert claim([p + 2 for p in PARENT], higher=False) == ("claim NOT met",
                                                             False)


@pytest.mark.parametrize("higher, change, expect", [
    (True, 80.0, ("within bound", True)),
    (True, 75.0, ("within bound", True)),
    (True, 74.0, ("REGRESSION", False)),
    (True, 200.0, ("within bound", True)),
    (False, 124.0, ("within bound", True)),
    (False, 126.0, ("REGRESSION", False)),
    (False, 10.0, ("within bound", True)),
])
def test_unclaimed_metric_within_its_bound(higher, change, expect):
    assert unclaimed([change] * 10, higher, parent=[100.0] * 10) == expect


def test_metric_without_a_bound_passes():
    assert unclaimed([1.0] * 10, bound=None) == ("", True)


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # inclusive quartiles 50 and 150 about a median of 100
    parent = [50.0, 150.0] * 5
    assert unclaimed(parent, parent=parent) == (
        "unresolved: parent spread wider than bound", False)
    assert unclaimed([150.0] * 10, parent=parent) == (
        "unresolved: parent spread wider than bound", False)
    # unless every run of the change beats every run of the parent
    assert unclaimed([151.0] * 10, parent=parent) == ("within bound", True)
    assert unclaimed([49.0] * 10, higher=False, parent=parent) == (
        "within bound", True)


@pytest.mark.parametrize("higher, change, expect", [
    (True, 0.0, ("no worse than 0", True)),
    (True, 1.0, ("no worse than 0", True)),
    (True, -1.0, ("REGRESSION from 0", False)),
    (False, 0.0, ("no worse than 0", True)),
    (False, 1.0, ("REGRESSION from 0", False)),
])
def test_parent_median_of_zero(higher, change, expect):
    assert unclaimed([change] * 10, higher, parent=[0.0] * 10) == expect


@pytest.mark.parametrize("ratio, passed", [
    (0.79, False), (0.8, True), (1.0, True), (1.25, True), (1.26, False),
])
def test_machine_speed_ratio_outside_the_band_fails(ratio, passed):
    text, ok = bench_pairs.speed_verdict([1.0, 1.0, 1.0], [ratio] * 3)
    assert ok is passed
    assert text.startswith("ALLOCATOR STATE MOVED") is not passed


@pytest.mark.parametrize("change_digest, line", [
    ("abc", "records_digest, 3 rounds of seed 1: identical"),
    ("xyz", "records_digest, 3 rounds of seed 1: DIFFERENT, parent abc, "
            "change xyz"),
], ids=["identical", "different"])
def test_records_digest_line(monkeypatch, capsys, change_digest, line):
    # stubbed runs: a timed run's digest covers the rounds its time allowed,
    # so only the one run of fixed rounds on each side is compared
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: None)
    # main's SIGTERM handler would outlive the test
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    calls = []

    def run_bench(checkout, workload, seed, seconds=None, rounds=None):
        calls.append((checkout.name, seed, seconds, rounds))
        digest = ("timed" if rounds is None else
                  "abc" if checkout.name == "parent" else change_digest)
        return {"metrics": {"ops_per_s": 1.0}, "wall": {"ops_per_s": 1.0},
                "machine_speed": 1.0, "correct": True, "rounds": 5,
                "records_digest": digest}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    code = bench_pairs.main(["--workload", "sync_cdf", "--pairs", "3",
                             "--seed", "1"])
    assert code == 0
    assert line in capsys.readouterr().out.splitlines()
    assert calls[6:] == [("parent", 1, None, 3), ("change", 1, None, 3)]
