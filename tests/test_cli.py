"""Smoke tests for the command line front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spofdm
from spofdm.cli import main
from spofdm.harness import (correlation_surface, save_scenario, surface_csv,
                            table1_scenario)
from spofdm.keystream import SecretKey

# classical OFDM is a scenario: the one-point phase alphabet, one offset
CLASSICAL = table1_scenario(psk_order=1, n_candidates=1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def classical_path(tmp_path):
    path = tmp_path / "classical.json"
    save_scenario(CLASSICAL, path)
    return path


@pytest.mark.parametrize("argv", [
    ["ber", "--precoding", "off"],
    ["ber", "--trials", "3"],
    ["surface", "--precoding", "off"],
    ["surface", "--surface-trials", "1"],
])
def test_removed_options_are_usage_errors(argv, tmp_path, capsys):
    # classical runs come from the scenario, and ber's sample size is its
    # codeword budget
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spofdm ")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert not (tmp_path / "results").exists()


class TestCapacity:
    def test_prints_value(self, capsys):
        assert main(["capacity", "--signal-power", "1", "--jamming-power",
                     "1", "--noise-power", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.584962500721156, abs=1e-12)

    def test_non_finite_power_exits_2_with_one_error_line(self, capsys):
        assert main(["capacity", "--noise-power", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spofdm: error: p_n")
        assert captured.err.count("\n") == 1


class TestKeystreamSelftest:
    def test_passes(self, capsys):
        assert main(["keystream-selftest"]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    @pytest.mark.parametrize("key", [
        "10a58869d74be5a374cf867cfb473859",
        "c47b0294dbbbee0fec4757f22ffeee3587ca4730c3d33b691df38bab076bc558",
        32 * "0"])
    def test_one_wrong_index_fails(self, key, capsys, monkeypatch):
        # the self-test reads the link's keystream, so a change to one
        # index of one known-answer row is caught and the key named
        plans = spofdm.cli.phase_plans

        def one_index_off(secret, *args):
            rows = plans(secret, *args)
            if secret == SecretKey.from_hex(key):
                rows[0, 7] ^= 1
            return rows

        monkeypatch.setattr(spofdm.cli, "phase_plans", one_index_off)
        assert main(["keystream-selftest"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL:") and key in out
        assert out.count("\n") == 1


class TestSync:
    def test_writes_reports(self, tmp_path, capsys):
        scenario = table1_scenario(trials=3, sync_blocks=10)
        sc_path = tmp_path / "scenario.json"
        save_scenario(scenario, sc_path)
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "sync_records.csv").exists()
        assert (out_dir / "sync_summary.txt").exists()
        assert "time_cdf" in capsys.readouterr().out

    def test_trials_override(self, tmp_path, capsys):
        scenario = table1_scenario(trials=50, sync_blocks=10)
        sc_path = tmp_path / "scenario.json"
        save_scenario(scenario, sc_path)
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path), "--trials", "2",
                     "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "sync_records.csv").read_text().splitlines()
        assert len(rows) == 1 + 2

    def test_every_trial_failed_exits_1(self, tmp_path, capsys, monkeypatch):
        import spofdm.harness as harness

        def failing_synchronize(*args, **kwargs):
            raise ValueError("forced failure")

        monkeypatch.setattr(harness, "synchronize", failing_synchronize)
        sc_path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(trials=3), sc_path)
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(out_dir)]) == 1
        rows = (out_dir / "sync_records.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        captured = capsys.readouterr()
        assert "n_failed: 3" in captured.out
        assert captured.err == ("spofdm: error: all trials failed: "
                                "ValueError: forced failure\n")


class TestBer:
    def test_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["ber", "--rates", "1_2", "--snrs-db", "15",
                     "--out-dir", str(out_dir)]) == 0
        body = (out_dir / "ber_records.csv").read_text()
        assert body.splitlines()[0].startswith("rate,snr_db")

    def test_classical_scenario_file(self, tmp_path, classical_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["ber", "--scenario", str(classical_path), "--rates", "1_2",
                     "--snrs-db", "15", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "ber_records.csv").read_text().splitlines()
        assert rows[0].split(",")[2] == "precoding"
        assert [row.split(",")[2] for row in rows[1:]] == ["0"]
        summary = (out_dir / "ber_summary.txt").read_text()
        assert f"scenario_hash: {CLASSICAL.scenario_hash()}\n" in summary

    def test_unknown_rate_exits_nonzero_with_message(self, tmp_path):
        out_dir = tmp_path / "results"
        env = {**os.environ, "PYTHONPATH": str(Path(spofdm.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "spofdm.cli", "ber", "--rates", "1_3", "3_4",
             "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode != 0
        assert "rates: unknown rate label '3_4'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()

    def test_repeated_snr_exits_2(self, tmp_path, capsys):
        # two points with one aggregate key: one BER line would be lost
        out_dir = tmp_path / "results"
        assert main(["ber", "--rates", "1_2", "--snrs-db", "15", "15",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "spofdm: error: snrs_db: two values share the aggregate key "
            "'ber.rate1_2.snr15'\n")
        assert not out_dir.exists()


class TestInputErrors:
    def test_malformed_scenario_file(self, tmp_path, capsys):
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text('{"name": "x",}')
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(tmp_path / "results")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spofdm: error: ")
        assert "invalid JSON" in err and err.count("\n") == 1

    def test_zero_trials(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["sync", "--trials", "0", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "spofdm: error: trials must be at least 1\n"
        assert not out_dir.exists()

    def test_nan_pilot_value_exits_2(self, tmp_path, capsys):
        self.check_pilot_value_exits_2(tmp_path, capsys, float("nan"))

    def test_tiny_pilot_value_exits_2(self, tmp_path, capsys):
        # despreading by it would overflow in every sync trial
        self.check_pilot_value_exits_2(tmp_path, capsys, 1e-300)

    @staticmethod
    def check_pilot_value_exits_2(tmp_path, capsys, value):
        payload = json.loads(table1_scenario().to_json())
        payload["pilot_positions"]["24"] = [value, 0.0]
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spofdm: error: ")
        assert "pilot_positions" in err and err.count("\n") == 1
        assert not out_dir.exists()


    @pytest.mark.parametrize("name, message", [
        ("missing.json", "missing.json: No such file or directory"),
        ("a_directory", "a_directory: Is a directory"),
        ("latin1.json", "latin1.json: not UTF-8 text (byte 0: invalid start byte)"),
    ])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, name, message):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.json").write_bytes(b"\xff{}")
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(tmp_path / name),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (f"spofdm: error: {tmp_path}"
                                           f"{os.sep}{message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["surface", "--trials", "1"],
                                         ["sync", "--trials", "1"]])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_not_a_directory_exits_2(self, tmp_path, capsys, command,
                                            below):
        # checked before the run, which then writes nothing
        blocker = tmp_path / "results"
        blocker.write_text("not a directory")
        out_dir = blocker / below
        assert main(command + ["--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (f"spofdm: error: --out-dir {out_dir}: "
                                           f"{blocker} is not a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["results"]
        assert blocker.read_text() == "not a directory"


class TestSurface:
    def test_writes_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["surface", "--trials", "1",
                     "--out-dir", str(out_dir)]) == 0
        path = out_dir / "surface_precoding_on.csv"
        assert path.exists()
        assert "jammer offset" in capsys.readouterr().out

    def test_trials_sets_the_average(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["surface", "--trials", "2",
                     "--out-dir", str(out_dir)]) == 0
        expect = surface_csv(correlation_surface(table1_scenario(), n_trials=2))
        got = (out_dir / "surface_precoding_on.csv").read_text()
        # digests: a failing report then skips a diff of 7,601 lines
        assert _sha256(got) == _sha256(expect)

    def test_classical_surface_csv(self, tmp_path, classical_path, capsys):
        # classical OFDM: one column, one row per time offset of a block
        out_dir = tmp_path / "results"
        assert main(["surface", "--scenario", str(classical_path),
                     "--trials", "1", "--out-dir", str(out_dir)]) == 0
        assert [p.name for p in out_dir.iterdir()] == ["surface_precoding_off.csv"]
        lines = (out_dir / "surface_precoding_off.csv").read_text().splitlines()
        assert lines[0] == "tau_samples,magnitude"
        assert len(lines) == 1 + 152

    def test_zero_surface_trials(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["surface", "--trials", "0",
                     "--out-dir", str(out_dir)]) == 2
        assert (capsys.readouterr().err
                == "spofdm: error: trials must be at least 1\n")
        assert not out_dir.exists()
