"""Smoke tests for the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spofdm
from spofdm.cli import main
from spofdm.harness import save_scenario, table1_scenario


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
        assert "ok" in capsys.readouterr().out


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

    # despreading by a 1e-300 pilot overflows the cross-block products
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_trial_failed_exits_1(self, tmp_path, capsys):
        scenario = table1_scenario(trials=3,
                                   pilot_positions=((24, 1e-300), (32, 1.0)))
        sc_path = tmp_path / "scenario.json"
        save_scenario(scenario, sc_path)
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(out_dir)]) == 1
        rows = (out_dir / "sync_records.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        captured = capsys.readouterr()
        assert "n_failed: 3" in captured.out
        assert captured.err == ("spofdm: error: all trials failed: "
                                "ValueError: cannot convert float NaN to "
                                "integer\n")


class TestBer:
    def test_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["ber", "--rates", "1_2", "--snrs-db", "15",
                     "--out-dir", str(out_dir)]) == 0
        body = (out_dir / "ber_records.csv").read_text()
        assert body.splitlines()[0].startswith("rate,snr_db")

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
        payload = json.loads(table1_scenario().to_json())
        payload["pilot_positions"]["24"] = [float("nan"), 0.0]
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "results"
        assert main(["sync", "--scenario", str(sc_path),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spofdm: error: ")
        assert "pilot_positions" in err and err.count("\n") == 1
        assert not out_dir.exists()


class TestSurface:
    def test_writes_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["surface", "--surface-trials", "1",
                     "--out-dir", str(out_dir)]) == 0
        path = out_dir / "surface_precoding_on.csv"
        assert path.exists()
        assert "jammer offset" in capsys.readouterr().out

    def test_zero_surface_trials(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["surface", "--surface-trials", "0",
                     "--out-dir", str(out_dir)]) == 2
        assert (capsys.readouterr().err
                == "spofdm: error: n_trials must be at least 1\n")
        assert not out_dir.exists()
