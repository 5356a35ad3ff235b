"""Tests for scenario files, reports, and the experiment drivers."""

import hashlib
import json

import numpy as np
import pytest

from spofdm.harness import (Scenario, ScenarioFormatError, correlation_surface,
                            emit_report, load_scenario, run_ber_experiment,
                            run_sync_experiment, save_scenario, surface_csv,
                            table1_scenario)


class TestScenario:
    def test_table1_defaults(self):
        sc = table1_scenario()
        assert sc.n_carriers == 128
        assert sc.cp1_samples == 16 and sc.cp2_samples == 8
        assert sc.psk_order == 16
        assert sc.n_candidates == 50
        assert sc.snr_db == 15.0 and sc.sjr_db == 0.0

    def test_power_budget(self):
        sc = table1_scenario()
        p = sc.signal_sample_power()
        assert p == pytest.approx(1 / 128)
        assert sc.noise_sigma2() == pytest.approx(p * 10 ** -1.5)
        assert sc.jammer_power() == pytest.approx(p)

    def test_overrides(self):
        sc = table1_scenario(channel="multipath", trials=7)
        assert sc.channel == "multipath"
        assert sc.trials == 7

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            table1_scenario(channel="underwater")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            table1_scenario(trials=0)

    @pytest.mark.parametrize("overrides, field", [
        (dict(pilot_positions=((24, 1),)), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (24, 1))), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (120, 1))), "pilot_positions"),
        (dict(n_candidates=0), "n_candidates"),
        (dict(sync_blocks=0), "sync_blocks"),
        (dict(snr_db=float("nan")), "snr_db"),
        (dict(snr_db=None), "snr_db"),
        (dict(sjr_db=None), "sjr_db"),
        (dict(sjr_db=float("inf")), "sjr_db"),
        (dict(jammer_strategy="loud"), "jammer_strategy"),
        (dict(jammer_cp_mode="secret_cp"), "jammer_cp_mode"),
        (dict(channel="multipath", n_paths=0), "n_paths"),
        (dict(tap_decay=0.0), "tap_decay"),
        (dict(tap_decay=1.5), "tap_decay"),
        (dict(max_delay_samples=24.0), "max_delay_samples"),
        (dict(max_delay_samples=-1.0), "max_delay_samples"),
        (dict(psk_order=3), "psk_order"),
        (dict(key_hex="zz"), "key_hex"),
        (dict(key_hex="0011"), "key_hex"),
        (dict(n_l=3), "n_l"),
        (dict(epoch=-1), "epoch"),
        (dict(epoch=2 ** 32), "epoch"),
        (dict(master_seed=-1), "master_seed"),
        (dict(channel="doppler", max_doppler_normalized=-0.1),
         "max_doppler_normalized"),
        (dict(trials=2.5), "trials"),
        (dict(trials=True), "trials"),
        (dict(sync_blocks=3.5), "sync_blocks"),
        (dict(master_seed=1.0), "master_seed"),
    ])
    def test_rejects_configs_where_every_sync_trial_fails(self, overrides,
                                                         field):
        with pytest.raises(ValueError, match=field):
            table1_scenario(**overrides)

    def test_delay_just_inside_the_guard_interval_accepted(self):
        sc = table1_scenario(channel="multipath", max_delay_samples=23.0)
        assert sc.max_delay_samples == 23.0

    def test_pilot_spacing_at_fine_time_limit_accepted(self):
        # |24 - 40| * cp2_samples == n_carriers: still unambiguous
        sc = table1_scenario(pilot_positions=((24, 1), (40, 1)), trials=2,
                             sync_blocks=5)
        assert run_sync_experiment(sc).aggregates["n_failed"] == 0

    def test_hash_tracks_content(self):
        a = table1_scenario()
        b = table1_scenario(snr_db=10.0)
        assert a.scenario_hash() == table1_scenario().scenario_hash()
        assert a.scenario_hash() != b.scenario_hash()


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        sc = table1_scenario(channel="doppler", max_doppler_normalized=0.02,
                             master_seed=9)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_missing_field_named(self, tmp_path):
        sc = table1_scenario()
        payload = json.loads(sc.to_json())
        del payload["snr_db"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError, match="snr_db"):
            load_scenario(path)

    def test_unknown_field_named(self, tmp_path):
        payload = json.loads(table1_scenario().to_json())
        payload["turbo_mode"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError, match="turbo_mode"):
            load_scenario(path)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": "x",\n}\n')
        with pytest.raises(ScenarioFormatError, match="line"):
            load_scenario(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("pilot_positions", {"24": [1.0, 0.0]}),
        ("pilot_positions", {"24": [1.0, 0.0], "120": [1.0, 0.0]}),
        ("n_candidates", 0),
        ("sync_blocks", 0),
        ("snr_db", float("nan")),
        ("sjr_db", None),
        ("sjr_db", float("-inf")),
        ("jammer_strategy", "loud"),
        ("jammer_cp_mode", "secret_cp"),
        ("n_paths", 0),
        ("tap_decay", 0.0),
        ("tap_decay", 1.5),
        ("max_delay_samples", 24.0),
        ("max_delay_samples", -1.0),
        ("psk_order", 3),
        ("key_hex", "zz"),
        ("key_hex", "0011"),
        ("n_l", 3),
        ("epoch", -1),
        ("epoch", 2 ** 32),
        ("master_seed", -1),
        ("max_doppler_normalized", -0.1),
        ("pilot_positions", [[24, 1.0], [32, 1.0]]),
        ("trials", 2.5),
        ("trials", True),
        ("sync_blocks", 3.5),
        ("n_carriers", "128"),
    ])
    def test_unusable_sync_config_named(self, tmp_path, field, value):
        payload = json.loads(table1_scenario().to_json())
        payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError, match=field):
            load_scenario(path)

    def test_bad_pilot_table(self, tmp_path):
        payload = json.loads(table1_scenario().to_json())
        payload["pilot_positions"] = {"24": [1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError, match="pilot_positions"):
            load_scenario(path)


class TestSyncExperiment:
    def test_clean_channel_is_exact(self):
        sc = table1_scenario(trials=10, snr_db=300.0, jammer_strategy="none",
                             sync_blocks=10)
        report = run_sync_experiment(sc)
        time_err = np.array([r["time_error"] for r in report.records])
        freq_err = np.array([r["freq_error"] for r in report.records])
        assert np.all(time_err < 1e-9)
        assert np.all(freq_err < 1e-9)
        assert report.aggregates["n_failed"] == 0
        assert report.aggregates["time_cdf"]["lt_0.01"] == 1.0

    def test_programming_errors_are_not_recorded_as_failed_trials(
            self, monkeypatch):
        import spofdm.harness as harness

        def broken_synchronize(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "synchronize", broken_synchronize)
        with pytest.raises(TypeError, match="bug"):
            run_sync_experiment(table1_scenario(trials=2, sync_blocks=5))

    def test_deterministic_records(self):
        sc = table1_scenario(trials=5, sync_blocks=10)
        a = run_sync_experiment(sc).records_csv()
        b = run_sync_experiment(sc).records_csv()
        assert a == b

    def test_aggregates_recomputable_from_records(self):
        sc = table1_scenario(trials=20, sync_blocks=10)
        report = run_sync_experiment(sc)
        time_err = np.array([r["time_error"] for r in report.records])
        for t in (0.01, 0.02, 0.05):
            frac = np.sum(time_err[np.isfinite(time_err)] < t) / time_err.size
            assert report.aggregates["time_cdf"][f"lt_{t}"] == pytest.approx(
                frac)

    def test_emit_report_files(self, tmp_path):
        sc = table1_scenario(trials=3, sync_blocks=10)
        report = run_sync_experiment(sc)
        paths = emit_report(report, tmp_path / "out")
        for p in paths.values():
            assert p.exists()
        header = paths["records"].read_text().splitlines()[0]
        assert header.split(",")[0] == "trial"
        assert "scenario_hash" in paths["summary"].read_text()


class TestBerExperiment:
    def test_record_layout_and_determinism(self):
        sc = table1_scenario()
        a = run_ber_experiment(sc, ["1_2"], [15.0], target_errors=50,
                               max_codewords=10)
        b = run_ber_experiment(sc, ["1_2"], [15.0], target_errors=50,
                               max_codewords=10)
        assert a.records_csv() == b.records_csv()
        rec = a.records[0]
        assert rec["rate"] == "1_2"
        assert rec["codewords"] <= 10
        assert rec["bits"] == rec["codewords"] * 1008
        assert 0.0 <= rec["ber"] <= 1.0

    def test_stops_at_error_target(self):
        sc = table1_scenario()
        report = run_ber_experiment(sc, ["1_2"], [0.0], target_errors=30,
                                    max_codewords=200)
        rec = report.records[0]
        assert rec["bit_errors"] >= 30
        assert rec["codewords"] < 200

    def test_low_snr_worse_than_high_snr(self):
        sc = table1_scenario()
        report = run_ber_experiment(sc, ["1_2"], [0.0, 15.0],
                                    target_errors=200, max_codewords=50)
        by_snr = {r["snr_db"]: r["ber"] for r in report.records}
        assert by_snr[0.0] > by_snr[15.0]

    @pytest.mark.parametrize("kwargs, message", [
        ({"rates": ["1_3", "3_4"]}, "rates: unknown rate label '3_4'"),
        ({"snrs_db": [15.0, float("nan")]}, "snrs_db must be finite"),
        ({"snrs_db": [None]}, "snrs_db must be finite"),
        ({"rician_k0_db_list": [3.0, float("inf")]},
         "rician_k0_db_list must be finite"),
        ({"max_codewords": 0}, "max_codewords must be at least 1"),
        ({"target_errors": 0}, "target_errors must be positive"),
    ])
    def test_rejects_bad_arguments_before_any_point(self, monkeypatch,
                                                   kwargs, message):
        def no_point(*args, **kw):
            raise AssertionError("a point ran before the arguments were checked")
        monkeypatch.setattr("spofdm.harness._ber_point", no_point)
        args = {"rates": ["1_3"], "snrs_db": [15.0], **kwargs}
        with pytest.raises(ValueError, match=message):
            run_ber_experiment(table1_scenario(), **args)


class TestCorrelationSurface:
    def test_precoded_surface_shape_and_peak(self):
        sc = table1_scenario(sync_blocks=50)
        result = correlation_surface(sc, precoding=True, n_trials=1)
        surf = result["surface"]
        assert surf.shape == (152, 50)
        tau_star, d_star = np.unravel_index(np.argmax(surf), surf.shape)
        expected_tau = (result["signal_offset_samples"] + 24) % 152
        assert tau_star == expected_tau
        assert result["candidates"][d_star] == result["k0"]

    def test_plain_surface_is_one_dimensional(self):
        sc = table1_scenario(sync_blocks=20)
        result = correlation_surface(sc, precoding=False, n_trials=1)
        assert result["surface"].shape == (152,)
        assert result["candidates"] is None

    def test_fixed_offsets_respected(self):
        sc = table1_scenario(sync_blocks=10)
        result = correlation_surface(sc, signal_offset_samples=5,
                                     jammer_offset_samples=80)
        assert result["signal_offset_samples"] == 5
        assert result["jammer_offset_samples"] == 80

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="n_trials must be at least 1"):
            correlation_surface(table1_scenario(sync_blocks=10), n_trials=0)

    def test_surface_csv_grid(self):
        sc = table1_scenario(sync_blocks=5)
        result = correlation_surface(sc, precoding=True)
        lines = surface_csv(result).splitlines()
        assert lines[0] == "tau_samples,candidate,magnitude"
        assert len(lines) == 1 + 152 * 50

    def test_multipath_surface_goes_through_the_channel(self):
        awgn = correlation_surface(table1_scenario(sync_blocks=10),
                                   n_trials=2)["surface"]
        multipath = correlation_surface(
            table1_scenario(sync_blocks=10, channel="multipath"),
            n_trials=2)["surface"]
        assert multipath.shape == awgn.shape
        assert not np.array_equal(multipath, awgn)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRecordsPinned:
    """Digests of small runs; a change of the transmit path that moves any
    sample of a sync trial or a surface shows here."""

    @pytest.mark.parametrize("overrides, digest", [
        ({}, "d693795c7372457797d84e2fb3ce5671024147ceb24a5e1cd02a6eaac301df9f"),
        (dict(channel="multipath", jammer_cp_mode="random_cp"),
         "11f2079ce98331988122e874adcb01913ea5f15bdfb2a227ed0f5d7915d749ff"),
    ])
    def test_sync_records(self, overrides, digest):
        report = run_sync_experiment(table1_scenario(trials=20, **overrides))
        assert _sha256(report.records_csv().encode()) == digest

    @pytest.mark.parametrize("precoding, digest", [
        (True, "a3bf62fa9aaedab67fed1eca20e21e295bb4967175a4f53e42e18a0085e3a8a5"),
        (False, "46adde277885378dcc30b6947b0143c9dd4fde4b23f87e267a82a7d0fd7d3d0c"),
    ])
    def test_awgn_surfaces(self, precoding, digest):
        result = correlation_surface(table1_scenario(sync_blocks=10),
                                     precoding=precoding, n_trials=2)
        assert _sha256(result["surface"].tobytes()) == digest
