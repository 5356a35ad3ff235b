"""Tests for scenario files, reports, and the experiment drivers."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spofdm import keystream
from spofdm.harness import (ExperimentReport, Scenario, ScenarioFormatError,
                            _phasor_rows, _secret_phasors, _sent_blocks,
                            _sync_trial, correlation_surface, emit_report,
                            load_scenario, run_ber_experiment,
                            run_sync_experiment, save_scenario, surface_csv,
                            table1_scenario)
from spofdm.rxchain import LdpcEncoder, builtin_code, ldpc_bp_decode
from support import sha256, table_phasors


def _numbered_rows(gaps, rows):
    """Parametrize `rows` with pytest's ids, numbered past the `gaps`."""
    numbers = (i for i in itertools.count() if i not in gaps)
    return [pytest.param(overrides, field, id=f"overrides{next(numbers)}-{field}")
            for overrides, field in rows]


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
        p = sc.ofdm_config().sample_power
        assert p == pytest.approx(1 / 128)
        assert sc.noise_sigma2() == pytest.approx(p * 10 ** -1.5)
        assert sc.jammer_power() == pytest.approx(p)

    def test_configurations_built_once(self):
        # each call returns the object the scenario built, and a replaced
        # field builds a new one
        sc = table1_scenario()
        for build in (Scenario.ofdm_config, Scenario.sync_config, Scenario.key):
            assert build(sc) is build(sc)
        assert replace(sc, n_candidates=7).sync_config().n_candidates == 7
        assert replace(sc, n_candidates=7).key() == sc.key()

    def test_overrides(self):
        sc = table1_scenario(channel="multipath", trials=7)
        assert sc.channel == "multipath"
        assert sc.trials == 7

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            table1_scenario(channel="underwater")

    # each row keeps the number in its id that it had before the rows that
    # tests/test_checks.py makes (numbers 3-5, 8, 11, 20, 22, 24-27 and 35)
    # left this table, so a row's test name stays the same
    @pytest.mark.parametrize("overrides, field", _numbered_rows({
        3, 4, 5, 8, 11, 20, 22, 24, 25, 26, 27, 35}, [
        (dict(pilot_positions=((24, 1),)), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (24, 1))), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (120, 1))), "pilot_positions"),
        (dict(snr_db=None), "snr_db"),
        (dict(sjr_db=None), "sjr_db"),
        (dict(jammer_strategy="loud"), "jammer_strategy"),
        (dict(jammer_cp_mode="secret_cp"), "jammer_cp_mode"),
        (dict(tap_decay=0.0), "tap_decay"),
        (dict(tap_decay=1.5), "tap_decay"),
        (dict(max_delay_samples=24.0), "max_delay_samples"),
        (dict(max_delay_samples=-1.0), "max_delay_samples"),
        (dict(psk_order=3), "psk_order"),
        (dict(key_hex="zz"), "key_hex"),
        (dict(key_hex="0011"), "key_hex"),
        (dict(n_l=3), "n_l"),
        (dict(epoch=2 ** 32), "epoch"),
        (dict(channel="doppler", max_doppler_normalized=-0.1),
         "max_doppler_normalized"),
        (dict(max_delay_samples=23.6), "max_delay_samples"),
        (dict(pilot_positions=((24, 0), (32, 1))), "pilot_positions"),
        (dict(pilot_positions=((24, complex("nan")), (32, 1))),
         "pilot_positions"),
        (dict(pilot_positions=((24, 1), (32, float("inf")))), "pilot_positions"),
        (dict(key_hex=5), "key_hex"),
        (dict(name=3), "name"),
        (dict(channel=None), "channel"),
        (dict(tap_decay="0.1"), "tap_decay"),
        (dict(max_doppler_normalized=None), "max_doppler_normalized"),
        (dict(max_delay_samples=24), "max_delay_samples"),
        (dict(n_l=-100, n_u=100), "n_l, n_u"),
        (dict(n_l=-64, n_u=64), "n_l, n_u"),
        # finite pilots so small or large that despreading overflows
        (dict(pilot_positions=((24, 1e-300), (32, 1))), "pilot_positions"),
        (dict(pilot_positions=((24, 1e-154), (32, 1))), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (32, 1e160))), "pilot_positions"),
        (dict(pilot_positions=((24, 1), (32, -1e300))), "pilot_positions"),
        # one phase point: every candidate offset has the same CP phases
        (dict(psk_order=1, n_candidates=2), "n_candidates"),
        # a repeated carrier: ofdm_config's dict would keep the last value
        (dict(pilot_positions=((24, 1), (24, 2), (32, 1))),
         "pilot_positions: carrier 24 is repeated"),
        # only the Doppler channel reads it
        (dict(channel="multipath", max_doppler_normalized=0.05),
         "max_doppler_normalized must be 0 unless channel is 'doppler'"),
        (dict(max_doppler_normalized=0.02), "max_doppler_normalized"),
    ]))
    def test_rejects_configs_where_every_sync_trial_fails(self, overrides,
                                                         field):
        with pytest.raises(ValueError, match=field):
            table1_scenario(**overrides)

    def test_delay_just_inside_the_guard_interval_accepted(self):
        sc = table1_scenario(channel="multipath", max_delay_samples=23)
        assert sc.max_delay_samples == 23

    def test_integers_are_accepted_for_float_fields(self):
        sc = table1_scenario(snr_db=15, tap_decay=1)
        assert sc.snr_db == 15 and sc.tap_decay == 1

    def test_float_fields_hold_floats_so_equal_scenarios_hash_alike(self):
        sc = table1_scenario(snr_db=15, sjr_db=np.float64(0), tap_decay=1)
        assert sc == table1_scenario(tap_decay=1.0)
        assert type(sc.snr_db) is float and type(sc.sjr_db) is float
        assert table1_scenario(snr_db=15).scenario_hash() == "2a52c11987244641"
        assert table1_scenario().scenario_hash() == "2a52c11987244641"

    def test_pilot_spacing_at_limit_with_non_power_of_two_carriers(self):
        # 7 * 7 == 49: accepted by the scenario, so the synchronizer, sampling
        # at 1/49, must not reject the same geometry on a rounded time ratio
        sc = table1_scenario(n_carriers=49, cp1_samples=2, cp2_samples=7,
                             pilot_positions=((10, 1), (17, 1)), trials=20,
                             sync_blocks=5)
        assert sc.ofdm_config().sample_interval == 1 / 49
        assert run_sync_experiment(sc).aggregates["n_failed"] == 0

    def test_tap_delays_never_exceed_max_delay(self, monkeypatch):
        import spofdm.harness as harness

        seen = []
        real = harness.apply_fading

        def spy(signal, spec):
            seen.extend(d for d, _, _ in spec.taps)
            return real(signal, spec)

        monkeypatch.setattr(harness, "apply_fading", spy)
        for max_delay, n_paths in ((23, 4), (5, 3), (7, 6)):
            seen.clear()
            run_sync_experiment(table1_scenario(
                channel="multipath", max_delay_samples=max_delay,
                n_paths=n_paths, trials=2, sync_blocks=5))
            assert seen and max(seen) <= max_delay
            assert all(isinstance(d, int) for d in seen)

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
        ("max_delay_samples", 23.6),
        ("max_delay_samples", 3.0),
        ("pilot_positions", {"24": [0.0, 0.0], "32": [1.0, 0.0]}),
        ("pilot_positions", {"24": [float("nan"), 0.0], "32": [1.0, 0.0]}),
        ("key_hex", 5),
        ("name", 3),
        ("snr_db", True),
        ("tap_decay", "0.1"),
        ("max_delay_samples", 24),
        ("pilot_positions", {"24": [1e-300, 0.0], "32": [1.0, 0.0]}),
        ("pilot_positions", {"24": [0.0, 1e-154], "32": [1.0, 0.0]}),
        ("pilot_positions", {"24": [1.0, 0.0], "32": [1e160, 0.0]}),
        ("pilot_positions", {"24": [1.0, 0.0], "32": [0.0, -1e300]}),
        ("psk_order", 1),
        # the keys "24" and "024" both parse as carrier 24
        ("pilot_positions", {"24": [1.0, 0.0], "024": [2.0, 0.0],
                             "32": [1.0, 0.0]}),
        # a pilot value is exactly two reals, [real, imag]
        ("pilot_positions", {"24": [1.0, 0.0, 7.0], "32": [1.0, 0.0]}),
        ("pilot_positions", {"24": [True, False], "32": [1.0, 0.0]}),
    ])
    def test_unusable_sync_config_named(self, tmp_path, field, value):
        payload = json.loads(table1_scenario().to_json())
        payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioFormatError, match=field):
            load_scenario(path)

    def test_integer_float_field_loads_as_float(self, tmp_path):
        payload = json.loads(table1_scenario().to_json())
        payload["snr_db"] = 15
        path = tmp_path / "int.json"
        path.write_text(json.dumps(payload))
        loaded = load_scenario(path)
        assert type(loaded.snr_db) is float
        assert loaded.scenario_hash() == table1_scenario().scenario_hash()

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

    @pytest.mark.parametrize("value", [2.0 ** -256, 2.0 ** 256])
    def test_extreme_accepted_pilot_runs_without_failed_trials(self, value):
        sc = table1_scenario(trials=3, sync_blocks=10,
                             pilot_positions=((24, value), (32, 1.0)))
        assert run_sync_experiment(sc).aggregates["n_failed"] == 0

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

    def test_numpy_float_and_none_cells(self):
        # a numpy float is written as its value and None as an empty field
        report = ExperimentReport("sync", "0", ["x", "error"],
                                  [{"x": np.float64(0.1), "error": None}],
                                  {"x": np.float64(0.1)})
        assert report.records_csv() == "x,error\n0.1,\n"
        assert report.aggregates_csv() == "key,value\nx,0.1\n"
        assert report.summary_text().endswith("\nx: 0.1\n")


class TestLink:
    @pytest.mark.parametrize("psk_order, inits", [(16, 1), (1, 0)])
    def test_phasors_are_read_only_keystream_rows(self, monkeypatch, psk_order,
                                                   inits):
        # row k is keystream block k, from one derive that later
        # experiments on the same key, epoch and sizes share; classical
        # OFDM (M = 1) builds no cipher
        calls = []
        cipher = keystream.Cipher
        monkeypatch.setattr(keystream, "Cipher",
                            lambda *a: calls.append(a) or cipher(*a))
        _phasor_rows.cache_clear()
        sc = table1_scenario(sync_blocks=10, psk_order=psk_order,
                             n_candidates=50 if psk_order > 1 else 1)
        phasors = _secret_phasors(sc)
        assert len(calls) == inits
        assert _secret_phasors(replace(sc, trials=7)) is phasors
        assert len(calls) == inits
        _secret_phasors(replace(sc, epoch=1))
        assert len(calls) == 2 * inits
        assert len(phasors) == sc.n_candidates + sc.sync_blocks + 3
        rows = [table_phasors(k, 1, 128, psk_order, key=sc.key(),
                              epoch=sc.epoch)[0] for k in range(len(phasors))]
        assert phasors.tobytes() == np.array(rows).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            phasors[0, 0] = 1.0

    def test_last_offset_sends_every_block(self):
        # a short transmitter slice would show only as failed trials
        sc = table1_scenario(sync_blocks=10, n_candidates=3)
        phasors = _secret_phasors(sc)
        k0 = sc.n_candidates - 1
        assert len(phasors[k0:k0 + _sent_blocks(sc)]) == sc.sync_blocks + 4
        records = [_sync_trial(sc, trial, phasors) for trial in range(12)]
        last = [r for r in records if r["k0_true"] == k0]
        assert last and all(r["error"] is None for r in last)


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

    def test_aggregates_recomputable_from_records(self):
        report = run_ber_experiment(table1_scenario(), ["1_2", "1_3"],
                                    [9.0, 15.0], rician_k0_db_list=[3.0, 6.0],
                                    max_codewords=1)
        assert len(report.records) == len(report.aggregates) == 8
        for r in report.records:
            key = (f"ber.rate{r['rate']}.snr{r['snr_db']:g}"
                   f".k0{r['rician_k0_db']:g}")
            assert report.aggregates[key] == r["ber"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"rates": ["1_3", "3_4"]}, "rates: unknown rate label '3_4'"),
        ({"snrs_db": [15.0, float("nan")]}, "snrs_db must be finite"),
        ({"snrs_db": [None]}, "snrs_db must be finite"),
        ({"rician_k0_db_list": [3.0, float("inf")]},
         "rician_k0_db_list must be finite"),
        ({"max_codewords": 0}, "max_codewords must be at least 1"),
        ({"target_errors": 0}, "target_errors must be positive"),
        ({"max_codewords": 2.5}, "max_codewords must be an integer, got 2.5"),
        ({"max_codewords": True}, "max_codewords must be an integer, got True"),
        ({"target_errors": "5"}, "target_errors must be positive.*got '5'"),
        ({"target_errors": True}, "target_errors must be positive.*got True"),
        ({"target_errors": float("nan")}, "target_errors must be positive"),
        # one aggregate per point: values that share a key would drop one
        ({"snrs_db": [15.0, 15.0000001]},
         "snrs_db: two values share the aggregate key 'ber.rate1_3.snr15'"),
        ({"snrs_db": [15.0, 15]}, "snrs_db: two values share"),
        ({"rates": ["1_3", "1_2", "1_3"]}, "rates: two values share"),
        ({"rician_k0_db_list": [3.0, 6.0, 3.0]},
         "rician_k0_db_list: two values share the aggregate key "
         "'ber.rate1_3.snr15.k03'"),
        ({"rates": []}, "rates must not be empty"),
        ({"snrs_db": []}, "snrs_db must not be empty"),
        ({"rician_k0_db_list": []}, "rician_k0_db_list must not be empty"),
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
        result = correlation_surface(sc, n_trials=1)
        surf = result["surface"]
        assert surf.shape == (152, 50)
        tau_star, d_star = np.unravel_index(np.argmax(surf), surf.shape)
        expected_tau = (result["signal_offset_samples"] + 24) % 152
        assert tau_star == expected_tau
        assert result["candidates"][d_star] == result["k0"]

    def test_plain_surface_is_one_dimensional(self):
        # one column, at the one candidate 0, which is also k0
        sc = table1_scenario(sync_blocks=20, **CLASSICAL)
        result = correlation_surface(sc, n_trials=1)
        assert result["surface"].shape == (152,)
        assert list(result["candidates"]) == [0] and result["k0"] == 0

    @pytest.mark.parametrize("precoding, inits", [(True, 1), (False, 0)])
    def test_surface_derives_its_keystream_once(self, monkeypatch, precoding,
                                                inits):
        # the transmitted rows and the receiver's CP rows come from one
        # derive, which a repeat on the same key and epoch reuses;
        # classical OFDM (M = 1) needs no cipher at all
        calls = []
        cipher = keystream.Cipher
        monkeypatch.setattr(keystream, "Cipher",
                            lambda *a: calls.append(a) or cipher(*a))
        _phasor_rows.cache_clear()
        sc = table1_scenario(sync_blocks=10, **({} if precoding else CLASSICAL))
        correlation_surface(sc)
        assert len(calls) == inits
        correlation_surface(sc)
        assert len(calls) == inits
        correlation_surface(replace(sc, epoch=1))
        assert len(calls) == 2 * inits

    def test_jammer_offset_half_a_block_from_signal(self):
        result = correlation_surface(table1_scenario(sync_blocks=10))
        offsets = (result["signal_offset_samples"],
                   result["jammer_offset_samples"])
        assert all(type(o) is int and 0 <= o < 152 for o in offsets)
        assert (offsets[1] - offsets[0]) % 152 == 76

    def test_surface_csv_grid(self):
        sc = table1_scenario(sync_blocks=5)
        result = correlation_surface(sc)
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


# classical OFDM: the one-point phase alphabet and its one sequence offset
CLASSICAL = dict(psk_order=1, n_candidates=1)

BER_RUNS = [  # rate, scenario overrides, precoding flag, records digest
    ("1_3", {}, True,
     "fee3a6780e6fb80aa1b6556c4a38f918315304580ce7054f7ad137350b297bf2"),
    ("1_2", {}, False,
     "df9318137d63c6f324610a73e7dd16482262d33d20cbda0b3dd076f79d5f9c9d"),
    # the classical scenario itself: precoding=False (which bench/worker.py
    # still passes) is only its alias
    ("1_2", CLASSICAL, True,
     "df9318137d63c6f324610a73e7dd16482262d33d20cbda0b3dd076f79d5f9c9d"),
    # precoded with bit errors, so the jammer's secret rotations show
    ("1_2", {}, True,
     "a2be926f0b3bf2eb747387606781ed2ba5767017f7553e8a3f59b8932a57bc53"),
]

SYNC_RUNS = {
    "awgn": {},
    "multipath_random_cp": dict(channel="multipath", jammer_cp_mode="random_cp"),
    "doppler": dict(channel="doppler", max_doppler_normalized=0.02,
                    sync_blocks=30),
    "gaussian_jammer": dict(jammer_strategy="gaussian"),
    "no_jammer": dict(jammer_strategy="none"),
}

SYNC_DIGESTS = {
    "awgn": "1e98b9fcbb5c93328aff9249e6eaad2ab80ce55f5c990163d811a19759b06cf8",
    "multipath_random_cp":
        "b5fe69390a62572eb7388ad5dbdff9e8661100273aa93f37b1c9c9b4cf0b8bdd",
    "doppler":
        "5edb51d9c2010963bfdca97b1165cfd48eea6bace12bb8d993a4f9dbaae2c2c5",
    "gaussian_jammer":
        "789f50219e351e692620758d969cb3deb3e7d4ad73718bfc7f823f3713381ee8",
    "no_jammer":
        "34cd93cb8591869710245352d7c1b4f113e609f0808efa18679dc15d4f59c9bd",
}


class TestRecordsPinned:
    """Digests of small runs; a change of the transmit path that moves any
    sample of a sync trial or a surface, or of the LDPC encoder or decoder
    that moves any BER record or decoded bit, shows here."""

    @pytest.mark.blas_kernel
    @pytest.mark.parametrize("run", SYNC_RUNS)
    def test_sync_records(self, run):
        report = run_sync_experiment(
            table1_scenario(trials=20, **SYNC_RUNS[run]))
        assert sha256(report.records_csv()) == SYNC_DIGESTS[run]

    @pytest.mark.blas_kernel
    @pytest.mark.parametrize("overrides, precoding, digest", [
        ({}, True,
         "b4ca95e033fd7951efd0e9d2056a2648ed58342f1656caa3f303290c48282fe8"),
        ({}, False,
         "3561e837f6b8c79bc5b39b7ec7caa2e03d254bd5260d5b6d3c3122e62a382673"),
        # the classical scenario itself: precoding=False (which
        # bench/worker.py still passes) is only its alias
        (CLASSICAL, True,
         "3561e837f6b8c79bc5b39b7ec7caa2e03d254bd5260d5b6d3c3122e62a382673"),
    ], ids=["precoded", "classical", "classical_scenario"])
    def test_awgn_surfaces(self, overrides, precoding, digest):
        result = correlation_surface(
            table1_scenario(sync_blocks=10, **overrides),
            precoding=precoding, n_trials=2)
        assert sha256(result["surface"].tobytes()) == digest
        classical = bool(overrides) or not precoding
        assert result["surface"].ndim == (1 if classical else 2)
        if classical:  # one column, at candidate 0 and k0 0
            assert list(result["candidates"]) == [0] and result["k0"] == 0

    @pytest.mark.blas_kernel
    def test_multipath_precoded_surface(self):
        result = correlation_surface(
            table1_scenario(sync_blocks=10, channel="multipath"), n_trials=2)
        assert sha256(result["surface"].tobytes()) == (
            "8350dc9a95e421d618ff0e830c29e74ca3e03e2997375729b97f01a0bb3e3190")

    @pytest.mark.parametrize(  # ids as rate-flag-digest, plus a classical mark
        "rate, overrides, precoding, digest", BER_RUNS,
        ids=[f"{rate}{'-classical' * bool(o)}-{p}-{d}" for rate, o, p, d in BER_RUNS])
    def test_ber_records(self, rate, overrides, precoding, digest):
        scenario = table1_scenario(**overrides)
        report = run_ber_experiment(scenario, [rate], [15.0],
                                    precoding=precoding,
                                    target_errors=math.inf, max_codewords=50)
        # the report names what ran: the classical scenario for either form
        ran = scenario if precoding else table1_scenario(**CLASSICAL)
        assert report.scenario_hash == ran.scenario_hash()
        assert report.records[0]["precoding"] == int(ran.psk_order > 1)
        assert report.records[0]["codewords"] == 50
        assert sha256(report.records_csv()) == digest

    @pytest.mark.parametrize("rate, digest", [
        ("1_4", "62c05f1c63eed6aa3ee1c53c15402dc57d6771019b7f3144aafd3406dc2c8d52"),
        ("1_3", "cc5500dcd74058489f91a433c4c065247a231ebc34fb8f0b53ea0491cef95ea8"),
        ("1_2", "1560db7b086eecc0343a96d0cd7afff342019fb5ac1744f3eddefde41f8415fa"),
        ("2_3", "1cdf39df614c7556541ab47112aded63fafb68593a92c8f2847aa3d140ff8bbe"),
    ])
    def test_bp_decode(self, rate, digest):
        # frames of rising LLR reliability: one to three never converge, the
        # rest converge at different iterations
        enc = LdpcEncoder(builtin_code(rate))
        rng = np.random.default_rng(2024)
        cw = enc.encode(rng.integers(0, 2, size=(8, enc.k), dtype=np.uint8))
        mu = np.linspace(1.0, 8.0, 8)[:, None]
        llr = mu * (1 - 2.0 * cw) + np.sqrt(2 * mu) * rng.normal(size=cw.shape)
        hard, converged, iters = ldpc_bp_decode(enc.code, llr)
        assert 0 < converged.sum() < 8 and len(set(iters.tolist())) > 3
        assert sha256(hard.tobytes() + converged.tobytes()
                       + iters.astype(np.int64).tobytes()) == digest
