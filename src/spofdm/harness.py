"""Experiment orchestration: scenario presets, Monte-Carlo trial scheduling,
synchronization error CDFs, coded BER sweeps, correlation surfaces, and
CSV/text persistence.

Every experiment is a pure function of (scenario, master_seed): trial i uses
the dedicated RNG stream seeded by [master_seed, i], so reports reproduce
bit for bit and trials never share randomness.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._checks import check_int, check_real
from .channel import (FadingSpec, OffsetSpec, apply_fading, apply_offsets,
                      complex_normal, random_multipath_taps)
from .jammer import (CP_PHASE_MODES, STRATEGIES, JammerSpec, combine,
                     generate_jamming)
from .keystream import SecretKey, phase_plans, psk_phasors
from .rxchain import (BUILTIN_CODE_CHECKS, LdpcEncoder, builtin_code,
                      ldpc_bp_decode, llr_qpsk, qpsk_map)
from .sync import SyncConfig, pre_fft_surface, synchronize
from .txchain import (ComplexSignal, OfdmConfig, build_waveform,
                      random_symbol_blocks)

__all__ = [
    "Scenario",
    "ExperimentReport",
    "ScenarioFormatError",
    "table1_scenario",
    "run_sync_experiment",
    "run_ber_experiment",
    "correlation_surface",
    "load_scenario",
    "save_scenario",
    "emit_report",
]

DEFAULT_KEY_HEX = "000102030405060708090a0b0c0d0e0f"

CHANNEL_KINDS = ("awgn", "multipath", "doppler")


class ScenarioFormatError(ValueError):
    """Malformed or incomplete scenario file."""


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment.

    The channel field selects the impairment model: 'awgn' (offsets plus
    noise only), 'multipath' (static random-phase paths, tap m of power
    proportional to tap_decay**m) or 'doppler' (multipath with per-path
    Doppler shifts). sjr_db is the per-sample signal-to-jamming ratio in dB.
    The OFDM and sync configurations and the key are built once, when the
    scenario is, and every experiment reads those objects.
    """

    name: str = "table1"
    n_carriers: int = 128
    cp1_samples: int = 16
    cp2_samples: int = 8
    psk_order: int = 16
    pilot_positions: tuple = ((24, 1.0 + 0j), (32, 1.0 + 0j))
    snr_db: float = 15.0
    sjr_db: float = 0.0
    jammer_strategy: str = "disguised_ofdm"
    jammer_cp_mode: str = "plain_cp"
    channel: str = "awgn"
    n_paths: int = 4
    max_delay_samples: int = 3
    tap_decay: float = 0.1  # geometric tap power ratio; 1.0 = equal power
    max_doppler_normalized: float = 0.0  # peak Doppler in subcarrier spacings
    sync_blocks: int = 25
    n_candidates: int = 50
    n_l: int = -2
    n_u: int = 2
    trials: int = 500
    master_seed: int = 0
    key_hex: str = DEFAULT_KEY_HEX
    epoch: int = 0

    def __post_init__(self):
        # a float field is finite, so a missing SJR cannot switch jamming off,
        # and a float, so 15 and 15.0 serialize, and hash, alike
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                check_int(f.name, value)
            elif f.type == "float":
                object.__setattr__(self, f.name, float(check_real(f.name, value)))
            elif f.type == "str" and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        for name, kinds in (("channel", CHANNEL_KINDS), ("jammer_strategy", STRATEGIES),
                            ("jammer_cp_mode", CP_PHASE_MODES)):
            if (value := getattr(self, name)) not in kinds:
                raise ValueError(f"{name} must be one of {kinds}, got {value!r}")
        pilots = tuple((int(check_int("pilot_positions", i, 0)), v)
                       for i, v in self.pilot_positions)
        carriers = sorted(dict(pilots))
        if len(carriers) != len(pilots):  # ofdm_config would keep the last
            index = [i for i, _ in pilots]
            repeated = next(i for i in carriers if index.count(i) > 1)
            raise ValueError(f"pilot_positions: carrier {repeated} is repeated")
        # configurations under which every synchronization trial would fail
        if (len(carriers) < 2 or (carriers[1] - carriers[0]) * self.cp2_samples
                > self.n_carriers):
            raise ValueError(
                "pilot_positions: need two distinct pilots whose spacing times "
                "cp2_samples is at most n_carriers (unambiguous fine time)")
        for name in ("trials", "n_candidates", "sync_blocks", "n_paths"):
            check_int(name, getattr(self, name), 1)
        # one phase point: every candidate offset has the same CP phases
        if self.psk_order == 1 and self.n_candidates != 1:
            raise ValueError(f"n_candidates must be 1 when psk_order is 1, "
                             f"got {self.n_candidates!r}")
        if not 0 < self.tap_decay <= 1:
            raise ValueError(f"tap_decay must be in (0, 1], got {self.tap_decay!r}")
        for name, bound in (("master_seed", math.inf), ("epoch", 2 ** 32),
                            ("max_doppler_normalized", math.inf)):
            if not 0 <= (value := getattr(self, name)) < bound:
                raise ValueError(f"{name} must be in [0, {bound}), got {value!r}")
        # only the Doppler channel reads it: elsewhere it would be dropped
        if self.max_doppler_normalized and self.channel != "doppler":
            raise ValueError(f"max_doppler_normalized must be 0 unless channel "
                             f"is 'doppler', got {self.max_doppler_normalized!r}")
        # the guard interval: a longer echo leaks into the next block
        if not 0 <= self.max_delay_samples < self.cp1_samples + self.cp2_samples:
            raise ValueError("max_delay_samples must be in [0, cp1_samples + "
                             f"cp2_samples), got {self.max_delay_samples!r}")
        # their checks run here, not at the first trial
        object.__setattr__(self, "_ofdm", OfdmConfig(
            n_carriers=self.n_carriers, cp1_samples=self.cp1_samples,
            cp2_samples=self.cp2_samples, psk_order=self.psk_order,
            pilot_positions=dict(pilots)))
        # the values as OfdmConfig checked them and made them complex
        object.__setattr__(self, "pilot_positions",
                           tuple(self._ofdm.pilot_positions.items()))
        object.__setattr__(self, "_sync", SyncConfig(
            n_blocks=self.sync_blocks, n_candidates=self.n_candidates,
            n_l=self.n_l, n_u=self.n_u))
        # bins n0 and n0 + N_c coincide: the integer CFO would be aliased
        if self.n_u - self.n_l >= self.n_carriers:
            raise ValueError(f"n_l, n_u: n_u - n_l must be below n_carriers "
                             f"({self.n_carriers}), got {self.n_l}, {self.n_u}")
        try:
            object.__setattr__(self, "_key", SecretKey.from_hex(self.key_hex))
        except ValueError as exc:
            raise ValueError(f"key_hex: {exc}") from None

    def ofdm_config(self) -> OfdmConfig:
        return self._ofdm

    def sync_config(self) -> SyncConfig:
        return self._sync

    def key(self) -> SecretKey:
        return self._key

    def noise_sigma2(self) -> float:
        return self._ofdm.sample_power * 10 ** (-self.snr_db / 10)

    def jammer_power(self) -> float:
        return self._ofdm.sample_power * 10 ** (-self.sjr_db / 10)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["pilot_positions"] = {
            str(i): [v.real, v.imag] for i, v in self.pilot_positions
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def scenario_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def table1_scenario(**overrides) -> Scenario:
    """Canonical preset: 128 carriers, CP split 16+8 samples, 16-ary phase
    alphabet, 50 candidate sequence offsets, SNR 15 dB, SJR 0 dB."""
    return Scenario(**overrides)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario from a JSON file with descriptive validation errors."""
    try:
        payload = json.loads(Path(path).read_bytes().decode())
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    known = set(Scenario.__dataclass_fields__)
    unknown = set(payload) - known
    if unknown:
        raise ScenarioFormatError(
            f"{path}: unknown field(s) {sorted(unknown)}"
        )
    missing = known - set(payload)
    if missing:
        raise ScenarioFormatError(
            f"{path}: missing required field(s) {sorted(missing)}"
        )
    pilots = payload["pilot_positions"]
    try:
        payload["pilot_positions"] = tuple(
            (int(i), _pilot_value(i, v)) for i, v in sorted(
                pilots.items(), key=lambda kv: int(kv[0]))
        )
    except (AttributeError, ValueError) as exc:
        raise ScenarioFormatError(
            f"{path}: field 'pilot_positions' must map carrier index to "
            f"[real, imag]: {exc}"
        ) from exc
    try:
        return Scenario(**payload)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _pilot_value(carrier: str, value) -> complex:
    """A scenario file's pilot value: a list of two finite reals."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"carrier {carrier}: got {value!r}")
    return complex(*(check_real(f"carrier {carrier}", x) for x in value))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario.to_json())


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ExperimentReport:
    """Per-trial records plus aggregates; aggregates are always recomputable
    from the records."""

    kind: str
    scenario_hash: str
    columns: list
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def records_csv(self) -> str:
        return _csv_text(self.columns, ([rec[c] for c in self.columns]
                                        for rec in self.records))

    def aggregates_csv(self) -> str:
        return _csv_text(["key", "value"],
                         sorted(_flatten(self.aggregates).items()))

    def summary_text(self) -> str:
        lines = [
            f"experiment: {self.kind}",
            f"scenario_hash: {self.scenario_hash}",
            f"trials: {len(self.records)}",
            f"wall_clock_s: {self.wall_clock_s:.2f}",
        ]
        for key, value in sorted(_flatten(self.aggregates).items()):
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _csv_text(header: list, rows) -> str:
    """CSV lines; the writer prints a float as its repr and None as an
    empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple, np.ndarray)):
            out[name] = " ".join(repr(float(v)) for v in np.asarray(value).ravel())
        else:
            out[name] = value
    return out


def emit_report(report: ExperimentReport, out_dir: str | Path) -> dict:
    """Write records.csv, aggregates.csv and summary.txt; returns the paths.

    The CSV files are a pure function of (scenario, master_seed); only the
    text summary carries wall-clock metadata.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / f"{report.kind}_records.csv",
        "aggregates": out / f"{report.kind}_aggregates.csv",
        "summary": out / f"{report.kind}_summary.txt",
    }
    paths["records"].write_text(report.records_csv())
    paths["aggregates"].write_text(report.aggregates_csv())
    paths["summary"].write_text(report.summary_text())
    return paths


# ---------------------------------------------------------------------------
# Synchronization experiment


def _sent_blocks(scenario: Scenario) -> int:
    """Blocks one trial transmits, from its sequence offset k0 on."""
    return scenario.sync_blocks + 4


def _secret_phasors(scenario: Scenario) -> np.ndarray:
    """What every trial of one experiment shares. Keystream rows are a pure
    function of (key, epoch, block), so one read-only array serves every
    trial, and every experiment on the same key, epoch and sizes: row k is
    block k."""
    # the transmitter reads the most rows, at k0 = n_candidates - 1
    n_rows = scenario.n_candidates - 1 + _sent_blocks(scenario)
    return _phasor_rows(scenario.key(), scenario.epoch, n_rows,
                        scenario.n_carriers, scenario.psk_order)


@lru_cache(maxsize=8)
def _phasor_rows(key: SecretKey, epoch: int, n_rows: int, n_carriers: int,
                 psk_order: int) -> np.ndarray:
    phasors = psk_phasors(psk_order)[phase_plans(
        key, epoch, 0, n_rows, n_carriers, psk_order)]
    phasors.flags.writeable = False
    return phasors


def _draw_fading(scenario: Scenario,
                 rng: np.random.Generator) -> FadingSpec | None:
    if scenario.channel == "awgn":
        return None
    max_doppler = 0.0
    if scenario.channel == "doppler":
        # peak Doppler given in subcarrier spacings 1/T_s
        max_doppler = (2 * np.pi * scenario.max_doppler_normalized
                       / scenario.ofdm_config().t_body)
    taps = random_multipath_taps(
        rng, scenario.n_paths, scenario.max_delay_samples,
        max_doppler=max_doppler, decay=scenario.tap_decay)
    return FadingSpec(taps=taps)


def _draw_offsets(scenario: Scenario, rng: np.random.Generator) -> OffsetSpec:
    config = scenario.ofdm_config()
    delay = int(rng.integers(0, config.block_samples))
    nu = float(rng.uniform(scenario.n_l, scenario.n_u))
    omega0 = 2 * np.pi * nu / config.t_body
    phi0 = float(rng.uniform(0, 2 * np.pi))
    return OffsetSpec(delay=delay, omega0=omega0, phi0=phi0)


def _transmit(scenario: Scenario, rng: np.random.Generator,
              phasors: np.ndarray, offsets: OffsetSpec,
              jam_offsets) -> ComplexSignal:
    """Random symbol blocks, one per row of secret ``phasors`` (all one for
    classical OFDM), through the scenario's fading and the ``offsets``, plus
    jamming emitted with the offsets ``jam_offsets()`` returns, plus receiver
    noise. A silent jammer draws no offsets, so the noise keeps its RNG place."""
    config = scenario.ofdm_config()
    blocks = random_symbol_blocks(rng, len(phasors), config)
    wave = build_waveform(blocks, phasors, config)
    fading = _draw_fading(scenario, rng)
    if fading is not None:
        wave = apply_fading(wave, fading)
    wave = apply_offsets(wave, offsets)
    jam_spec = JammerSpec(
        strategy=scenario.jammer_strategy,
        power=scenario.jammer_power(),
        offsets=(OffsetSpec() if scenario.jammer_strategy == "none"
                 else jam_offsets()),
        cp_phase_mode=scenario.jammer_cp_mode,
    )
    jam = generate_jamming(jam_spec, config, wave.samples.size, rng)
    return combine(wave, jam, scenario.noise_sigma2(), rng)


def _sync_trial(scenario: Scenario, trial: int, phasors: np.ndarray) -> dict:
    config = scenario.ofdm_config()
    rng = np.random.default_rng([scenario.master_seed, trial])

    k0 = int(rng.integers(0, scenario.n_candidates))
    offsets = _draw_offsets(scenario, rng)
    nu_true = offsets.omega0 * config.t_body / (2 * np.pi)

    r = _transmit(scenario, rng, phasors[k0:k0 + _sent_blocks(scenario)],
                  offsets, lambda: _draw_offsets(scenario, rng))

    t0_true = offsets.delay * config.sample_interval
    record = {
        "trial": trial,
        "t0_true": t0_true,
        "k0_true": k0,
        "nu_true": nu_true,
        "time_error": math.nan,
        "freq_error": math.nan,
        "peak_metric": math.nan,
        "low_confidence": 0,
        "error": None,
    }
    try:
        est, _ = synchronize(r, config, scenario.sync_config(), phasors)
    except ValueError as exc:  # estimation failures are recorded, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    delta = est.frame_time(config) - (t0_true - k0 * config.t_block)
    delta -= config.t_block * round(delta / config.t_block)
    record["time_error"] = abs(delta) / config.t_block
    record["freq_error"] = abs(est.total_cfo_normalized() - nu_true)
    record["peak_metric"] = est.peak_metric
    record["low_confidence"] = int(est.low_confidence)
    return record


SYNC_COLUMNS = ["trial", "t0_true", "k0_true", "nu_true", "time_error",
                "freq_error", "peak_metric", "low_confidence", "error"]

TIME_THRESHOLDS = (0.01, 0.02, 0.05)
FREQ_THRESHOLDS = (0.02, 0.04, 0.1)


def _cdf_fraction(errors: np.ndarray, threshold: float) -> float:
    """Fraction of trials below the threshold; failed trials count against."""
    below = np.sum(errors[np.isfinite(errors)] < threshold)
    return float(below / errors.size)


def run_sync_experiment(scenario: Scenario) -> ExperimentReport:
    """Monte-Carlo synchronization error CDFs.

    Per trial: random offsets, sequence offset and data are drawn, the full
    received signal (fading, jamming, noise) is built and the two-stage
    synchronizer runs. Errors are normalized: time by the block duration,
    frequency by the subcarrier spacing. The secret phasors are derived once
    and shared by all trials.
    """
    start = time.monotonic()
    phasors = _secret_phasors(scenario)
    records = [_sync_trial(scenario, t, phasors) for t in range(scenario.trials)]

    time_err = np.array([r["time_error"] for r in records])
    freq_err = np.array([r["freq_error"] for r in records])
    aggregates = {
        "n_failed": int(sum(r["error"] is not None for r in records)),
        "time_cdf": {f"lt_{t}": _cdf_fraction(time_err, t) for t in TIME_THRESHOLDS},
        "freq_cdf": {f"lt_{t}": _cdf_fraction(freq_err, t) for t in FREQ_THRESHOLDS},
        "time_error_sorted": np.sort(time_err[np.isfinite(time_err)]),
        "freq_error_sorted": np.sort(freq_err[np.isfinite(freq_err)]),
    }
    return ExperimentReport(
        kind="sync",
        scenario_hash=scenario.scenario_hash(),
        columns=SYNC_COLUMNS,
        records=records,
        aggregates=aggregates,
        wall_clock_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Coded BER experiment (symbol level, perfect synchronization)


@lru_cache(maxsize=None)
def _encoder_for_rate(rate_label: str) -> LdpcEncoder:
    return LdpcEncoder(builtin_code(rate_label))


def _ber_point(scenario: Scenario, rate_label: str, snr_db: float,
               rician_k0_db: float | None, seed_tag: int,
               target_errors: int, max_codewords: int) -> dict:
    """BER at one (rate, SNR) operating point.

    Unit-power QPSK symbols; the jammer transmits an independent codeword
    from the same codebook at equal symbol power; the secret M-PSK rotation
    randomizes the jamming term (classical OFDM, M = 1: no rotation). Perfect
    synchronization and, on fading channels, perfect channel knowledge are
    assumed. Stops once target_errors bit errors accumulate.
    """
    enc = _encoder_for_rate(rate_label)
    code = enc.code
    rng = np.random.default_rng([scenario.master_seed, 7001, seed_tag])
    sigma2 = 10 ** (-snr_db / 10)
    jam_amp = 10 ** (-scenario.sjr_db / 20)
    m = scenario.psk_order
    rotations = psk_phasors(m)

    n_sym = code.n // 2
    bit_errors = 0
    bits_counted = 0
    codewords = 0
    while bit_errors < target_errors and codewords < max_codewords:
        b = min(25, max_codewords - codewords)  # codewords per batch
        msg = rng.integers(0, 2, size=(b, enc.k)).astype(np.uint8)
        cw = enc.encode(msg)
        s = qpsk_map(cw.ravel()).reshape(b, n_sym)

        jam_msg = rng.integers(0, 2, size=(b, enc.k)).astype(np.uint8)
        j = (qpsk_map(enc.encode(jam_msg).ravel()).reshape(b, n_sym) * jam_amp
             * rotations[rng.integers(0, m, size=(b, n_sym))])

        noise = complex_normal(rng, sigma2, (b, n_sym))

        h = 1.0  # flat channel
        if rician_k0_db is not None:
            # direct path plus diffuse component with power ratio K0,
            # normalized to unit average gain so the sweep isolates fading
            # severity; the fade is constant over one OFDM block and
            # independent across blocks
            k0_lin = 10 ** (rician_k0_db / 10)
            n_groups = -(-n_sym // scenario.n_carriers)
            diffuse = complex_normal(rng, 1 / k0_lin, (b, n_groups))
            h_blocks = (1 + diffuse) / math.sqrt(1 + 1 / k0_lin)
            h = np.repeat(h_blocks, scenario.n_carriers, axis=1)[:, :n_sym]
        y = h * s + j + noise
        # matched filter with the known gains: the LLR of conj(h)*y at noise
        # power N is that of the equalized y/h at N/|h|^2
        llr = llr_qpsk((np.conj(h) * y).ravel(), jam_amp ** 2 + sigma2)
        hard, _, _ = ldpc_bp_decode(code, llr.reshape(b, code.n))
        decoded_msg = enc.extract_message(hard)
        bit_errors += int(np.sum(decoded_msg != msg))
        bits_counted += msg.size
        codewords += b

    ber = bit_errors / bits_counted
    return {
        "rate": rate_label,
        "snr_db": snr_db,
        "precoding": int(m > 1),
        "rician_k0_db": rician_k0_db,
        "codewords": codewords,
        "bits": bits_counted,
        "bit_errors": bit_errors,
        "ber": ber,
    }


BER_COLUMNS = ["rate", "snr_db", "precoding", "rician_k0_db", "codewords",
               "bits", "bit_errors", "ber"]


def _ber_key(rate: str, snr_db: float, rician_k0_db: float | None) -> str:
    """The aggregate key of one BER point."""
    return (f"ber.rate{rate}.snr{snr_db:g}"
            + ("" if rician_k0_db is None else f".k0{rician_k0_db:g}"))


def run_ber_experiment(scenario: Scenario, rates: list, snrs_db: list,
                       precoding: bool = True,
                       rician_k0_db_list: list | None = None,
                       target_errors: int = 100,
                       max_codewords: int = 200) -> ExperimentReport:
    """Coded BER sweep over (rate, SNR) points, optionally over Rician K0.

    Runs at the symbol level with perfect synchronization; the disguised
    jammer sends an independent codeword from the same codebook at the
    scenario's SJR. ``precoding=False`` is an alias for the classical
    scenario (``psk_order`` and ``n_candidates`` 1), whose hash the report
    carries. Every argument is checked before the first point runs, and no
    two points may share an aggregate key.
    """
    if not precoding:
        scenario = replace(scenario, psk_order=1, n_candidates=1)
    start = time.monotonic()
    k0_list = [None] if rician_k0_db_list is None else rician_k0_db_list
    for rate in rates:
        if rate not in BUILTIN_CODE_CHECKS:
            raise ValueError(f"rates: unknown rate label {rate!r}")
    for name, values in (("snrs_db", snrs_db),
                         ("rician_k0_db_list", rician_k0_db_list or [])):
        for value in values:
            check_real(name, value)
    # one aggregate per point: no two values of an argument may share a key
    sweep = {"rates": rates, "snrs_db": snrs_db, "rician_k0_db_list": k0_list}
    for name, values in sweep.items():
        if not values:
            raise ValueError(f"{name} must not be empty")
    first = [values[0] for values in sweep.values()]
    for axis, (name, values) in enumerate(sweep.items()):
        keys = [_ber_key(*first[:axis], v, *first[axis + 1:]) for v in values]
        if repeated := next((k for k in keys if keys.count(k) > 1), None):
            raise ValueError(f"{name}: two values share the aggregate key "
                             f"{repeated!r}")
    check_int("max_codewords", max_codewords, 1)
    if (isinstance(target_errors, bool)
            or not isinstance(target_errors, numbers.Real) or not target_errors > 0):
        raise ValueError(f"target_errors must be positive and real (math.inf "
                         f"allowed), got {target_errors!r}")
    records = [_ber_point(scenario, rate, float(snr), k0_db, tag,
                          target_errors, max_codewords)
               for tag, (k0_db, rate, snr)
               in enumerate(itertools.product(k0_list, rates, snrs_db))]
    aggregates = {_ber_key(r["rate"], r["snr_db"], r["rician_k0_db"]): r["ber"]
                  for r in records}
    return ExperimentReport(
        kind="ber",
        scenario_hash=scenario.scenario_hash(),
        columns=BER_COLUMNS,
        records=records,
        aggregates=aggregates,
        wall_clock_s=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Correlation surfaces


def correlation_surface(scenario: Scenario, precoding: bool = True,
                        n_trials: int = 1) -> dict:
    """Trial-averaged magnitude of the pre-FFT correlation.

    The surface spans the (time offset, candidate sequence offset) grid; a
    classical scenario (``psk_order`` 1, which ``precoding=False`` sets)
    gives its one column, whose candidate is 0, as is its k0. The signal
    goes through the scenario's channel. The legitimate time offset is drawn
    once and the jammer sits half a block from it; both stay fixed across
    trials so the averaged peaks do not smear, while data, fading, jamming
    and noise are redrawn. Returns the surface, the axes, and the true
    offsets in samples.
    """
    if not precoding:
        scenario = replace(scenario, psk_order=1, n_candidates=1)
    check_int("n_trials", n_trials, 1)
    config, sync_cfg = scenario.ofdm_config(), scenario.sync_config()
    phasors = _secret_phasors(scenario)
    seed_rng = np.random.default_rng([scenario.master_seed, 4242])
    block = config.block_samples
    signal_offset_samples = int(seed_rng.integers(0, block))
    jammer_offset_samples = (signal_offset_samples + block // 2) % block
    k0 = int(seed_rng.integers(0, scenario.n_candidates))

    sent = phasors[k0:k0 + _sent_blocks(scenario)]
    acc = 0.0
    for trial in range(n_trials):
        rng = np.random.default_rng([scenario.master_seed, 4242, trial])
        r = _transmit(scenario, rng, sent,
                      OffsetSpec(delay=signal_offset_samples),
                      lambda: OffsetSpec(delay=jammer_offset_samples))
        acc = acc + np.abs(pre_fft_surface(r, config, sync_cfg, phasors))

    return {
        "surface": (acc[:, 0] if scenario.psk_order == 1 else acc) / n_trials,
        "tau_samples": np.arange(block),
        "candidates": sync_cfg.candidates,
        "signal_offset_samples": signal_offset_samples,
        "jammer_offset_samples": jammer_offset_samples,
        "k0": k0,
    }


def surface_csv(result: dict) -> str:
    """Plot-ready CSV of a correlation surface (one row per grid cell)."""
    surf = result["surface"]
    if surf.ndim == 1:
        return _csv_text(["tau_samples", "magnitude"],
                         zip(result["tau_samples"], surf))
    return _csv_text(["tau_samples", "candidate", "magnitude"], (
        [tau, d, surf[i, j]]
        for i, tau in enumerate(result["tau_samples"])
        for j, d in enumerate(result["candidates"])))
