"""The one list of argument rules. Every public count, index and power is
rejected by name: a bool, a fractional value, a float even when it is
integral, a value below range and, for a real, NaN and infinities each raise
a ValueError whose message starts with the argument's name, and so does a
pilot value that is not a number of finite nonzero magnitude. The two
checks behind them give one message for each kind of value, whatever its
type."""

import enum
import math
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spofdm._checks import check_int, check_real
from spofdm.avc import (InputDist, SymbolChannelSpec, avc_capacity, mi_estimate,
                        simulate_symbol_channel)
from spofdm.channel import (FadingSpec, OffsetSpec, add_awgn,
                            random_multipath_taps)
from spofdm.harness import (correlation_surface, run_ber_experiment,
                            table1_scenario)
from spofdm.jammer import JammerSpec, generate_jamming
from spofdm.keystream import PhaseSequence, phase_plans, psk_phasors
from spofdm.rxchain import (ParityCheckCode, llr_qpsk,
                            make_regular_parity_check)
from spofdm.sync import SyncConfig
from spofdm.txchain import ComplexSignal, phase_ramp, random_symbol_blocks
from support import CONFIG, KEY

INTEGER = (True, 2.5, 3.0)
COUNT = INTEGER + (0,)   # at least 1
INDEX = INTEGER + (-1,)  # at least 0
REAL = (True, math.nan, math.inf, -math.inf)
POWER = REAL + (-1.0,)   # at least 0
PSK_ORDER = COUNT + (3, 12)  # a power of 2
# a pilot value is a number, not a bool or a string, with a finite nonzero
# magnitude
PILOT = (True, "1", "1+1j", None, math.nan, 0.0)


def _plans(**arg):
    return phase_plans(**{"key": KEY, "epoch": 0, "k_first": 0, "count": 1,
                          "n_carriers": 128, "psk_order": 16, **arg})


def _code(**field):
    return ParityCheckCode(**{"n": 2, "m": 1, "check_of_edge": np.zeros(2, int),
                              "var_of_edge": np.arange(2), **field})


# (entry point, argument, call with the bad value, bad values)
ENTRY_POINTS = [
    *[("Scenario", name, lambda v, name=name: table1_scenario(**{name: v}), COUNT)
      for name in ("trials", "n_candidates", "sync_blocks", "n_paths")],
    *[("Scenario", name, lambda v, name=name: table1_scenario(**{name: v}), INDEX)
      for name in ("epoch", "master_seed")],
    *[("Scenario", name, lambda v, name=name: table1_scenario(**{name: v}), REAL)
      for name in ("snr_db", "sjr_db")],
    ("run_ber_experiment", "max_codewords", lambda v: run_ber_experiment(
        table1_scenario(), ["1_3"], [15.0], max_codewords=v), COUNT),
    ("run_ber_experiment", "snrs_db", lambda v: run_ber_experiment(
        table1_scenario(), ["1_3"], [v]), REAL),
    ("run_ber_experiment", "rician_k0_db_list", lambda v: run_ber_experiment(
        table1_scenario(), ["1_3"], [15.0], rician_k0_db_list=[v]), REAL),
    ("correlation_surface", "n_trials", lambda v: correlation_surface(
        table1_scenario(), n_trials=v), COUNT),
    *[("SyncConfig", name, lambda v, name=name: SyncConfig(**{name: v}), COUNT)
      for name in ("n_blocks", "n_candidates")],
    *[("SyncConfig", name, lambda v, name=name: SyncConfig(**{name: v}), INTEGER)
      for name in ("n_l", "n_u")],
    ("SymbolChannelSpec", "noise_power",
     lambda v: SymbolChannelSpec(noise_power=v), POWER),
    ("SymbolChannelSpec", "phase_order",
     lambda v: SymbolChannelSpec(phase_order=v), COUNT),
    ("InputDist", "power", lambda v: InputDist("gaussian", v), POWER),
    *[("avc_capacity", name,
       lambda v, name=name: avc_capacity(**{"p_s": 1.0, "p_j": 1.0, "p_n": 1.0,
                                            name: v}), POWER)
      for name in ("p_s", "p_j", "p_n")],
    ("mi_estimate", "n_samples", lambda v: mi_estimate(
        SymbolChannelSpec(), InputDist.qpsk(), v, 0), COUNT),
    ("simulate_symbol_channel", "n_samples", lambda v: simulate_symbol_channel(
        SymbolChannelSpec(), InputDist.qpsk(), v, 0), COUNT),
    ("OffsetSpec", "delay", lambda v: OffsetSpec(delay=v), INDEX),
    *[("OffsetSpec", name, lambda v, name=name: OffsetSpec(**{name: v}), REAL)
      for name in ("omega0", "phi0")],
    ("FadingSpec", "tap delay", lambda v: FadingSpec(taps=((v, 1.0, 0.0),)),
     INDEX),
    ("FadingSpec", "tap doppler", lambda v: FadingSpec(taps=((0, 1.0, v),)),
     REAL),
    ("random_multipath_taps", "n_paths",
     lambda v: random_multipath_taps(np.random.default_rng(0), v, 3), COUNT),
    ("random_multipath_taps", "max_delay",
     lambda v: random_multipath_taps(np.random.default_rng(0), 4, v), INDEX),
    ("random_multipath_taps", "max_doppler", lambda v: random_multipath_taps(
        np.random.default_rng(0), 4, 3, max_doppler=v), POWER),
    ("random_multipath_taps", "decay", lambda v: random_multipath_taps(
        np.random.default_rng(0), 4, 3, decay=v), REAL + (0.0,)),
    ("add_awgn", "sigma2",
     lambda v: add_awgn(ComplexSignal(np.zeros(4), 1.0), v, 0), POWER),
    *[("OfdmConfig", name,
       lambda v, name=name: replace(CONFIG, **{name: v}), COUNT)
      for name in ("n_carriers", "cp1_samples", "cp2_samples")],
    ("OfdmConfig", "psk_order", lambda v: replace(CONFIG, psk_order=v),
     PSK_ORDER),
    ("ComplexSignal", "sample_interval",
     lambda v: ComplexSignal(np.zeros(2), v), REAL + (0.0, -1.0)),
    ("random_symbol_blocks", "n_blocks", lambda v: random_symbol_blocks(
        np.random.default_rng(0), v, CONFIG), COUNT),
    ("phase_plans", "psk_order", lambda v: _plans(psk_order=v), PSK_ORDER),
    ("phase_plans", "epoch", lambda v: _plans(epoch=v), INTEGER),
    ("phase_plans", "k_first", lambda v: _plans(k_first=v), INDEX),
    ("phase_plans", "count", lambda v: _plans(count=v), COUNT),
    ("phase_plans", "n_carriers", lambda v: _plans(n_carriers=v), COUNT),
    # at construction, before any block is derived
    ("PhaseSequence", "psk_order", lambda v: PhaseSequence(KEY, 0, 128, v),
     PSK_ORDER),
    ("PhaseSequence", "epoch", lambda v: PhaseSequence(KEY, v, 128, 16),
     INTEGER),
    ("PhaseSequence", "n_carriers", lambda v: PhaseSequence(KEY, 0, v, 16),
     COUNT),
    ("generate_jamming", "duration_samples", lambda v: generate_jamming(
        JammerSpec("disguised_ofdm", 1.0), CONFIG, v, 0), COUNT),
    ("JammerSpec", "power", lambda v: JammerSpec("gaussian", v), POWER),
    ("llr_qpsk", "noise_power_model",
     lambda v: llr_qpsk(np.zeros(2, dtype=complex), v), REAL + (0.0,)),
    *[("ParityCheckCode", name, lambda v, name=name: _code(**{name: v}), COUNT)
      for name in ("n", "m")],
    ("psk_phasors", "psk_order", psk_phasors, COUNT),
    *[("phase_ramp", name, lambda v, name=name: phase_ramp(
        0.1, 0.0, **{"n": 4, "first": 0, name: v}), INDEX)
      for name in ("n", "first")],
    *[("make_regular_parity_check", name,
       lambda v, name=name: make_regular_parity_check(
           **{"n": 20, "m": 10, "col_degree": 3, name: v}), COUNT + (20.0,))
      for name in ("n", "m", "col_degree")],
    ("OfdmConfig", "pilot_positions",
     lambda v: replace(CONFIG, pilot_positions={v: 1.0}), INDEX),
    ("Scenario", "pilot_positions", lambda v: table1_scenario(
        pilot_positions=((v, 1.0), (32, 1.0))), INDEX),
    ("OfdmConfig-value", "pilot_positions",
     lambda v: replace(CONFIG, pilot_positions={24: v}), PILOT),
    ("Scenario-value", "pilot_positions", lambda v: table1_scenario(
        pilot_positions=((24, v), (32, 1.0))), PILOT),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, call, values in ENTRY_POINTS for value in values])
def test_bad_argument_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(value)


class _Int(int):
    pass


class _Float(float):
    pass


class _Enum(enum.IntEnum):
    THREE = 3


BIG = 10 ** 400  # an integer beyond the float range

# (value, accepted by check_int, accepted by check_real): exact ints and
# floats skip the numbers ABCs, and every other type must get the answer
# those ABCs give; an accepted value below the bound 0 is rejected as such
ARGUMENT_TYPES = [
    (3, True, True),
    (2.5, False, True),
    (3.0, False, True),
    (True, False, False),
    (np.True_, False, False),
    (Decimal("1.5"), False, False),
    (1 + 0j, False, False),
    ("3", False, False),
    (None, False, False),
    (math.nan, False, False),
    (math.inf, False, False),
    (BIG, True, False),
    (-1, True, True),
    (-2.5, False, True),
    (np.int64(3), True, True),
    (_Int(3), True, True),
    (_Enum.THREE, True, True),
    (np.float64(2.5), False, True),
    (_Float(2.5), False, True),
    (Fraction(1, 2), False, True),
]


@pytest.mark.parametrize(
    "value, as_int, as_real", ARGUMENT_TYPES,
    ids=["10**400" if row[0] is BIG else repr(row[0]) for row in ARGUMENT_TYPES])
def test_argument_rule_by_type(value, as_int, as_real):
    for check, accepted, rule in ((check_int, as_int, "an integer"),
                                  (check_real, as_real, "finite and real")):
        if accepted and value >= 0:
            assert check("x", value, 0) is value
            continue
        message = ("x must be at least 0" if accepted
                   else f"x must be {rule}, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check("x", value, 0)
