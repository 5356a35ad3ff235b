"""Adversary strategies under an average power constraint.

The disguised OFDM jammer emits an independent OFDM waveform with the same
format as the legitimate signal (same carrier count, CP split, constellation)
but its own data, key material and offsets, scaled to the requested average
per-sample power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import OffsetSpec, add_awgn, apply_offsets, complex_normal
from .txchain import ComplexSignal, OfdmConfig, modulate_block, random_symbol_blocks

__all__ = ["JammerSpec", "generate_jamming", "combine"]

STRATEGIES = ("none", "gaussian", "disguised_ofdm")
CP_PHASE_MODES = ("plain_cp", "random_cp")


class JammerConfigError(ValueError):
    pass


@dataclass(frozen=True)
class JammerSpec:
    """Strategy and power of the adversary.

    ``power`` is the average per-sample power of the emitted waveform.
    """

    strategy: str = "none"
    power: float = 0.0
    offsets: OffsetSpec = field(default_factory=OffsetSpec)
    cp_phase_mode: str = "plain_cp"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise JammerConfigError(f"unknown strategy {self.strategy!r}")
        if self.cp_phase_mode not in CP_PHASE_MODES:
            raise JammerConfigError(f"unknown cp_phase_mode {self.cp_phase_mode!r}")
        if self.power < 0:
            raise JammerConfigError("jamming power must be non-negative")


def generate_jamming(spec: JammerSpec, config: OfdmConfig, duration_samples: int,
                     rng: np.random.Generator | int) -> ComplexSignal:
    """Jamming waveform of the requested length.

    The jammer's randomness (data, CP phases, offsets) comes from its own RNG
    stream, independent of the legitimate transmitter's keystream.
    """
    if duration_samples <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    dt = config.sample_interval

    if spec.strategy == "none" or spec.power == 0.0:
        return ComplexSignal(np.zeros(duration_samples, dtype=complex), dt)

    if spec.strategy == "gaussian":
        return ComplexSignal(complex_normal(rng, spec.power, (duration_samples,)), dt)

    # disguised_ofdm: independent data, own offsets, classical or random CP1.
    n_blocks = -(-duration_samples // config.block_samples) + 2
    blocks = random_symbol_blocks(rng, n_blocks, config)
    cp_phases = 1.0
    if spec.cp_phase_mode == "random_cp":
        m = config.psk_order
        cp_phases = np.exp(2j * np.pi * rng.integers(0, m, n_blocks) / m)
    wave = modulate_block(blocks, cp_phases, config)
    wave = apply_offsets(wave, spec.offsets)
    samples = wave.samples[:duration_samples]
    # CP samples carry the same per-sample power as the body, so the analytic
    # mean per-sample power of the OFDM waveform is P_S/N_c.
    mean_power = config.symbol_power / config.n_carriers
    return ComplexSignal(samples * np.sqrt(spec.power / mean_power), dt)


def combine(signal: ComplexSignal, jam: ComplexSignal, noise_sigma2: float,
            rng: np.random.Generator | int) -> ComplexSignal:
    """Elementwise sum of signal, jamming and AWGN (shorter input zero-padded)."""
    n = max(signal.samples.size, jam.samples.size)
    total = np.zeros(n, dtype=complex)
    total[: signal.samples.size] += signal.samples
    total[: jam.samples.size] += jam.samples
    return add_awgn(ComplexSignal(total, signal.sample_interval), noise_sigma2, rng)
