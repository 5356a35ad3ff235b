"""Adversary strategies under an average power constraint.

The disguised OFDM jammer emits an independent OFDM waveform with the same
format as the legitimate signal (same carrier count, CP split, constellation)
but its own data, key material and offsets, scaled to the requested average
per-sample power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import check_int, check_real
from .channel import OffsetSpec, add_awgn, apply_offsets, complex_normal
from .keystream import psk_phasors
from .txchain import ComplexSignal, OfdmConfig, modulate_block, random_symbol_blocks

__all__ = ["JammerSpec", "generate_jamming", "combine"]

STRATEGIES = ("none", "gaussian", "disguised_ofdm")
CP_PHASE_MODES = ("plain_cp", "random_cp")


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
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.cp_phase_mode not in CP_PHASE_MODES:
            raise ValueError(f"unknown cp_phase_mode {self.cp_phase_mode!r}")
        check_real("power", self.power, 0)


def generate_jamming(spec: JammerSpec, config: OfdmConfig, duration_samples: int,
                     rng: np.random.Generator | int) -> ComplexSignal:
    """Jamming waveform of the requested length.

    The jammer's randomness (data, CP phases, offsets) comes from its own RNG
    stream, independent of the legitimate transmitter's keystream.
    """
    check_int("duration_samples", duration_samples, 1)
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    dt = config.sample_interval

    if spec.strategy == "none" or spec.power == 0.0:
        return ComplexSignal(np.zeros(duration_samples, dtype=complex), dt)

    if spec.strategy == "gaussian":
        return ComplexSignal(complex_normal(rng, spec.power, (duration_samples,)), dt)

    # disguised_ofdm: independent data, own offsets, and CP1 phases from the
    # link's M-PSK alphabet (random_cp) or the one-point alphabet (plain_cp)
    n_blocks = -(-duration_samples // config.block_samples)
    blocks = random_symbol_blocks(rng, n_blocks, config)
    m = config.psk_order if spec.cp_phase_mode == "random_cp" else 1
    cp_phases = psk_phasors(m)[rng.integers(0, m, n_blocks)]
    wave = modulate_block(blocks, cp_phases, config)
    # offsets act sample by sample, so only the kept samples are rotated
    samples = apply_offsets(ComplexSignal(wave.samples[:duration_samples], dt),
                            spec.offsets).samples
    return ComplexSignal(samples * np.sqrt(spec.power / config.sample_power), dt)


def combine(signal: ComplexSignal, jam: ComplexSignal, noise_sigma2: float,
            rng: np.random.Generator | int) -> ComplexSignal:
    """Elementwise sum of signal, jamming and AWGN (shorter input zero-padded)."""
    short, long = sorted((signal.samples, jam.samples), key=len)
    total = long.copy()
    total[: short.size] += short
    return add_awgn(ComplexSignal(total, signal.sample_interval), noise_sigma2, rng)
