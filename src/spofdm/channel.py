"""Channel impairments: time/frequency/phase offsets, multipath fading, AWGN."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .txchain import ComplexSignal

__all__ = [
    "OffsetSpec",
    "FadingSpec",
    "apply_offsets",
    "apply_fading",
    "add_awgn",
    "random_multipath_taps",
    "rician_taps",
]


@dataclass(frozen=True)
class OffsetSpec:
    """Time, carrier frequency and phase offsets of the received signal."""

    t0: float = 0.0
    omega0: float = 0.0  # rad/s
    phi0: float = 0.0

    def __post_init__(self):
        if self.t0 < 0:
            raise ValueError("t0 must be non-negative")


@dataclass(frozen=True)
class FadingSpec:
    """Multipath profile: taps of (delay seconds, complex gain, doppler rad/s)."""

    taps: tuple = field(default_factory=lambda: ((0.0, 1.0 + 0j, 0.0),))

    def __post_init__(self):
        for delay, _, _ in self.taps:
            if delay < 0:
                raise ValueError("tap delays must be non-negative")


def _delay(x: np.ndarray, n: int) -> np.ndarray:
    """x delayed by n whole samples, zero-filled, same length."""
    out = np.zeros_like(x)
    if n < x.size:
        out[n:] = x[: x.size - n] if n else x
    return out


def apply_offsets(signal: ComplexSignal, spec: OffsetSpec,
                  t_block: float | None = None,
                  interpolate: bool = False) -> ComplexSignal:
    """Delay by t0 and rotate by e^{j(omega0 t + phi0)} (phase on absolute time).

    t0 is placed on the sample grid by default; ``interpolate=True`` enables
    linear interpolation for sub-sample offsets.
    """
    if t_block is not None and not 0 <= spec.t0 < t_block:
        raise ValueError(f"t0={spec.t0} outside [0, {t_block})")
    dt = signal.sample_interval
    x = signal.samples
    shift = spec.t0 / dt
    n_int = int(round(shift))
    if abs(shift - n_int) < 1e-9:
        delayed = _delay(x, n_int)
    elif interpolate:
        n0 = int(np.floor(shift))
        frac = shift - n0
        src = np.zeros(x.size + 1, dtype=complex)
        src[1:] = x
        delayed = _delay((1 - frac) * src[1:] + frac * src[:-1], n0)
    else:
        raise ValueError(
            "t0 not on the sample grid; pass interpolate=True for sub-sample offsets"
        )
    t = signal.start_time + np.arange(x.size) * dt
    rotated = delayed * np.exp(1j * (spec.omega0 * t + spec.phi0))
    return ComplexSignal(rotated, dt, signal.start_time)


def apply_fading(signal: ComplexSignal, spec: FadingSpec,
                 cp_bound: float | None = None) -> ComplexSignal:
    """Sum of delayed, Doppler-shifted, scaled copies of the input.

    output(t) = sum_m gain_m * e^{j doppler_m t} * input(t - delay_m), with tap
    delays rounded to the sample grid.
    """
    dt = signal.sample_interval
    x = signal.samples
    t = signal.start_time + np.arange(x.size) * dt
    out = np.zeros_like(x)
    for delay, gain, doppler in spec.taps:
        if cp_bound is not None and delay >= cp_bound:
            warnings.warn(
                f"tap delay {delay} exceeds CP bound {cp_bound}; ISI expected",
                stacklevel=2,
            )
        out += gain * np.exp(1j * doppler * t) * _delay(x, int(round(delay / dt)))
    return ComplexSignal(out, dt, signal.start_time)


def add_awgn(signal: ComplexSignal, sigma2: float,
             rng: np.random.Generator | int) -> ComplexSignal:
    """Add circularly symmetric complex Gaussian noise of variance sigma2."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    if sigma2 == 0:
        return ComplexSignal(signal.samples.copy(), signal.sample_interval,
                             signal.start_time)
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    n = signal.samples.size
    noise = rng.normal(0.0, np.sqrt(sigma2 / 2), size=(n, 2))
    return ComplexSignal(signal.samples + noise[:, 0] + 1j * noise[:, 1],
                         signal.sample_interval, signal.start_time)


def random_multipath_taps(rng: np.random.Generator, n_paths: int,
                          max_delay: float, total_power: float = 1.0,
                          max_doppler: float = 0.0, decay: float = 1.0) -> tuple:
    """Multipath taps with uniform random phases and a geometric power
    profile.

    Delays are spread uniformly over [0, max_delay]; tap m carries power
    proportional to decay**m (decay=1 gives equal powers), normalized to
    total_power. Per-tap Doppler shifts are drawn uniformly in
    [-max_doppler, max_doppler] (rad/s).
    """
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    delays = np.linspace(0.0, max_delay, n_paths)
    powers = decay ** np.arange(n_paths)
    powers *= total_power / powers.sum()
    taps = []
    for d, p in zip(delays, powers):
        phase = rng.uniform(0, 2 * np.pi)
        doppler = rng.uniform(-max_doppler, max_doppler) if max_doppler else 0.0
        taps.append((float(d), np.sqrt(p) * np.exp(1j * phase), float(doppler)))
    return tuple(taps)


def rician_taps(rng: np.random.Generator, k0_linear: float, n_scatter: int,
                max_delay: float) -> tuple:
    """Direct path of power 1 plus scattered taps of total power 1/K_0."""
    if k0_linear <= 0:
        raise ValueError("K0 must be positive")
    taps = [(0.0, 1.0 + 0j, 0.0)]
    scatter_amp = np.sqrt(1.0 / k0_linear / n_scatter)
    delays = np.linspace(0.0, max_delay, n_scatter + 1)[1:]
    for d in delays:
        phase = rng.uniform(0, 2 * np.pi)
        taps.append((float(d), scatter_amp * np.exp(1j * phase), 0.0))
    return tuple(taps)
