"""Channel impairments: time/frequency/phase offsets, multipath fading, AWGN."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .txchain import ComplexSignal

__all__ = [
    "OffsetSpec",
    "FadingSpec",
    "apply_offsets",
    "apply_fading",
    "add_awgn",
    "complex_normal",
    "random_multipath_taps",
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


def apply_offsets(signal: ComplexSignal, spec: OffsetSpec) -> ComplexSignal:
    """Delay by t0, a whole number of samples, and rotate by
    e^{j(omega0 t + phi0)} (phase on absolute time)."""
    dt = signal.sample_interval
    x = signal.samples
    shift = spec.t0 / dt
    n_int = int(round(shift))
    if abs(shift - n_int) >= 1e-9:
        raise ValueError(f"t0={spec.t0} is not on the sample grid")
    t = np.arange(x.size) * dt
    rotated = _delay(x, n_int) * np.exp(1j * (spec.omega0 * t + spec.phi0))
    return ComplexSignal(rotated, dt)


def apply_fading(signal: ComplexSignal, spec: FadingSpec) -> ComplexSignal:
    """Sum of delayed, Doppler-shifted, scaled copies of the input.

    output(t) = sum_m gain_m * e^{j doppler_m t} * input(t - delay_m), with tap
    delays rounded to the sample grid.
    """
    dt = signal.sample_interval
    x = signal.samples
    t = np.arange(x.size) * dt
    out = np.zeros_like(x)
    for delay, gain, doppler in spec.taps:
        out += gain * np.exp(1j * doppler * t) * _delay(x, int(round(delay / dt)))
    return ComplexSignal(out, dt)


def complex_normal(rng: np.random.Generator, power: float,
                   shape: tuple) -> np.ndarray:
    """CN(0, power) draws of the given shape from one ``rng.normal`` call."""
    g = rng.normal(0, np.sqrt(power / 2), size=(*shape, 2))
    return g[..., 0] + 1j * g[..., 1]


def add_awgn(signal: ComplexSignal, sigma2: float,
             rng: np.random.Generator | int) -> ComplexSignal:
    """Add circularly symmetric complex Gaussian noise of variance sigma2."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    if sigma2 == 0:
        return ComplexSignal(signal.samples.copy(), signal.sample_interval)
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    noise = complex_normal(rng, sigma2, signal.samples.shape)
    return ComplexSignal(signal.samples + noise, signal.sample_interval)


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
