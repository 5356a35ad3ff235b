"""Channel impairments: time/frequency/phase offsets, multipath fading, AWGN."""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .txchain import ComplexSignal, phase_ramp

__all__ = [
    "OffsetSpec",
    "FadingSpec",
    "apply_offsets",
    "apply_fading",
    "add_awgn",
    "complex_normal",
    "random_multipath_taps",
]


def _check_delay(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a whole sample count >= 0, got {value!r}")


def _check_finite(name: str, value) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OffsetSpec:
    """Delay (whole samples), carrier frequency and phase offsets."""

    delay: int = 0
    omega0: float = 0.0  # rad/T_s, time in body durations T_s
    phi0: float = 0.0

    def __post_init__(self):
        _check_delay("delay", self.delay)
        _check_finite("omega0", self.omega0)
        _check_finite("phi0", self.phi0)


@dataclass(frozen=True)
class FadingSpec:
    """Multipath profile: taps of (delay samples, complex gain, doppler rad/T_s)."""

    taps: tuple

    def __post_init__(self):
        if not self.taps:
            raise ValueError("taps must not be empty")
        for delay, gain, doppler in self.taps:
            _check_delay("tap delay", delay)
            _check_finite("tap gain", gain)
            _check_finite("tap doppler", doppler)


def _delay(x: np.ndarray, n: int) -> np.ndarray:
    """x delayed by n whole samples, zero-filled, same length."""
    out = np.zeros_like(x)
    if n < x.size:
        out[n:] = x[: x.size - n] if n else x
    return out


def apply_offsets(signal: ComplexSignal, spec: OffsetSpec) -> ComplexSignal:
    """Delay by ``spec.delay`` samples and rotate by e^{j(omega0 t + phi0)}
    (phase on absolute time); with omega0 = phi0 = 0 there is no rotation."""
    dt = signal.sample_interval
    x = _delay(signal.samples, spec.delay)
    if spec.omega0 or spec.phi0:
        x = x * phase_ramp(spec.omega0 * dt, spec.phi0, x.size)
    return ComplexSignal(x, dt)


def apply_fading(signal: ComplexSignal, spec: FadingSpec) -> ComplexSignal:
    """Sum of delayed, Doppler-shifted, scaled copies of the input.

    output(t) = sum_m gain_m * e^{j doppler_m t} * input(t - delay_m), with
    each delay a whole number of samples.
    """
    dt = signal.sample_interval
    x = signal.samples
    out = np.zeros_like(x)
    for delay, gain, doppler in spec.taps:
        # a zero-Doppler tap is a plain scaled copy: no e^{j0t} pass
        scale = gain * phase_ramp(doppler * dt, 0.0, x.size) if doppler else gain
        out += scale * _delay(x, delay)
    return ComplexSignal(out, dt)


def complex_normal(rng: np.random.Generator, power: float,
                   shape: tuple) -> np.ndarray:
    """CN(0, power) draws of the given shape from one ``rng.normal`` call."""
    g = rng.normal(0, np.sqrt(power / 2), size=(*shape, 2))
    return g.view(complex)[..., 0]


def add_awgn(signal: ComplexSignal, sigma2: float,
             rng: np.random.Generator | int) -> ComplexSignal:
    """Add circularly symmetric complex Gaussian noise of variance sigma2."""
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2!r}")
    if sigma2 == 0:
        return ComplexSignal(signal.samples.copy(), signal.sample_interval)
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    noise = complex_normal(rng, sigma2, signal.samples.shape)
    return ComplexSignal(signal.samples + noise, signal.sample_interval)


def random_multipath_taps(rng: np.random.Generator, n_paths: int,
                          max_delay: int, max_doppler: float = 0.0,
                          decay: float = 1.0) -> tuple:
    """Multipath taps with uniform random phases and a geometric power
    profile.

    Delays are spread uniformly over [0, max_delay] samples, rounded to whole
    samples; tap m carries power proportional to decay**m (decay=1 gives
    equal powers), normalized to unit total power. Per-tap Doppler shifts
    are drawn uniformly in [-max_doppler, max_doppler] (rad/T_s).
    """
    _check_delay("max_delay", max_delay)
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    delays = np.rint(np.linspace(0, max_delay, n_paths))
    # a list: numpy's float64 power rounds differently under AVX-512 and AVX2
    powers = np.array([decay ** m for m in range(n_paths)])
    powers *= 1.0 / powers.sum()  # not /=: a division rounds the taps differently
    taps = []
    for d, p in zip(delays, powers):
        phase = rng.uniform(0, 2 * np.pi)
        doppler = rng.uniform(-max_doppler, max_doppler) if max_doppler else 0.0
        taps.append((int(d), np.sqrt(p) * np.exp(1j * phase), float(doppler)))
    return tuple(taps)
