"""Channel impairments: time/frequency/phase offsets, multipath fading, AWGN."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_int, check_real
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


@dataclass(frozen=True)
class OffsetSpec:
    """Delay (whole samples), carrier frequency and phase offsets."""

    delay: int = 0
    omega0: float = 0.0  # rad/T_s, time in body durations T_s
    phi0: float = 0.0

    def __post_init__(self):
        check_int("delay", self.delay, 0)
        check_real("omega0", self.omega0)
        check_real("phi0", self.phi0)


@dataclass(frozen=True)
class FadingSpec:
    """Multipath profile: taps of (delay samples, complex gain, doppler rad/T_s)."""

    taps: tuple

    def __post_init__(self):
        if not self.taps:
            raise ValueError("taps must not be empty")
        for delay, gain, doppler in self.taps:
            check_int("tap delay", delay, 0)
            if not cmath.isfinite(gain):
                raise ValueError(f"tap gain must be finite, got {gain!r}")
            check_real("tap doppler", doppler)


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
    n = x.size
    out = np.zeros_like(x)
    for delay, gain, doppler in spec.taps:
        # a tap adds only where its copy is nonzero, out[delay:], which is
        # exact because out never holds -0.0; a zero-Doppler tap is a plain
        # scaled copy, with no e^{j0t} pass
        if delay < n:
            scale = (gain * phase_ramp(doppler * dt, 0.0, n - delay, delay)
                     if doppler else gain)
            out[delay:] += scale * x[:n - delay]
    return ComplexSignal(out, dt)


def complex_normal(rng: np.random.Generator, power: float,
                   shape: tuple) -> np.ndarray:
    """CN(0, power) draws of the given shape from one ``rng.normal`` call."""
    g = rng.normal(0, np.sqrt(power / 2), size=(*shape, 2))
    return g.view(complex)[..., 0]


def add_awgn(signal: ComplexSignal, sigma2: float,
             rng: np.random.Generator | int) -> ComplexSignal:
    """Add circularly symmetric complex Gaussian noise of variance sigma2."""
    check_real("sigma2", sigma2, 0)
    if sigma2 == 0:
        return ComplexSignal(signal.samples.copy(), signal.sample_interval)
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    noise = complex_normal(rng, sigma2, signal.samples.shape)
    noise += signal.samples  # the same sum as signal + noise: + commutes
    return ComplexSignal(noise, signal.sample_interval)


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
    check_int("n_paths", n_paths, 1)
    check_int("max_delay", max_delay, 0)
    check_real("max_doppler", max_doppler, 0)
    if not 0 < check_real("decay", decay) <= 1:
        raise ValueError("decay must be in (0, 1]")
    delays, amplitudes = _tap_profile(n_paths, max_delay, decay)
    # one draw in the per-tap order: phase, then Doppler when there is one
    if max_doppler:
        draws = rng.uniform((0, -max_doppler), (2 * np.pi, max_doppler),
                            size=(n_paths, 2))
        phases, dopplers = draws[:, 0], draws[:, 1].tolist()
    else:
        phases, dopplers = rng.uniform(0, 2 * np.pi, n_paths), [0.0] * n_paths
    return tuple(zip(delays, amplitudes * np.exp(1j * phases), dopplers))


@lru_cache(maxsize=16)
def _tap_profile(n_paths: int, max_delay: int, decay: float) -> tuple:
    """The tap delays, whole samples, and amplitudes sqrt(decay**m / sum)."""
    delays = np.rint(np.linspace(0, max_delay, n_paths))
    # a list: numpy's float64 power rounds differently under AVX-512 and AVX2
    powers = np.array([decay ** m for m in range(n_paths)])
    powers *= 1.0 / powers.sum()  # not /=: a division rounds the taps differently
    amplitudes = np.sqrt(powers)
    amplitudes.flags.writeable = False
    return tuple(int(d) for d in delays), amplitudes
