"""Symbol-level jamming channel: symmetry witnesses, mutual information,
and the closed-form maximin capacity.

The channel is R = S + e^{j Theta} J + N with S from the input distribution,
J from the jamming distribution, Theta the secret phase (uniform over the
M-PSK alphabet, or disabled), and N circular complex Gaussian. Conditional
densities are exact finite Gaussian mixtures, so mutual information is
estimated by Monte-Carlo averaging of exact log density ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .channel import complex_normal
from .txchain import QPSK

__all__ = [
    "SymbolChannelSpec",
    "InputDist",
    "JammingDist",
    "simulate_symbol_channel",
    "avc_capacity",
    "mi_estimate",
    "MiEstimate",
    "saddle_check",
]


@dataclass(frozen=True)
class InputDist:
    """'gaussian' with the given power, or 'discrete' over points/probs."""

    kind: str
    power: float = 1.0
    points: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "discrete"):
            raise ValueError(f"unknown input distribution {self.kind!r}")
        if self.kind == "discrete":
            pts = np.asarray(self.points, dtype=complex)
            if pts.size == 0:
                raise ValueError("discrete distribution needs points")
            probs = (np.full(pts.size, 1 / pts.size) if self.probs is None
                     else np.asarray(self.probs, dtype=float))
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "probs", probs / probs.sum())
            object.__setattr__(self, "power",
                               float(np.sum(self.probs * np.abs(pts) ** 2)))
        elif self.power < 0:
            raise ValueError("power must be non-negative")

    @classmethod
    def qpsk(cls, power: float = 1.0) -> "InputDist":
        return cls("discrete", points=QPSK * math.sqrt(power))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return complex_normal(rng, self.power, (n,))
        idx = rng.choice(self.points.size, size=n, p=self.probs)
        return self.points[idx]


# Jamming distributions share the same parameterization; 'none' adds nothing.
@dataclass(frozen=True)
class JammingDist(InputDist):
    def __post_init__(self):
        if self.kind == "none":
            object.__setattr__(self, "power", 0.0)
            return
        super().__post_init__()

    @classmethod
    def disguised(cls, power: float = 1.0) -> "JammingDist":
        return cls("discrete", points=QPSK * math.sqrt(power))

    def sample(self, rng, n):
        if self.kind == "none":
            return np.zeros(n, dtype=complex)
        return super().sample(rng, n)


@dataclass(frozen=True)
class SymbolChannelSpec:
    """Powers and phase-randomization setting of the symbol-level channel."""

    input_dist: InputDist = field(default_factory=InputDist.qpsk)
    noise_power: float = 0.1
    phase_order: int | None = 16  # None disables phase randomization

    def __post_init__(self):
        if self.noise_power < 0:
            raise ValueError("noise power must be non-negative")
        if self.phase_order is not None and self.phase_order < 1:
            raise ValueError("phase alphabet size must be positive")


def simulate_symbol_channel(spec: SymbolChannelSpec, jamming: JammingDist,
                            n_samples: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Paired (S, R) draws of R = S + e^{j Theta} J + N."""
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    s = spec.input_dist.sample(rng, n_samples)
    j = jamming.sample(rng, n_samples)
    m = spec.phase_order
    theta = (np.zeros(n_samples) if m is None
             else 2 * np.pi * rng.integers(0, m, size=n_samples) / m)
    if spec.noise_power > 0:
        noise = complex_normal(rng, spec.noise_power, (n_samples,))
    else:
        noise = 0.0
    return s, s + np.exp(1j * theta) * j + noise


def avc_capacity(p_s: float, p_j: float, p_n: float) -> float:
    """Maximin capacity log2(1 + P_S/(P_J+P_N)) bits per symbol."""
    if min(p_s, p_j, p_n) < 0:
        raise ValueError("powers must be non-negative")
    denom = p_j + p_n
    if denom == 0:
        return math.inf
    return math.log2(1 + p_s / denom)


# ---------------------------------------------------------------------------
# Mutual information via exact conditional mixture densities


def _log_cn_density(r: np.ndarray, mean: np.ndarray, var: float) -> np.ndarray:
    """log density of CN(mean, var) at r; shapes broadcast."""
    return -np.log(np.pi * var) - np.abs(r - mean) ** 2 / var


def _interference_components(jamming: JammingDist, spec: SymbolChannelSpec):
    """Finite mixture of the additive term e^{j Theta} J + N.

    Returns (means, log_weights, extra_var): Gaussian components CN(mean,
    noise + extra_var) with the given weights.
    """
    if jamming.kind == "none":
        return np.array([0.0 + 0j]), np.array([0.0]), 0.0
    if jamming.kind == "gaussian":
        # phase rotation leaves CN(0, P_J) unchanged
        return np.array([0.0 + 0j]), np.array([0.0]), jamming.power
    pts = jamming.points
    logw_j = np.log(jamming.probs)
    if spec.phase_order is None:
        return pts, logw_j, 0.0
    m = spec.phase_order
    rot = np.exp(2j * np.pi * np.arange(m) / m)
    means = (pts[:, None] * rot[None, :]).ravel()
    logw = (logw_j[:, None] - math.log(m) + np.zeros((1, m))).ravel()
    return means, logw, 0.0


def _log_conditional(r: np.ndarray, s: np.ndarray, spec: SymbolChannelSpec,
                     jamming: JammingDist) -> np.ndarray:
    """log p(r | s): mixture over jamming support and phase alphabet."""
    means, logw, extra = _interference_components(jamming, spec)
    var = spec.noise_power + extra
    comp = _log_cn_density(r[:, None], s[:, None] + means[None, :], var)
    return logsumexp(comp + logw[None, :], axis=1)


def _log_marginal(r: np.ndarray, spec: SymbolChannelSpec,
                  jamming: JammingDist) -> np.ndarray:
    """log p(r): input marginalized exactly (Gaussian) or as a mixture."""
    means, logw, extra = _interference_components(jamming, spec)
    var = spec.noise_power + extra
    inp = spec.input_dist
    if inp.kind == "gaussian":
        comp = _log_cn_density(r[:, None], means[None, :], var + inp.power)
        return logsumexp(comp + logw[None, :], axis=1)
    pts, probs = inp.points, inp.probs
    all_means = (pts[:, None] + means[None, :]).ravel()
    all_logw = (np.log(probs)[:, None] + logw[None, :]).ravel()
    comp = _log_cn_density(r[:, None], all_means[None, :], var)
    return logsumexp(comp + all_logw[None, :], axis=1)


@dataclass
class MiEstimate:
    bits: float
    ci_low: float
    ci_high: float
    n_samples: int

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    def overlaps(self, other: "MiEstimate") -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def mi_estimate(spec: SymbolChannelSpec, jamming: JammingDist, n_samples: int,
                seed) -> MiEstimate:
    """Monte-Carlo mutual information I(S; R) with a bootstrap 95% CI.

    Uses exact conditional and marginal densities, so the only error is the
    Monte-Carlo average itself. The CI takes 200 bootstrap resamples.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    s, r = simulate_symbol_channel(spec, jamming, n_samples, rng)
    terms = np.empty(n_samples)
    chunk = 50_000  # bounds the (samples x mixture components) work arrays
    for lo_i in range(0, n_samples, chunk):
        sl = slice(lo_i, min(lo_i + chunk, n_samples))
        terms[sl] = (_log_conditional(r[sl], s[sl], spec, jamming)
                     - _log_marginal(r[sl], spec, jamming)) / math.log(2)
    est = float(terms.mean())
    boots = np.empty(200)
    for b in range(boots.size):
        idx = rng.integers(0, n_samples, n_samples)
        boots[b] = terms[idx].mean()
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return MiEstimate(est, float(lo), float(hi), n_samples)


@dataclass
class SaddleDeviation:
    name: str
    side: str          # 'input' or 'jamming'
    mi: MiEstimate
    satisfied: bool


@dataclass
class SaddleReport:
    capacity: float
    saddle_mi: MiEstimate
    deviations: list

    @property
    def all_satisfied(self) -> bool:
        return all(d.satisfied for d in self.deviations)


def saddle_check(p_s: float, p_j: float, p_n: float, n_samples: int = 200_000,
                 seed: int = 0, phase_order: int = 16) -> SaddleReport:
    """Numerical check of the capacity saddle point.

    Input deviations must not beat the Gaussian input against Gaussian
    jamming; jamming deviations must not push the MI below the saddle value
    against the Gaussian input. Each inequality is accepted when it holds up
    to the Monte-Carlo CI.
    """
    rng = np.random.default_rng(seed)
    gauss_in = InputDist("gaussian", p_s)
    gauss_jam = JammingDist("gaussian", p_j)
    saddle_spec = SymbolChannelSpec(gauss_in, p_n, phase_order)
    saddle = mi_estimate(saddle_spec, gauss_jam, n_samples, rng)
    cap = avc_capacity(p_s, p_j, p_n)

    deviations = [
        ("qpsk_input", "input", InputDist.qpsk(p_s)),
        ("half_power_gaussian_input", "input", InputDist("gaussian", p_s / 2)),
        ("two_point_jamming", "jamming",
         JammingDist("discrete",
                     points=np.array([1.0, -1.0]) * math.sqrt(p_j))),
        ("half_power_gaussian_jamming", "jamming",
         JammingDist("gaussian", p_j / 2)),
    ]

    results = []
    for name, side, dist in deviations:
        if side == "input":
            spec = SymbolChannelSpec(dist, p_n, phase_order)
            mi = mi_estimate(spec, gauss_jam, n_samples, rng)
            ok = mi.bits <= saddle.ci_high or mi.overlaps(saddle)
        else:
            mi = mi_estimate(saddle_spec, dist, n_samples, rng)
            ok = mi.bits >= saddle.ci_low or mi.overlaps(saddle)
        results.append(SaddleDeviation(name, side, mi, bool(ok)))
    return SaddleReport(cap, saddle, results)
