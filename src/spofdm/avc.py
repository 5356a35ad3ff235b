"""Symbol-level jamming channel: simulation, mutual information, and the
closed-form maximin capacity.

The channel is R = S + e^{j Theta} J + N with S and J both laws on the
symbol plane (:class:`InputDist`), Theta the secret phase (uniform over the
M-PSK alphabet, the point 0 when M = 1), and N circular complex Gaussian.
Every law is a finite Gaussian mixture (:meth:`InputDist.mixture`), so the
conditional and marginal densities are exact mixtures and mutual information
is estimated by Monte-Carlo averaging of exact log density ratios. Each
mixture is evaluated once per distinct component: components whose means
coincide, as the M rotations of a QPSK jammer do in fours, are merged and
their weights added. The log-densities are evaluated in cache-sized blocks
of samples, component-major, with scipy's ``logsumexp`` arithmetic bit for
bit, so this module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_int, check_real
from .channel import complex_normal
from .keystream import psk_phasors
from .txchain import QPSK

__all__ = [
    "SymbolChannelSpec",
    "InputDist",
    "simulate_symbol_channel",
    "avc_capacity",
    "mi_estimate",
    "MiEstimate",
    "saddle_check",
]


@dataclass(frozen=True)
class InputDist:
    """A symbol law, of the input or of the jamming: 'gaussian' CN(0, power),
    or 'discrete' over points/probs. No jamming is ``InputDist("gaussian",
    0.0)``."""

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
            if not np.isfinite(pts).all():
                raise ValueError(f"points must be finite, got {pts}")
            probs = (np.full(pts.size, 1 / pts.size) if self.probs is None
                     else np.asarray(self.probs, dtype=float))
            if probs.shape != pts.shape:
                raise ValueError(f"probs must have one entry per point: "
                                 f"{pts.size} points, {probs.size} probs")
            if not (np.isfinite(probs).all() and (probs >= 0).all()
                    and probs.sum() > 0):
                raise ValueError(f"probs must be finite, non-negative and not "
                                 f"all zero, got {probs}")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "probs", probs / probs.sum())
            object.__setattr__(self, "power",
                               float(np.sum(self.probs * np.abs(pts) ** 2)))
        else:
            check_real("power", self.power, 0)
            for name in ("points", "probs"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} must be None for a Gaussian "
                                     f"law, got {getattr(self, name)!r}")

    @classmethod
    def qpsk(cls, power: float = 1.0) -> "InputDist":
        """The link's QPSK constellation, also the disguised jammer's law."""
        return cls("discrete", points=QPSK * math.sqrt(power))

    def mixture(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The law as Gaussian components CN(mean, variance):
        (means, log_weights, variance). Points of probability 0 are left
        out."""
        if self.kind == "gaussian":
            return np.array([0j]), np.array([0.0]), self.power
        keep = self.probs > 0
        return self.points[keep], np.log(self.probs[keep]), 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "discrete":
            return self.points[rng.choice(self.points.size, size=n, p=self.probs)]
        # a zero-power law is the point 0 and draws nothing from the rng
        return (complex_normal(rng, self.power, (n,)) if self.power
                else np.zeros(n, dtype=complex))


@dataclass(frozen=True)
class SymbolChannelSpec:
    """Powers and secret phase alphabet size M (``phase_order``, a positive
    integer) of the symbol-level channel; M = 1 rotates nothing."""

    input_dist: InputDist = field(default_factory=InputDist.qpsk)
    noise_power: float = 0.1
    phase_order: int = 16

    def __post_init__(self):
        check_real("noise_power", self.noise_power, 0)
        check_int("phase_order", self.phase_order, 1)


def simulate_symbol_channel(spec: SymbolChannelSpec, jamming: InputDist,
                            n_samples: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Paired (S, R) draws of R = S + e^{j Theta} J + N."""
    check_int("n_samples", n_samples, 1)
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    s = spec.input_dist.sample(rng, n_samples)
    j = jamming.sample(rng, n_samples)
    m = spec.phase_order
    rot = psk_phasors(m)[rng.integers(0, m, size=n_samples)]
    noise = InputDist("gaussian", spec.noise_power).sample(rng, n_samples)
    return s, s + rot * j + noise


def avc_capacity(p_s: float, p_j: float, p_n: float) -> float:
    """Maximin capacity log2(1 + P_S/(P_J+P_N)) bits per symbol."""
    for name, value in zip(("p_s", "p_j", "p_n"), (p_s, p_j, p_n)):
        check_real(name, value, 0)
    denom = p_j + p_n
    if denom == 0:
        return math.inf
    return math.log2(1 + p_s / denom)


# ---------------------------------------------------------------------------
# Mutual information via exact conditional mixture densities


_BLOCK_CELLS = 2 ** 15  # component x sample cells per block (256 KiB)


def _pairwise_rows(d: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a (K, n) array in numpy's pairwise order for a
    contiguous axis: sequential below 8 rows, 8 strided partial sums up to
    128, halves split at a multiple of 8 above. So it is bitwise
    ``d.T.sum(axis=1)``, without numpy's overhead per row of K values."""
    k = d.shape[0]
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_rows(d[:half]) + _pairwise_rows(d[half:])
    if k < 8:
        out, rest = d[0].copy(), d[1:]
    else:
        p = d[:k - k % 8].reshape(-1, 8, d.shape[1]).sum(axis=0)
        out = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
        rest = d[k - k % 8:]
    for row in rest:
        out += row
    return out


def _log_mixture(r: np.ndarray, means: np.ndarray, logw: np.ndarray,
                 var: float) -> np.ndarray:
    """log sum_k w_k CN(r; means_k, var) for each sample of r; ``means`` is
    (K,) or per sample (K, len(r)). The work array is component-major,
    (K, len(r)), and is reused in place through scipy's logsumexp steps
    (maximum, ties to -inf and counted, shifted exp and sum, log1p). The
    maximum and the tie count over the K rows are exact element-wise
    operations and the sum replays numpy's pairwise order
    (:func:`_pairwise_rows`), so the result is bitwise
    ``logsumexp(log CN + logw, axis=1)`` of the sample-major array."""
    d = np.abs(r - (means if means.ndim == 2 else means[:, None]))
    np.square(d, out=d)
    d /= var
    np.subtract(-np.log(np.pi * var), d, out=d)
    d += logw[:, None]
    top = d.max(axis=0)
    ties = d == top
    m = ties.sum(axis=0, dtype=float)
    np.copyto(d, -np.inf, where=ties)
    # a column of -inf terms, shifted by a finite value instead of by its
    # -inf maximum, sums to 0 and gives scipy's -inf, not -inf - -inf = NaN
    d -= np.maximum(top, -np.finfo(float).max)
    np.exp(d, out=d)
    s = _pairwise_rows(d)
    s = np.where(s == 0, s, s / m)
    return np.log1p(s) + np.log(m) + top


def _merge_components(means: np.ndarray, logw: np.ndarray) -> tuple:
    """(means, logw) with the components whose means coincide, to 1e-12 of
    the largest |mean|, merged into one whose weight is their sum. A mixture
    with no coincident components comes back as it is."""
    tol = 1e-12 * (np.abs(means).max() or 1.0)
    _, first, group = np.unique(np.round(means / tol), return_index=True,
                                return_inverse=True)
    if first.size == means.size:
        return means, logw
    merged = np.full(first.size, -np.inf)
    np.logaddexp.at(merged, group, logw)
    return means[first], merged


def _log2_ratio(r: np.ndarray, s: np.ndarray, spec: SymbolChannelSpec,
                jamming: InputDist) -> np.ndarray:
    """log2 p(r | s) - log2 p(r), both from one interference mixture.

    The additive term e^{j Theta} J + N is the jamming mixture with each
    discrete point rotated by the M phases (a Gaussian jammer is rotation
    invariant) and the noise added to the variance; the marginal adds the
    input mixture on top of it. Both mixtures are evaluated once per
    distinct component (:func:`_merge_components`): a rotation that maps
    the jamming alphabet onto itself, as pi/2 does QPSK, or an input point
    plus a jamming point that lands on another such sum, adds weight, not
    components. Samples go through in blocks of at most ``_BLOCK_CELLS``
    cells of the marginal's (components x samples) array.
    """
    means, logw, j_var = jamming.mixture()
    m = spec.phase_order
    if jamming.kind == "discrete":
        means = (means[:, None] * psk_phasors(m)[None, :]).ravel()
        logw = (logw[:, None] - math.log(m) + np.zeros((1, m))).ravel()
        means, logw = _merge_components(means, logw)
    var = spec.noise_power + j_var
    s_means, s_logw, s_var = spec.input_dist.mixture()
    all_means, all_logw = _merge_components(
        (s_means[:, None] + means[None, :]).ravel(),
        (s_logw[:, None] + logw[None, :]).ravel())
    out = np.empty(r.size)
    rows = max(1, _BLOCK_CELLS // all_means.size)
    for lo in range(0, r.size, rows):
        sl = slice(lo, lo + rows)
        cond = _log_mixture(r[sl], means[:, None] + s[sl], logw, var)
        marg = _log_mixture(r[sl], all_means, all_logw, var + s_var)
        out[sl] = (cond - marg) / math.log(2)
    return out


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


def mi_estimate(spec: SymbolChannelSpec, jamming: InputDist, n_samples: int,
                seed) -> MiEstimate:
    """Monte-Carlo mutual information I(S; R) with a 95% CI.

    Uses exact conditional and marginal densities, so the only error is the
    Monte-Carlo average itself. Their mixtures are merged to one component
    per distinct mean, and they are evaluated in blocks of at most 2^15
    (component x sample) cells with scipy's ``logsumexp`` arithmetic, so
    the work arrays stay cache-sized whatever ``n_samples`` is. The CI
    is the normal-theory interval of that average, bits +- 1.96 sigma /
    sqrt(n_samples) with sigma the (ddof 0) standard deviation of the log
    density ratios, so the rng draws nothing beyond the channel samples.
    The densities need a Gaussian part, noise or Gaussian jamming, and its
    standard deviation must be at least 2^-40 of the symbol scale: the
    largest input point, or the Gaussian input's deviation, plus the
    largest jamming point. ``r - mean`` rounds to about 2^-53 of that
    scale, and a smaller deviation would read the rounding as signal. An
    estimate whose CI is not finite is rejected too.
    """
    check_int("n_samples", n_samples, 1)
    s_means, _, s_var = spec.input_dist.mixture()
    j_means, _, j_var = jamming.mixture()
    if spec.noise_power + j_var == 0:
        raise ValueError("mi_estimate needs noise_power > 0 or Gaussian jamming")
    scale = (float(np.abs(s_means).max() + np.abs(j_means).max())
             + math.sqrt(s_var))
    if math.sqrt(spec.noise_power + j_var) < 2.0 ** -40 * scale:
        raise ValueError(f"noise_power {spec.noise_power!r} is too small: the "
                         f"Gaussian deviation is below 2^-40 of the symbol "
                         f"scale {scale!r}, so rounding swamps the densities")
    rng = np.random.default_rng(seed)  # a Generator is returned unaltered
    s, r = simulate_symbol_channel(spec, jamming, n_samples, rng)
    # a density that overflows to 0 is a term of the sums; a result that
    # overflows is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _log2_ratio(r, s, spec, jamming)
        est = float(terms.mean())
        half = 1.96 * float(terms.std()) / math.sqrt(n_samples)
    low, high = est - half, est + half
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"noise_power {spec.noise_power!r} is too small for "
                         f"finite densities: the estimate is {est!r} bits, "
                         f"its CI ({low!r}, {high!r})")
    return MiEstimate(est, low, high, n_samples)


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
                 seed: int = 0) -> SaddleReport:
    """Numerical check of the capacity saddle point.

    Input deviations must not beat the Gaussian input against Gaussian
    jamming; jamming deviations must not push the MI below the saddle value
    against the Gaussian input. Each inequality is accepted when it holds up
    to the Monte-Carlo CI. The powers are checked before any estimate, and
    p_n must be positive: the two-point jamming deviation has no Gaussian
    part.
    """
    cap = avc_capacity(p_s, p_j, p_n)
    if p_n <= 0:
        raise ValueError(f"p_n must be positive, since the two-point jamming "
                         f"deviation has no Gaussian part; got {p_n!r}")
    rng = np.random.default_rng(seed)
    gauss_in = InputDist("gaussian", p_s)
    gauss_jam = InputDist("gaussian", p_j)
    saddle_spec = SymbolChannelSpec(gauss_in, p_n)
    saddle = mi_estimate(saddle_spec, gauss_jam, n_samples, rng)

    deviations = [
        ("qpsk_input", "input", InputDist.qpsk(p_s)),
        ("half_power_gaussian_input", "input", InputDist("gaussian", p_s / 2)),
        ("two_point_jamming", "jamming",
         InputDist("discrete", points=np.array([1.0, -1.0]) * math.sqrt(p_j))),
        ("half_power_gaussian_jamming", "jamming",
         InputDist("gaussian", p_j / 2)),
    ]

    results = []
    for name, side, dist in deviations:
        if side == "input":
            spec = SymbolChannelSpec(dist, p_n)
            mi = mi_estimate(spec, gauss_jam, n_samples, rng)
            ok = mi.bits <= saddle.ci_high or mi.overlaps(saddle)
        else:
            mi = mi_estimate(saddle_spec, dist, n_samples, rng)
            ok = mi.bits >= saddle.ci_low or mi.overlaps(saddle)
        results.append(SaddleDeviation(name, side, mi, bool(ok)))
    return SaddleReport(cap, saddle, results)
