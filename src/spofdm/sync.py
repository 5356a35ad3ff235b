"""Two-stage synchronization for SP-OFDM.

Pre-FFT stage: correlation between the encrypted CP1 and the body tail,
averaged over K blocks and despread by candidate CP phase sequences, yields
the coarse time offset, the keystream sequence offset and the fractional
carrier frequency offset. Post-FFT stage: pilot correlations across blocks
(integer CFO + residual fractional error) and across subcarriers (residual
time offset), plus the carrier phase.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._checks import check_int
from .txchain import ComplexSignal, OfdmConfig, decode_phases, phase_ramp

__all__ = [
    "SyncConfig",
    "SyncEstimate",
    "pre_fft_surface",
    "estimate_pre_fft",
    "demod_fft",
    "estimate_integer_cfo",
    "estimate_fine_time",
    "estimate_phase",
    "synchronize",
]


# first block index used in the averages: block 0 is skipped so every
# correlation window, whatever the trial offset, lies inside the signal
FIRST_BLOCK = 1


@dataclass(frozen=True)
class SyncConfig:
    """Synchronizer parameters; it searches sequence offsets 0..n_candidates-1."""

    n_blocks: int = 25                      # K, blocks averaged
    n_candidates: int = 50                  # D, sequence offsets searched
    n_l: int = -2                           # integer CFO search bounds
    n_u: int = 2

    def __post_init__(self):
        # a fractional count would fail only in the first trial, as a TypeError
        for name, low in (("n_blocks", 1), ("n_candidates", 1), ("n_l", None),
                          ("n_u", None)):
            check_int(name, getattr(self, name), low)
        if self.n_l > self.n_u:
            raise ValueError("n_l must not exceed n_u")

    @property
    def candidates(self) -> np.ndarray:
        """The candidate sequence offsets, 0..n_candidates-1."""
        return np.arange(self.n_candidates)


def _backoff(config: OfdmConfig) -> int:
    """FFT window backoff into CP2, in samples."""
    return config.cp2_samples // 2


@dataclass
class SyncEstimate:
    """Output of the two-stage synchronizer."""

    t0_hat: float           # coarse time offset, T_s units, in [-T_CP, T_b - T_CP)
    k0_hat: int             # phase sequence offset
    frac_cfo_hat: float     # fractional part of omega0*T_s/(2*pi), in [0, 1)
    n0_hat: int = 0         # integer CFO, subcarrier spacings
    zeta0_hat: float = 0.0  # residual fractional CFO error
    t0p_hat: float = 0.0    # residual time offset, T_s units, in [0, T_CP2)
    phi0_hat: float = 0.0   # carrier phase, radians
    peak_metric: float = 0.0
    low_confidence: bool = False

    def total_cfo_normalized(self) -> float:
        """Full frequency estimate in units of the subcarrier spacing 1/T_s."""
        return self.frac_cfo_hat + self.n0_hat + self.zeta0_hat

    def frame_time(self, config: OfdmConfig) -> float:
        """Estimated start time of keystream block 0, the one timing reference."""
        return (self.t0_hat + self.t0p_hat - _backoff(config) * config.sample_interval
                - self.k0_hat * config.t_block)


def pre_fft_surface(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                    phasors: np.ndarray) -> np.ndarray:
    """Averaged correlation (1/K) sum_k Y_k(tau, d) over the (tau, d) grid.

    Row k of ``phasors`` is keystream block k as unit phasors; the receiver
    reads rows up to FIRST_BLOCK + K + n_candidates - 1. Returns a complex
    array of shape (block_samples, n_candidates); row tau is the trial time
    offset in samples, column d is sequence offset d. The M = 1 classical
    receiver (unit CP phases, one candidate) gets (block_samples, 1).
    """
    x = r.samples
    dt = r.sample_interval
    n_c = config.n_carriers
    block = config.block_samples
    cp = config.cp_samples
    cp1 = config.cp1_samples
    k_count = sync_cfg.n_blocks
    n_d = sync_cfg.n_candidates
    if len(phasors) < FIRST_BLOCK + k_count + n_d:
        raise ValueError(f"phasors needs {FIRST_BLOCK + k_count + n_d} rows, "
                         f"got {len(phasors)}")
    needed = (FIRST_BLOCK + k_count) * block - config.cp2_samples + n_c
    if x.size < needed:
        raise ValueError(
            f"signal too short for K={k_count} blocks: need {needed} samples, "
            f"got {x.size}"
        )

    # lag-N_c products over the prefix the windows read, then CP1-window sums
    prods = x[: needed - n_c] * np.conj(x[n_c:needed]) * dt
    csum = np.concatenate([[0.0 + 0j], np.cumsum(prods)])
    # W[s] = sum prods[s : s+cp1]
    w = csum[cp1:] - csum[:-cp1]

    # row k, column tau: the window of block FIRST_BLOCK+k at offset tau
    y = w[FIRST_BLOCK * block - cp:][:k_count * block].reshape(k_count, block)
    # entry (k, d): the CP phasor of block FIRST_BLOCK + k + d
    cp_seq = phasors[FIRST_BLOCK:, 0]
    c = cp_seq[np.arange(k_count)[:, None] + np.arange(n_d)]       # (K, D)
    # numpy's complex division by K + 0j forms each part as (a + b*0) * (1/K),
    # the same number as this product with 1/K
    return (y.T @ np.conj(c)) * (1.0 / k_count)                    # (tau, D)


def estimate_pre_fft(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                     phasors: np.ndarray):
    """Coarse estimates from the pre-FFT surface.

    Returns (estimate, surface); the estimate carries the argmax time offset,
    the winning candidate offset and the fractional CFO from the peak phase.
    Ties break toward the lowest (tau, d) index.
    """
    surface = pre_fft_surface(r, config, sync_cfg, phasors)
    mag = np.abs(surface)
    tau_idx, d_idx = np.unravel_index(np.argmax(mag), mag.shape)
    peak = surface[tau_idx, d_idx]
    # cmath: numpy's float64 angle rounds differently under AVX-512 and AVX2
    frac = (-cmath.phase(complex(peak)) / (2 * np.pi)) % 1.0
    low_conf = bool(mag[tau_idx, d_idx] < 1.5 * mag.mean())
    # The row index marks the CP1 window start plus one CP length, because the
    # waveform origin sits at the start of block 0's CP1, not its body.
    est = SyncEstimate(
        t0_hat=float((tau_idx - config.cp_samples) * r.sample_interval),
        k0_hat=int(d_idx),
        frac_cfo_hat=frac,
        peak_metric=float(np.abs(peak)),
        low_confidence=low_conf,
    )
    return est, surface


def demod_fft(r: ComplexSignal, body_starts, config: OfdmConfig) -> np.ndarray:
    """N_c-point FFT of the block bodies at ``body_starts`` (a sample index,
    or an array of them for one output row each). An integer CFO of n0
    subcarrier spacings moves carrier i to bin (i + n0) mod N_c.
    """
    n_c = config.n_carriers
    starts = np.asarray(body_starts)
    if np.any(starts < 0) or np.any(starts > r.samples.size - n_c):
        raise ValueError("block body out of range")
    return np.fft.fft(r.samples[starts[..., None] + np.arange(n_c)], axis=-1)


def _gamma_avg(z: np.ndarray, n_lags: int) -> np.ndarray:
    """Block averages of the cross-block products z_k conj(z_{k+lag}) of the
    despread pilot observations ``z`` (K+1, C, P) for lags 1..n_lags, shape
    (n_lags, C, P)."""
    k_count = len(z) - 1
    # one cumsum sums every lag's products in block order, where sum(axis=0)
    # sums pairwise along a contiguous block axis; the -0.0 padding leaves
    # each sum unchanged, because x + -0.0 is x for every x, +0.0 included
    gamma = np.full((k_count, n_lags, *z.shape[1:]), complex(-0.0, -0.0))
    for lag in range(1, n_lags + 1):
        gamma[:k_count + 1 - lag, lag - 1] = z[:-lag] * np.conj(z[lag:])
    counts = k_count + 1 - np.arange(1, n_lags + 1)
    return np.cumsum(gamma, axis=0)[-1] / counts[:, None, None]


def estimate_integer_cfo(z: np.ndarray, config: OfdmConfig,
                         sync_cfg: SyncConfig):
    """Integer CFO and residual fractional error from cross-block pilot
    correlations.

    ``z``: (K+1, n_u-n_l+1, P) despread pilot observations: entry (k, c, j)
    is block k's bin (i_j + n_l + c) mod N_c times the secret phasor of pilot
    j, divided by its value p_j, which weights the pilot by 1/|p_j|^2. The
    integer offset is bounded a priori, so only these feasible bins are
    read. The metrics of all pilots and block lags 1..3 are added before
    the peak search.
    Returns (n0_hat, zeta0_hat, low_confidence).
    """
    k_count = z.shape[0] - 1
    tb_over_ts = config.block_samples / config.n_carriers
    n0_cands = np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)
    n_lags = min(4, k_count)  # the longest lag refines zeta0
    gammas = _gamma_avg(z, n_lags)                                # (L, C, P)
    # each lag contributes an independent average, added in lag order
    scores = sum(np.abs(gammas[:3]).sum(axis=2))
    n0 = int(n0_cands[int(np.argmax(scores))])
    order = np.sort(scores)
    low_conf = bool(order[-1] < 1.5 * order[-2]) if scores.size > 1 else False

    def zeta_at(lag: int) -> float:
        # peak phase is -2*pi*(n0+zeta0)*lag*T_b/T_s; remove the known integer
        # part (cmath: numpy's angle rounds differently under AVX-512 and AVX2)
        rot = np.exp(2j * np.pi * n0 * lag * tb_over_ts)
        peak = (gammas[lag - 1][n0 - sync_cfg.n_l] * rot).sum()
        return -cmath.phase(complex(peak)) / (2 * np.pi * lag * tb_over_ts)

    zeta0 = zeta_at(1)
    # refine zeta0 with a longer block lag: the phase slope grows with the
    # lag, so its noise shrinks; the lag-1 estimate picks the branch
    if n_lags > 1:
        zeta_l = zeta_at(n_lags)
        period = 1.0 / (n_lags * tb_over_ts)
        zeta0 = zeta_l + period * round((zeta0 - zeta_l) / period)
    return n0, zeta0, low_conf


def estimate_fine_time(z: np.ndarray, pilot_idx, config: OfdmConfig) -> float:
    """Residual time offset from the phase slope across two pilot carriers.

    ``z``: (K, 2) despread pilot observations at the decided integer CFO,
    one column per pilot; ``pilot_idx``: their carriers (i_p1, i_p2).
    Result folded into [0, T_CP2).
    """
    dip = int(pilot_idx[0]) - int(pilot_idx[1])
    if dip == 0:
        raise ValueError("fine time estimation needs two distinct pilots")
    if abs(dip) * config.cp2_samples > config.n_carriers:
        raise ValueError("pilot spacing violates the unambiguous fine-time range")
    u = (z[:, 0] * np.conj(z[:, 1])).mean()
    # cmath: numpy's float64 angle rounds differently under AVX-512 and AVX2
    t0p = -cmath.phase(complex(u)) * config.t_body / (2 * np.pi * dip)
    period = config.t_body / abs(dip)
    t0p %= period
    t_cp2 = config.cp2_samples * config.sample_interval
    if t0p >= (t_cp2 + period) / 2:
        t0p -= period
    return float(min(max(t0p, 0.0), np.nextafter(t_cp2, 0.0)))


def estimate_phase(z: np.ndarray, pilot_idx, n0: int, zeta0: float,
                   t0p_samples: float, config: OfdmConfig,
                   t_window0: float = 0.0) -> float:
    """Carrier phase from the sum of the K-block averages of the despread
    pilots, after compensating the residual CFO phase at each FFT window
    start and the fine-time phase ramp.

    ``z``: (K, P) despread pilot observations at the decided integer CFO n0,
    one column per pilot; ``pilot_idx``: their carriers. ``t_window0`` is
    the absolute start time of the first demodulation window, so the
    returned phase is referenced to t = 0.
    """
    # residual CFO phase e^{j 2*pi*(n0+zeta0)*t_wk/T_s} at window start t_wk
    t_wk = t_window0 + np.arange(z.shape[0]) * config.t_block
    drift = np.exp(-2j * np.pi * (n0 + zeta0) * t_wk / config.t_body)
    # The window-start shift ramps the spectrum before the CFO shifts it, so
    # the ramp is evaluated at the pilot's own carrier, not the moved bin.
    ramp = np.exp(2j * np.pi * np.asarray(pilot_idx) * t0p_samples
                  / config.n_carriers)
    # cumsum adds the blocks in order, whatever the memory layout of z, where
    # mean(axis=0) sums pairwise along a contiguous block axis; cmath: numpy's
    # float64 angle rounds differently under AVX-512 and AVX2
    block_sums = np.cumsum(z * drift[:, None] * ramp, axis=0)[-1]
    return cmath.phase(complex((block_sums / z.shape[0]).sum()))


def _demod_derotated(r: ComplexSignal, body_starts: np.ndarray, frac_cfo: float,
                     config: OfdmConfig) -> np.ndarray:
    """:func:`demod_fft` of the bodies at the ascending ``body_starts`` after
    removing the fractional CFO e^{j 2 pi frac_cfo t/T_s} on absolute time,
    computed only over the span the bodies cover. The span is clipped to the
    signal, so a body out of range still fails in demod_fft."""
    dt = r.sample_interval
    lo = max(int(body_starts[0]), 0)
    hi = max(min(int(body_starts[-1]) + config.n_carriers, r.samples.size), lo)
    ramp = phase_ramp(-2 * np.pi * frac_cfo * dt / config.t_body, 0.0, hi - lo, lo)
    span = ComplexSignal(r.samples[lo:hi] * ramp, dt)
    return demod_fft(span, body_starts - lo, config)


def synchronize(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                phasors: np.ndarray):
    """Full two-stage pipeline. Returns (SyncEstimate, pre-FFT surface).
    The classical receiver is the same pipeline on M = 1 ``phasors`` with
    the one candidate 0: unit CP and pilot phasors, sequence offset 0.

    After the coarse stage the fractional CFO is compensated on absolute time
    and the FFT window is backed off into CP2 so the fine-time estimator sees
    a strictly positive residual offset. The compensation covers only the
    span of the K+1 block bodies the post-FFT stages demodulate. The first
    two pilots in carrier order are despread once (``decode_phases``, then
    division by the pilot value) at their feasible bins (index + n0) mod N_c;
    the fine-time and phase estimators read them at the decided n0.
    """
    est, surface = estimate_pre_fft(r, config, sync_cfg, phasors)
    dt = r.sample_interval
    tau_samp = int(round(est.t0_hat / dt))

    pilots = sorted(config.pilot_positions.items())[:2]
    if len(pilots) < 2:
        raise ValueError("post-FFT synchronization needs two pilot carriers")
    idx = [i for i, _ in pilots]
    ks = np.arange(FIRST_BLOCK, FIRST_BLOCK + sync_cfg.n_blocks + 1)
    window0 = tau_samp - _backoff(config) + config.cp_samples
    r_blocks = _demod_derotated(r, window0 + ks * config.block_samples,
                                est.frac_cfo_hat, config)
    pilot_phasors = phasors[ks[:, None] + est.k0_hat, [1 + i for i in idx]]
    bins = (np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)[:, None]
            + idx) % config.n_carriers
    z = (decode_phases(r_blocks[:, bins], pilot_phasors[:, None])
         / np.array([v for _, v in pilots]))                    # (K+1, C, P)

    n0, zeta0, cfo_low_conf = estimate_integer_cfo(z, config, sync_cfg)
    z_pilots = z[:-1, n0 - sync_cfg.n_l]
    t0p = estimate_fine_time(z_pilots, idx, config)
    t_window0 = (window0 + FIRST_BLOCK * config.block_samples) * dt
    est.n0_hat = n0
    est.zeta0_hat = zeta0
    est.t0p_hat = t0p
    est.phi0_hat = estimate_phase(z_pilots, idx, n0, zeta0, t0p / dt, config,
                                  t_window0)
    est.low_confidence = est.low_confidence or cfo_low_conf
    return est, surface
