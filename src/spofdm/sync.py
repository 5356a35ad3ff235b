"""Two-stage synchronization for SP-OFDM.

Pre-FFT stage: correlation between the encrypted CP1 and the body tail,
averaged over K blocks and despread by candidate CP phase sequences, yields
the coarse time offset, the keystream sequence offset and the fractional
carrier frequency offset. Post-FFT stage: pilot correlations across blocks
(integer CFO + residual fractional error) and across subcarriers (residual
time offset), plus the carrier phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .keystream import PhaseSequence
from .txchain import ComplexSignal, OfdmConfig

__all__ = [
    "SyncConfig",
    "SyncEstimate",
    "v_expected",
    "corr_pre_fft",
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
    """Synchronizer parameters."""

    n_blocks: int = 25                      # K, blocks averaged
    candidates: np.ndarray = field(default_factory=lambda: np.arange(50))
    n_l: int = -2                           # integer CFO search bounds
    n_u: int = 2

    def __post_init__(self):
        object.__setattr__(self, "candidates",
                           np.asarray(self.candidates, dtype=int))
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        if self.candidates.size < 1:
            raise ValueError("candidate set must be nonempty")
        if self.n_l > self.n_u:
            raise ValueError("n_l must not exceed n_u")

    def n_fft(self, config: OfdmConfig) -> int:
        """Extended FFT size N_c' = N_c + N_u - N_l."""
        return config.n_carriers + self.n_u - self.n_l

    def backoff(self, config: OfdmConfig) -> int:
        """FFT window backoff into CP2, in samples."""
        return config.cp2_samples // 2


@dataclass
class SyncEstimate:
    """Output of the two-stage synchronizer."""

    t0_hat: float           # coarse time offset, seconds, in [-T_CP, T_b - T_CP)
    k0_hat: int             # phase sequence offset
    frac_cfo_hat: float     # fractional part of omega0*T_s/(2*pi), in [0, 1)
    n0_hat: int = 0         # integer CFO, subcarrier spacings
    zeta0_hat: float = 0.0  # residual fractional CFO error
    t0p_hat: float = 0.0    # residual time offset, seconds, in [0, T_CP2)
    phi0_hat: float = 0.0   # carrier phase, radians
    peak_metric: float = 0.0
    low_confidence: bool = False

    def total_cfo_normalized(self) -> float:
        """Full frequency estimate in units of the subcarrier spacing 1/T_s."""
        return self.frac_cfo_hat + self.n0_hat + self.zeta0_hat


def v_expected(tau: float | np.ndarray, t_cp1: float) -> np.ndarray:
    """Limit shape of the averaged CP1 correlation: a triangle of height and
    half-width T_CP1 centred at zero offset."""
    tau = np.asarray(tau, dtype=float)
    return np.where(np.abs(tau) < t_cp1, t_cp1 - np.abs(tau), 0.0)


def corr_pre_fft(r: ComplexSignal, k: int, tau_samples: int, d: int,
                 phase_seq: PhaseSequence, config: OfdmConfig) -> complex:
    """Single correlation coefficient Y_k(tau, d) as a direct Riemann sum.

    Window: the CP1 span of block k at trial offset tau, correlated against
    the signal one body-duration later and despread by the candidate CP phase.
    """
    x = r.samples
    n_c = config.n_carriers
    start = tau_samples - config.cp_samples + k * config.block_samples
    stop = start + config.cp1_samples
    if start < 0 or stop + n_c > x.size:
        raise ValueError("correlation window out of range")
    window = x[start:stop] * np.conj(x[start + n_c:stop + n_c])
    cp_phase = np.exp(1j * phase_seq.plan(k + d, k + d)[0, 0])
    return complex(np.sum(window) * np.conj(cp_phase) * r.sample_interval)


def pre_fft_surface(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                    phase_seq: PhaseSequence | None = None) -> np.ndarray:
    """Averaged correlation (1/K) sum_k Y_k(tau, d) over the (tau, d) grid.

    Returns a complex array of shape (block_samples, n_candidates); row tau is
    the trial time offset in samples, column j the candidate offset
    sync_cfg.candidates[j]. Without a phase sequence (classical receiver,
    unit CP phase) the candidate axis collapses: shape (block_samples,).
    """
    x = r.samples
    dt = r.sample_interval
    n_c = config.n_carriers
    block = config.block_samples
    cp = config.cp_samples
    cp1 = config.cp1_samples
    k_count = sync_cfg.n_blocks
    needed = (FIRST_BLOCK + k_count) * block - config.cp2_samples + n_c
    if x.size < needed:
        raise ValueError(
            f"signal too short for K={k_count} blocks: need {needed} samples, "
            f"got {x.size}"
        )

    # pointwise lag-N_c products, then sliding CP1-window sums
    prods = x[: x.size - n_c] * np.conj(x[n_c:]) * dt
    csum = np.concatenate([[0.0 + 0j], np.cumsum(prods)])
    # W[s] = sum prods[s : s+cp1]
    w = csum[cp1:] - csum[:-cp1]

    ks = np.arange(FIRST_BLOCK, FIRST_BLOCK + k_count)
    starts = ks[:, None] * block + np.arange(block)[None, :] - cp  # (K, tau)
    y = w[starts]                                                  # (K, tau)
    if phase_seq is None:
        return y.mean(axis=0)                                      # (tau,)

    d_vals = sync_cfg.candidates
    k_max = int(ks[-1] + d_vals.max())
    k_min = int(ks[0] + d_vals.min())
    cp_seq = np.exp(1j * phase_seq.plan(k_min, k_max)[:, 0])
    idx = (ks[:, None] + d_vals[None, :]) - k_min                  # (K, D)
    c = cp_seq[idx]
    return (y.T @ np.conj(c)) / k_count                            # (tau, D)


def estimate_pre_fft(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                     phase_seq: PhaseSequence):
    """Coarse estimates from the pre-FFT surface.

    Returns (estimate, surface); the estimate carries the argmax time offset,
    the winning candidate offset and the fractional CFO from the peak phase.
    Ties break toward the lowest (tau, d) index.
    """
    surface = pre_fft_surface(r, config, sync_cfg, phase_seq)
    mag = np.abs(surface)
    tau_idx, d_idx = np.unravel_index(np.argmax(mag), mag.shape)
    peak = surface[tau_idx, d_idx]
    frac = float((-np.angle(peak) / (2 * np.pi)) % 1.0)
    low_conf = bool(mag.max() < 1.5 * mag.mean())
    # The row index marks the CP1 window start plus one CP length, because the
    # waveform origin sits at the start of block 0's CP1, not its body.
    est = SyncEstimate(
        t0_hat=float((tau_idx - config.cp_samples) * r.sample_interval),
        k0_hat=int(sync_cfg.candidates[d_idx]),
        frac_cfo_hat=frac,
        peak_metric=float(np.abs(peak)),
        low_confidence=low_conf,
    )
    return est, surface


def demod_fft(r: ComplexSignal, body_starts, config: OfdmConfig,
              sync_cfg: SyncConfig) -> np.ndarray:
    """Extended-grid demodulation of the block bodies at ``body_starts`` (a
    sample index, or an array of them for one output row each).

    The N_c body samples are spectrally resampled onto the N_c' = N_c+N_u-N_l
    bin grid (scale N_c'/N_c), leaving room for integer CFO shifts up to the
    search bounds. With N_u = N_l = 0 this is the plain N_c-point FFT.
    """
    n_c = config.n_carriers
    starts = np.asarray(body_starts)
    if np.any(starts < 0) or np.any(starts > r.samples.size - n_c):
        raise ValueError("block body out of range")
    spec = np.fft.fft(r.samples[starts[..., None] + np.arange(n_c)], axis=-1)
    n_fft = sync_cfg.n_fft(config)
    bins = np.arange(n_fft) % n_c
    # C order keeps the block averages downstream summing in row order
    return (n_fft / n_c) * np.ascontiguousarray(spec[..., bins])


def _gamma_avg(r_blocks: np.ndarray, pilot_phases: np.ndarray,
               lag: int = 1) -> np.ndarray:
    """Block average of the despread cross-block products at the given block
    lag, one value per extended-grid bin."""
    dphase = pilot_phases[:-lag] - pilot_phases[lag:]
    gamma = (r_blocks[:-lag] * np.conj(r_blocks[lag:])
             * np.exp(1j * dphase)[:, None])
    return gamma.mean(axis=0)


def estimate_integer_cfo(r_blocks: np.ndarray, pilots: list,
                         phases: np.ndarray, config: OfdmConfig,
                         sync_cfg: SyncConfig):
    """Integer CFO and residual fractional error from cross-block pilot
    correlations.

    ``r_blocks``: (K+1, N_c') demodulated blocks; ``pilots``: [(index,
    value), ...]; ``phases``: (K+1, P) secret phases of the pilot
    subcarriers for the same blocks. The 1/|p|^2-weighted metrics of all
    pilots and block lags 1..3 are added before the peak search, which runs
    only over the feasible bins (index + n0) mod N_c' for n0 in [n_l, n_u];
    the bound on the integer offset is known a priori.
    Returns (n0_hat, zeta0_hat, low_confidence).
    """
    n_fft = r_blocks.shape[1]
    k_count = r_blocks.shape[0] - 1
    tb_over_ts = config.block_samples / config.n_carriers
    n0_cands = np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)
    gammas = {lag: [_gamma_avg(r_blocks, phases[:, j], lag)
                    for j in range(len(pilots))]
              for lag in {1, 2, 3, min(4, k_count)} if lag <= k_count}
    # each lag contributes an independent average
    scores = sum(sum(np.abs(g[(idx + n0_cands) % n_fft]) / abs(value) ** 2
                     for g, (idx, value) in zip(gammas[lag], pilots))
                 for lag in (1, 2, 3) if lag in gammas)
    n0 = int(n0_cands[int(np.argmax(scores))])
    order = np.sort(scores)
    low_conf = bool(order[-1] < 1.5 * order[-2]) if scores.size > 1 else False

    def zeta_at(lag: int) -> float:
        # peak phase is -2*pi*(n0+zeta0)*lag*T_b/T_s; remove the known
        # integer part
        rot = np.exp(2j * np.pi * n0 * lag * tb_over_ts)
        peak = sum(g[(idx + n0) % n_fft] * rot / abs(value) ** 2
                   for g, (idx, value) in zip(gammas[lag], pilots))
        return float(-np.angle(peak) / (2 * np.pi * lag * tb_over_ts))

    zeta0 = zeta_at(1)
    # refine zeta0 with a longer block lag: the phase slope grows with the
    # lag, so its noise shrinks; the lag-1 estimate picks the branch
    lag = min(4, k_count)
    if lag > 1:
        zeta_l = zeta_at(lag)
        period = 1.0 / (lag * tb_over_ts)
        zeta0 = zeta_l + period * round((zeta0 - zeta_l) / period)
    return n0, zeta0, low_conf


def estimate_fine_time(r_blocks: np.ndarray, pilots: list, phases: np.ndarray,
                       n0: int, config: OfdmConfig) -> float:
    """Residual time offset from the phase slope across two pilot carriers.

    ``pilots``: [(i_p1, p1), (i_p2, p2)]; ``phases``: (K, 2) secret phases of
    the two pilot carriers per block. Result folded into [0, T_CP2).
    """
    (ip1, p1), (ip2, p2) = pilots
    if ip1 == ip2:
        raise ValueError("fine time estimation needs two distinct pilots")
    dip = ip1 - ip2
    if abs(dip) * config.t_cp2 / config.t_body > 1.0:
        raise ValueError(
            "pilot spacing violates the unambiguous fine-time range"
        )
    n_fft = r_blocks.shape[1]
    b1 = (ip1 + n0) % n_fft
    b2 = (ip2 + n0) % n_fft
    ups = (r_blocks[:, b1] * np.conj(r_blocks[:, b2]) * np.conj(p1) * p2
           * np.exp(1j * (phases[:, 0] - phases[:, 1])))
    u = ups.mean()
    t0p = float(-np.angle(u) * config.t_body / (2 * np.pi * dip))
    period = config.t_body / abs(dip)
    t0p %= period
    if t0p >= (config.t_cp2 + period) / 2:
        t0p -= period
    return min(max(t0p, 0.0), np.nextafter(config.t_cp2, 0.0))


def estimate_phase(r_blocks: np.ndarray, pilots: list, phases: np.ndarray,
                   n0: int, zeta0: float, t0p_samples: float,
                   config: OfdmConfig, t_window0: float = 0.0) -> float:
    """Carrier phase from the 1/|p|^2-weighted sum of the K-block averages
    of the despread pilots, after compensating the residual CFO phase at
    each FFT window start and the fine-time phase ramp.

    ``pilots``: [(index, value), ...]; ``phases``: (K, P) secret phases of
    the pilot subcarriers. ``t_window0`` is the absolute start time of the
    first demodulation window, so the returned phase is referenced to t = 0.
    """
    n_fft = r_blocks.shape[1]
    # residual CFO phase e^{j 2*pi*(n0+zeta0)*t_wk/T_s} at window start t_wk
    t_wk = t_window0 + np.arange(r_blocks.shape[0]) * config.t_block
    drift = np.exp(-2j * np.pi * (n0 + zeta0) * t_wk / config.t_body)
    total = 0.0
    for j, (idx, value) in enumerate(pilots):
        # The window-start shift ramps the spectrum before the CFO shifts
        # it, so the ramp is evaluated at the pilot's own carrier, not the
        # moved bin.
        base_bin = idx % config.n_carriers
        ramp = np.exp(2j * np.pi * base_bin * t0p_samples / config.n_carriers)
        vals = (r_blocks[:, (idx + n0) % n_fft] * np.exp(1j * phases[:, j])
                * np.conj(value) * drift * ramp)
        total += complex(vals.mean()) / abs(value) ** 2
    return float(np.angle(total))


def synchronize(r: ComplexSignal, config: OfdmConfig, sync_cfg: SyncConfig,
                phase_seq: PhaseSequence):
    """Full two-stage pipeline. Returns (SyncEstimate, pre-FFT surface).

    After the coarse stage the fractional CFO is compensated on absolute time
    and the FFT window is backed off into CP2 so the fine-time estimator sees
    a strictly positive residual offset. The post-FFT stages use the first
    two pilots in carrier order.
    """
    est, surface = estimate_pre_fft(r, config, sync_cfg, phase_seq)
    dt = r.sample_interval
    tau_samp = int(round(est.t0_hat / dt))

    t_abs = np.arange(r.samples.size) * dt
    corrected = ComplexSignal(
        r.samples * np.exp(-2j * np.pi * est.frac_cfo_hat * t_abs / config.t_body),
        dt)

    pilots = sorted(config.pilot_positions.items())[:2]
    if len(pilots) < 2:
        raise ValueError("post-FFT synchronization needs two pilot carriers")
    ks = np.arange(FIRST_BLOCK, FIRST_BLOCK + sync_cfg.n_blocks + 1)
    window0 = tau_samp - sync_cfg.backoff(config) + config.cp_samples
    r_blocks = demod_fft(corrected, window0 + ks * config.block_samples,
                         config, sync_cfg)
    plans = phase_seq.plan(ks[0] + est.k0_hat, ks[-1] + est.k0_hat)
    # C order, as in demod_fft
    phases = np.ascontiguousarray(plans[:, [1 + i for i, _ in pilots]])

    n0, zeta0, cfo_low_conf = estimate_integer_cfo(r_blocks, pilots, phases,
                                                   config, sync_cfg)
    t0p = estimate_fine_time(r_blocks[:-1], pilots, phases[:-1], n0, config)
    t_window0 = (window0 + FIRST_BLOCK * config.block_samples) * dt
    est.n0_hat = n0
    est.zeta0_hat = zeta0
    est.t0p_hat = t0p
    est.phi0_hat = estimate_phase(r_blocks[:-1], pilots, phases[:-1], n0,
                                  zeta0, t0p / dt, config, t_window0)
    est.low_confidence = est.low_confidence or cfo_low_conf
    return est, surface
