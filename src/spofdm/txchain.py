"""SP-OFDM transmit chain.

Symbol blocks, a (B, N_c) array, go through the secure phase precoder, an
IDFT (1/N_c scaling) for the block body, and the split cyclic prefix: CP1 is
the body tail segment rotated by the block's secret CP phase symbol, CP2 is a
verbatim copy of the very end of the body. Blocks are concatenated back to
back into the baseband waveform, sampled at the critical rate N_c/T_s.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_int, check_psk_order, check_real

__all__ = [
    "OfdmConfig",
    "ComplexSignal",
    "precode",
    "decode_phases",
    "modulate_block",
    "build_waveform",
    "random_symbol_blocks",
    "phase_ramp",
]

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)
_QPSK_POWER = float(np.mean(np.abs(QPSK) ** 2))
# despreading by a pilot outside this range overflows the sync estimators
_PILOT_RANGE = (2.0 ** -256, 2.0 ** 256)


@dataclass(frozen=True)
class OfdmConfig:
    """Static system parameters of the OFDM link. Data carriers are QPSK;
    the body is critically sampled, one sample per carrier, and lasts one
    time unit."""

    n_carriers: int
    cp1_samples: int
    cp2_samples: int
    psk_order: int
    pilot_positions: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_carriers", "cp1_samples", "cp2_samples"):
            check_int(name, getattr(self, name), 1)
        check_psk_order(self.psk_order)
        if self.cp1_samples + self.cp2_samples > self.n_carriers:
            raise ValueError("cp1_samples + cp2_samples cannot exceed n_carriers")
        for idx, value in self.pilot_positions.items():
            if not (check_int("pilot_positions", idx, 0) < self.n_carriers
                    and type(value) is not bool and isinstance(value, numbers.Complex)
                    and _PILOT_RANGE[0] <= abs(value) <= _PILOT_RANGE[1]):
                raise ValueError(
                    f"pilot_positions {idx}: {value!r} needs a carrier in [0, "
                    f"{self.n_carriers}) and a number p, 2**-256 <= |p| <= 2**256")
        object.__setattr__(self, "pilot_positions", {
            idx: complex(value) for idx, value in self.pilot_positions.items()})

    @property
    def sample_interval(self) -> float:
        return 1.0 / self.n_carriers

    @property
    def cp_samples(self) -> int:
        return self.cp1_samples + self.cp2_samples

    @property
    def block_samples(self) -> int:
        return self.cp_samples + self.n_carriers

    @property
    def t_body(self) -> float:
        return self.n_carriers * self.sample_interval

    @property
    def t_block(self) -> float:
        return self.block_samples * self.sample_interval

    @property
    def sample_power(self) -> float:
        """Mean power of one waveform sample, the QPSK symbol power over N_c.
        CP samples copy body samples, so they carry the body's power."""
        return _QPSK_POWER / self.n_carriers


@dataclass
class ComplexSignal:
    """Uniformly sampled complex baseband sequence."""

    samples: np.ndarray
    sample_interval: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if check_real("sample_interval", self.sample_interval) <= 0:
            raise ValueError("sample_interval must be positive")


def random_symbol_blocks(rng: np.random.Generator, n_blocks: int,
                         config: OfdmConfig) -> np.ndarray:
    """(n_blocks, N_c) i.i.d. QPSK symbols with the pilot values placed on
    their fixed subcarriers."""
    check_int("n_blocks", n_blocks, 1)
    symbols = QPSK[rng.integers(0, QPSK.size, size=(n_blocks, config.n_carriers))]
    for idx, value in config.pilot_positions.items():
        symbols[:, idx] = value
    return symbols


def precode(symbols: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """Apply the secret rotations: out_i = S_i * conj(P_i), P_i = e^{j Theta_i}.

    Broadcasts over leading axes: one block or a (B, N_c) batch.
    """
    if np.shape(phasors)[-1] != np.shape(symbols)[-1]:
        raise ValueError("phase plan length does not match symbol vector")
    return symbols * np.conj(phasors)


def decode_phases(precoded: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`precode` (conjugate phase rotations)."""
    return precode(precoded, np.conj(phasors))


def modulate_block(precoded: np.ndarray, cp_phase,
                   config: OfdmConfig) -> ComplexSignal:
    """OFDM blocks in the time domain, each [CP1 | CP2 | body], back to back.

    ``precoded`` is one length-N_c vector or a (B, N_c) batch, ``cp_phase``
    one secret CP phase symbol or one per block. body = IDFT of the precoded
    vector with 1/N_c scaling. CP2 copies the last cp2 body samples verbatim;
    CP1 copies the cp1 samples immediately before the CP2 source region,
    rotated by the block's CP phase symbol (1 for classical OFDM).
    """
    precoded = np.asarray(precoded, dtype=complex)
    if precoded.shape[-1] != config.n_carriers:
        raise ValueError("precoded vector length must equal n_carriers")
    body = np.fft.ifft(precoded, axis=-1)  # numpy ifft carries the 1/N scaling
    cp2 = body[..., -config.cp2_samples:]
    cp1 = (np.asarray(cp_phase)[..., None]
           * body[..., -config.cp_samples:-config.cp2_samples])
    samples = np.concatenate([cp1, cp2, body], axis=-1)
    return ComplexSignal(samples.ravel(), config.sample_interval)


def build_waveform(symbols: np.ndarray, phasors: np.ndarray,
                   config: OfdmConfig) -> ComplexSignal:
    """SP-OFDM waveform of consecutive blocks.

    Row b of ``phasors`` is the secret randomness of block b as unit phasors,
    ``psk_phasors(M)`` read at its :func:`spofdm.keystream.phase_plans` row:
    the CP phase symbol, then the subcarrier phasors. All-one phasors give the
    classical OFDM waveform, ``modulate_block(symbols, 1.0, config)``.
    """
    phasors = np.asarray(phasors)
    return modulate_block(precode(symbols, phasors[..., 1:]), phasors[..., 0], config)


def phase_ramp(step: float, phase: float, n: int, first: int = 0) -> np.ndarray:
    """e^{j(step*k + phase)} for k = first .. first+n-1.

    Sample k is C[k // 64] * F[k % 64], with C[q] = e^{j(64*step*q + phase)}
    and F[i] = e^{j*step*i}: about n/64 + 64 exps instead of n. Whole rows are
    formed, then sliced, so sample k depends only on k: any span is bitwise
    the same slice of the ramp over [0, first+n).
    """
    check_int("n", n, 0)
    check_int("first", first, 0)
    q0, q1 = first // 64, -(-(first + n) // 64)
    coarse = np.exp(1j * (step * 64 * np.arange(q0, q1) + phase))
    fine = np.exp(1j * (step * np.arange(64)))
    lo = first - q0 * 64
    return (coarse[:, None] * fine).ravel()[lo:lo + n]
