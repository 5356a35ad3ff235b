"""SP-OFDM transmit chain.

Symbol blocks, a (B, N_c) array, go through the secure phase precoder, an
IDFT (1/N_c scaling) for the block body, and the split cyclic prefix: CP1 is
the body tail segment rotated by the block's secret CP phase symbol, CP2 is a
verbatim copy of the very end of the body. Blocks are concatenated back to
back into the baseband waveform, sampled at the critical rate N_c/T_s.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "OfdmConfig",
    "ComplexSignal",
    "precode",
    "decode_phases",
    "modulate_block",
    "build_waveform",
    "random_symbol_blocks",
    "write_iq",
    "read_iq",
]

IQ_FORMAT = "interleaved_float64_iq"

QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)


@dataclass(frozen=True)
class OfdmConfig:
    """Static system parameters of the OFDM link. Data carriers are QPSK;
    the body is critically sampled, one sample per carrier."""

    n_carriers: int
    cp1_samples: int
    cp2_samples: int
    psk_order: int
    pilot_positions: dict = field(default_factory=dict)
    sample_interval: float = 1.0 / 128

    def __post_init__(self):
        if self.n_carriers <= 0:
            raise ValueError("n_carriers must be positive")
        if self.cp1_samples <= 0 or self.cp2_samples <= 0:
            raise ValueError("cp1_samples and cp2_samples must be positive")
        if self.cp1_samples + self.cp2_samples > self.n_carriers:
            raise ValueError("cp1_samples + cp2_samples cannot exceed n_carriers")
        m = self.psk_order
        if m < 2 or m & (m - 1):
            raise ValueError("psk_order must be a power of 2")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        for idx in self.pilot_positions:
            if not 0 <= idx < self.n_carriers:
                raise ValueError(f"pilot_positions: {idx} not in [0, {self.n_carriers})")

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
    def t_cp2(self) -> float:
        return self.cp2_samples * self.sample_interval

    @property
    def t_block(self) -> float:
        return self.block_samples * self.sample_interval

    @property
    def symbol_power(self) -> float:
        return float(np.mean(np.abs(QPSK) ** 2))

    def config_hash(self) -> str:
        payload = {
            "n_carriers": self.n_carriers,
            "cp1_samples": self.cp1_samples,
            "cp2_samples": self.cp2_samples,
            "psk_order": self.psk_order,
            "pilot_positions": {
                str(k): [v.real, v.imag] for k, v in sorted(self.pilot_positions.items())
            },
            "sample_interval": self.sample_interval,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class ComplexSignal:
    """Uniformly sampled complex baseband sequence."""

    samples: np.ndarray
    sample_interval: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")


def random_symbol_blocks(rng: np.random.Generator, n_blocks: int,
                         config: OfdmConfig) -> np.ndarray:
    """(n_blocks, N_c) i.i.d. QPSK symbols with the pilot values placed on
    their fixed subcarriers."""
    symbols = QPSK[rng.integers(0, QPSK.size, size=(n_blocks, config.n_carriers))]
    for idx, value in config.pilot_positions.items():
        symbols[:, idx] = value
    return symbols


def precode(symbols: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Apply the secret per-carrier phase rotations: out_i = S_i * e^{-j Theta_i}.

    Broadcasts over leading axes: one block or a (B, N_c) batch.
    """
    if np.shape(phases)[-1] != np.shape(symbols)[-1]:
        raise ValueError("phase plan length does not match symbol vector")
    return symbols * np.exp(-1j * phases)


def decode_phases(precoded: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Inverse of :func:`precode` (conjugate phase rotations)."""
    return precode(precoded, -np.asarray(phases))


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


def build_waveform(symbols: np.ndarray, angles: np.ndarray,
                   config: OfdmConfig) -> ComplexSignal:
    """SP-OFDM waveform of consecutive blocks.

    Row b of ``angles`` is the secret randomness of block b as returned by
    :func:`spofdm.keystream.phase_plans`: the CP phase angle, then the
    subcarrier phases.
    """
    angles = np.asarray(angles)
    return modulate_block(precode(symbols, angles[..., 1:]),
                          np.exp(1j * angles[..., 0]), config)


def write_iq(signal: ComplexSignal, path: str | Path, config_hash: str = "") -> None:
    """Interleaved float64 I/Q binary plus a sidecar text header."""
    path = Path(path)
    inter = np.empty(2 * signal.samples.size)
    inter[0::2] = signal.samples.real
    inter[1::2] = signal.samples.imag
    inter.tofile(path)
    header = path.with_suffix(path.suffix + ".hdr")
    header.write_text(
        f"format={IQ_FORMAT}\n"
        f"n_samples={signal.samples.size}\n"
        f"sample_interval={signal.sample_interval!r}\n"
        f"config_hash={config_hash}\n"
    )


def read_iq(path: str | Path) -> ComplexSignal:
    """Read a file written by :func:`write_iq`; the header's format and
    sample count are checked against the binary file."""
    path = Path(path)
    header = path.with_suffix(path.suffix + ".hdr")
    fields = {}
    for line in header.read_text().splitlines():
        k, _, v = line.partition("=")
        fields[k] = v
    size = path.stat().st_size
    if fields.get("format") != IQ_FORMAT:
        raise ValueError(f"{header}: field 'format' must be {IQ_FORMAT!r}")
    if fields.get("n_samples") != str(size // 16) or size % 16:
        raise ValueError(f"{header}: field 'n_samples' does not match the "
                         f"{size}-byte sample file")
    raw = np.fromfile(path)
    samples = raw[0::2] + 1j * raw[1::2]
    return ComplexSignal(samples, float(fields["sample_interval"]))
