"""Shared-secret phase shift generation.

Both ends of the link derive identical phase shift sequences from an AES key.
AES-128/256 runs in counter mode where the counter block encodes
(epoch, block index, intra-block counter), giving O(1) random access to the
phases of any OFDM block: block k can be derived without generating blocks
0..k-1, which the receiver needs when searching over candidate sequence
offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

__all__ = [
    "SecretKey",
    "StreamState",
    "derive_bits",
    "map_psk",
    "phase_plans",
    "PhaseSequence",
]

_AES_BLOCK_BYTES = 16
_AES_BLOCK_BITS = 128


class KeystreamConfigError(ValueError):
    """Raised for invalid key material or PSK configuration."""


class SecretKey:
    """AES key shared by transmitter and receiver (16 or 32 bytes)."""

    __slots__ = ("key_bytes",)

    def __init__(self, key_bytes: bytes):
        if len(key_bytes) not in (16, 32):
            raise KeystreamConfigError(
                f"key must be 16 or 32 bytes, got {len(key_bytes)}"
            )
        self.key_bytes = bytes(key_bytes)

    @classmethod
    def from_hex(cls, hex_str: str) -> "SecretKey":
        try:
            raw = bytes.fromhex(hex_str)
        except ValueError as exc:
            raise KeystreamConfigError(f"invalid hex key: {exc}") from exc
        return cls(raw)

    def __eq__(self, other):
        return isinstance(other, SecretKey) and self.key_bytes == other.key_bytes

    def __hash__(self):
        return hash(self.key_bytes)


@dataclass(frozen=True)
class StreamState:
    """Address of a position in the keystream.

    (epoch, block_index, intra_block_counter) uniquely addresses every
    generated AES block; advancing any component never revisits an address
    within an epoch.
    """

    epoch: int
    block_index: int = 0
    intra_block_counter: int = 0

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        if self.block_index < 0:
            raise ValueError("block_index must be non-negative")
        if self.intra_block_counter < 0:
            raise ValueError("intra_block_counter must be non-negative")


def aes_encrypt_block(key: SecretKey, block: bytes) -> bytes:
    """Single-block AES encryption (ECB on one block); exposed for self-test."""
    if len(block) != _AES_BLOCK_BYTES:
        raise ValueError("AES block must be 16 bytes")
    enc = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _keystream(key: SecretKey, epoch: int, k_first: int, count: int,
               counter0: int, n_aes: int) -> np.ndarray:
    """AES-ECB encryption of the counter blocks of stream blocks
    k_first..k_first+count-1, counters counter0..counter0+n_aes-1 each, in one
    cipher call. Counter block layout: epoch (4B) | block_index (8B) |
    counter (4B). Returns uint8 keystream bytes, one row per stream block."""
    if (not 0 <= epoch < 1 << 32 or k_first + count > 1 << 64
            or counter0 + n_aes > 1 << 32):
        raise ValueError("stream address out of range")
    ctr = np.empty((count, n_aes), dtype=[("epoch", ">u4"), ("block", ">u8"),
                                          ("counter", ">u4")])
    ctr["epoch"] = epoch
    ctr["block"] = np.uint64(k_first) + np.arange(count, dtype=np.uint64)[:, None]
    ctr["counter"] = counter0 + np.arange(n_aes, dtype=np.uint64)
    enc = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    stream = enc.update(ctr.tobytes()) + enc.finalize()
    return np.frombuffer(stream, dtype=np.uint8).reshape(count, -1)


def derive_bits(key: SecretKey, state: StreamState, n_bits: int) -> np.ndarray:
    """Deterministic keystream bits for the given (key, state) address.

    Returns a uint8 array of 0/1 values. Identical inputs always yield
    identical bits; distinct keys yield statistically independent streams.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    n_blocks = -(-n_bits // _AES_BLOCK_BITS)
    stream = _keystream(key, state.epoch, state.block_index, 1,
                        state.intra_block_counter, n_blocks)
    return np.unpackbits(stream[0])[:n_bits]


def map_psk(bits: np.ndarray, psk_order: int) -> np.ndarray:
    """Map groups of log2(M) bits (big-endian) to angles 2*pi*v/M."""
    m = int(psk_order)
    if m < 2 or m & (m - 1):
        raise KeystreamConfigError(f"PSK order must be a power of 2, got {psk_order}")
    bits = np.asarray(bits, dtype=np.uint8)
    log2m = m.bit_length() - 1
    if bits.size % log2m:
        raise ValueError(
            f"bit count {bits.size} not divisible by log2(M)={log2m}"
        )
    groups = bits.reshape(-1, log2m)
    weights = 1 << np.arange(log2m - 1, -1, -1)
    values = groups @ weights
    return 2.0 * np.pi * values / m


def phase_plans(key: SecretKey, epoch: int, k_first: int, count: int,
                n_carriers: int, psk_order: int) -> np.ndarray:
    """Secret angles of OFDM blocks k_first..k_first+count-1, shape
    (count, N_c+1): column 0 is the CP phase angle and columns 1.. are the
    subcarrier phases, each an exact multiple of 2*pi/M.

    Random access: row i is derived from the stream address of block
    k_first+i without touching any earlier block; all rows come from one
    AES call.
    """
    if k_first < 0:
        raise ValueError("block index must be non-negative")
    n_bits = (n_carriers + 1) * (int(psk_order).bit_length() - 1)
    stream = _keystream(key, epoch, k_first, count, 0,
                        -(-n_bits // _AES_BLOCK_BITS))
    bits = np.unpackbits(stream, axis=1)[:, :n_bits]
    return map_psk(bits, psk_order).reshape(count, n_carriers + 1)


class PhaseSequence:
    """Cached phase plans of one (key, epoch), one row per block as in
    :func:`phase_plans`; rows 0..k are derived when block k is first needed.

    The receiver's nominal sequence; the transmitter's sequence is the same
    rows at a shifted block index.
    """

    def __init__(self, key: SecretKey, epoch: int, n_carriers: int, psk_order: int):
        self.key = key
        self.epoch = epoch
        self.n_carriers = n_carriers
        self.psk_order = psk_order
        self._angles = np.empty((0, n_carriers + 1))

    def plan(self, k_first: int, k_last: int) -> np.ndarray:
        """Rows of blocks k_first..k_last inclusive (read-only)."""
        if not 0 <= k_first <= k_last:
            raise ValueError("need 0 <= k_first <= k_last")
        have = len(self._angles)
        if k_last >= have:
            more = phase_plans(self.key, self.epoch, have, k_last + 1 - have,
                               self.n_carriers, self.psk_order)
            self._angles = np.concatenate([self._angles, more])
            self._angles.flags.writeable = False
        return self._angles[k_first:k_last + 1]
