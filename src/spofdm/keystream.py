"""Shared-secret phase shift generation.

Both ends of the link derive identical phase shift sequences from an AES key.
AES-128/256 runs in counter mode where the counter block encodes
(epoch, block index, intra-block counter), giving O(1) random access to the
phases of any OFDM block: block k can be derived without generating blocks
0..k-1, which the receiver needs when searching over candidate sequence
offsets.
"""

from __future__ import annotations

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

__all__ = [
    "SecretKey",
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


def aes_encrypt_block(key: SecretKey, block: bytes) -> bytes:
    """Single-block AES encryption (ECB on one block); exposed for self-test."""
    if len(block) != _AES_BLOCK_BYTES:
        raise ValueError("AES block must be 16 bytes")
    enc = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


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
    AES-ECB call on the counter blocks epoch (4B) | block index (8B) |
    counter (4B), counters 0, 1, ... within each block.
    """
    if k_first < 0:
        raise ValueError("block index must be non-negative")
    if count < 1:
        raise ValueError("count must be at least 1")
    n_bits = (n_carriers + 1) * (int(psk_order).bit_length() - 1)
    n_aes = -(-n_bits // _AES_BLOCK_BITS)
    if not 0 <= epoch < 1 << 32 or k_first + count > 1 << 64 or n_aes > 1 << 32:
        raise ValueError("stream address out of range")
    ctr = np.empty((count, n_aes), dtype=[("epoch", ">u4"), ("block", ">u8"),
                                          ("counter", ">u4")])
    ctr["epoch"] = epoch
    ctr["block"] = np.uint64(k_first) + np.arange(count, dtype=np.uint64)[:, None]
    ctr["counter"] = np.arange(n_aes, dtype=np.uint64)
    enc = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    stream = np.frombuffer(enc.update(ctr.tobytes()) + enc.finalize(),
                           dtype=np.uint8).reshape(count, -1)
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
