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

from ._checks import check_int, check_psk_order

__all__ = [
    "SecretKey",
    "phase_plans",
    "PhaseSequence",
    "psk_phasors",
]

_AES_BLOCK_BITS = 128


class SecretKey:
    """AES key shared by transmitter and receiver (16 or 32 bytes)."""

    __slots__ = ("key_bytes",)

    def __init__(self, key_bytes: bytes):
        if len(key_bytes) not in (16, 32):
            raise ValueError(f"key must be 16 or 32 bytes, got {len(key_bytes)}")
        self.key_bytes = bytes(key_bytes)

    @classmethod
    def from_hex(cls, hex_str: str) -> "SecretKey":
        try:
            raw = bytes.fromhex(hex_str)
        except ValueError as exc:
            raise ValueError(f"invalid hex key: {exc}") from exc
        return cls(raw)

    def __eq__(self, other):
        return isinstance(other, SecretKey) and self.key_bytes == other.key_bytes

    def __hash__(self):
        return hash(self.key_bytes)


def psk_phasors(psk_order: int) -> np.ndarray:
    """e^{j 2 pi v/M} for v = 0..M-1: the M-PSK phasor of index v."""
    m = check_int("psk_order", psk_order, 1)
    return np.exp(1j * (2.0 * np.pi * np.arange(m) / m))


def phase_plans(key: SecretKey, epoch: int, k_first: int, count: int,
                n_carriers: int, psk_order: int) -> np.ndarray:
    """Secret PSK indices v in [0, M) of OFDM blocks k_first..k_first+count-1,
    shape (count, N_c+1): column 0 is the CP phase index and columns 1.. the
    subcarrier ones, each log2(M) keystream bits, most significant first.
    M = 1 (classical OFDM) takes no bits: every index is 0.

    Random access: row i is derived from the stream address of block
    k_first+i without touching any earlier block; all rows come from one
    AES-ECB call on the counter blocks epoch (4B) | block index (8B) |
    counter (4B), counters 0, 1, ... within each block.
    """
    m = int(check_psk_order(psk_order))
    check_int("epoch", epoch)  # its range is part of the stream address
    check_int("k_first", k_first, 0)
    check_int("count", count, 1)
    check_int("n_carriers", n_carriers, 1)
    log2m = m.bit_length() - 1
    n_bits = (n_carriers + 1) * log2m
    n_aes = -(-n_bits // _AES_BLOCK_BITS)
    if not 0 <= epoch < 1 << 32 or k_first + count > 1 << 64 or n_aes > 1 << 32:
        raise ValueError("stream address out of range")
    if n_bits == 0:
        return np.zeros((count, n_carriers + 1), dtype=np.int64)
    ctr = np.empty((count, n_aes), dtype=[("epoch", ">u4"), ("block", ">u8"),
                                          ("counter", ">u4")])
    ctr["epoch"] = epoch
    ctr["block"] = np.uint64(k_first) + np.arange(count, dtype=np.uint64)[:, None]
    ctr["counter"] = np.arange(n_aes, dtype=np.uint64)
    enc = Cipher(algorithms.AES(key.key_bytes), modes.ECB()).encryptor()
    stream = np.frombuffer(enc.update(ctr.tobytes()) + enc.finalize(),
                           dtype=np.uint8).reshape(count, -1)
    bits = np.unpackbits(stream, axis=1)[:, :n_bits]
    msb_first = 1 << np.arange(log2m - 1, -1, -1)
    return bits.reshape(count, n_carriers + 1, log2m) @ msb_first


class PhaseSequence:
    """Cached secret phasors of one (key, epoch): row k is the
    :func:`psk_phasors` table read at the indices of block k in
    :func:`phase_plans`.

    One window of consecutive rows is cached: ``plan`` derives only the
    blocks missing on either side of a request that overlaps or touches it,
    and starts a new window for any other, so a far block costs only its own
    rows. No module of the package uses it: an experiment derives its rows
    once with :func:`phase_plans`. ``bench/`` still wraps and checks its
    methods, so it goes when the benchmark stops naming it.
    """

    def __init__(self, key: SecretKey, epoch: int, n_carriers: int, psk_order: int):
        self.key = key
        self.epoch = epoch
        self.n_carriers = n_carriers
        self.psk_order = psk_order
        self._first = 0
        self._rows = np.empty((0, n_carriers + 1), dtype=complex)
        self._table = psk_phasors(psk_order)

    def _derive(self, k_first: int, count: int) -> np.ndarray:
        return self._table[phase_plans(self.key, self.epoch, k_first, count,
                                       self.n_carriers, self.psk_order)]

    def plan(self, k_first: int, k_last: int) -> slice:
        """Extend the window to blocks k_first..k_last; return their slice."""
        if not 0 <= k_first <= k_last:
            raise ValueError("need 0 <= k_first <= k_last")
        lo, hi = self._first, self._first + len(self._rows)
        if k_last + 1 < lo or k_first > hi:  # disjoint: start a new window
            lo = hi = k_first
            self._rows = self._rows[:0]
        if k_first < lo or k_last >= hi:
            before = [self._derive(k_first, lo - k_first)] if k_first < lo else []
            after = [self._derive(hi, k_last + 1 - hi)] if k_last >= hi else []
            self._rows = np.concatenate(before + [self._rows] + after)
            self._rows.flags.writeable = False
            self._first = min(lo, k_first)
        return slice(k_first - self._first, k_last + 1 - self._first)

    def phasors(self, k_first: int, k_last: int) -> np.ndarray:
        """Rows of blocks k_first..k_last inclusive (read-only)."""
        rows = self.plan(k_first, k_last)  # may replace self._rows
        return self._rows[rows]
