"""Receiver chain: QPSK LLRs, LDPC encoding and LDPC belief propagation.

The encoder reads each codeword's parity bits from one table per code,
indexed by message nibble. The decoder keeps its messages in half-LLR units.

FFT demodulation lives in :mod:`spofdm.sync` (``demod_fft``) and secure
decoding in :mod:`spofdm.txchain` (``decode_phases``).

The four built-in n = 2016 codes are built on first use by
make_regular_parity_check; they are the only codes the harness and CLI decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real
from .txchain import QPSK

__all__ = [
    "ParityCheckCode",
    "LdpcEncoder",
    "qpsk_map",
    "llr_qpsk",
    "ldpc_bp_decode",
    "make_regular_parity_check",
    "BUILTIN_CODE_CHECKS",
    "builtin_code",
]


# index into QPSK of the bit pair (b0, b1), read as 2*b0 + b1
_GRAY = np.array([0, 3, 1, 2])


def _check_bits(bits: np.ndarray) -> None:
    """Raise ``ValueError`` unless every value is 0 or 1 (before any cast,
    which would wrap 256 to 0 and -1 to 255)."""
    bad = bits[(bits != 0) & (bits != 1)]
    if bad.size:
        raise ValueError(f"bit values must be 0 or 1, got {bad[0]}")


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power QPSK: bit pair (b0, b1) -> ((1-2b0)+j(1-2b1))/sqrt(2)."""
    bits = np.asarray(bits)
    _check_bits(bits)
    if bits.size % 2:
        raise ValueError("bit count must be even for QPSK")
    pairs = bits.reshape(-1, 2).astype(np.int64)
    return QPSK[_GRAY[2 * pairs[:, 0] + pairs[:, 1]]]


def llr_qpsk(symbols: np.ndarray, noise_power_model: float) -> np.ndarray:
    """Per-bit LLRs under the Gaussian surrogate noise model.

    LLR = 2*sqrt(2)*component/noise_power for the real (bit 0) and imaginary
    (bit 1) components; positive LLR favours bit value 0.
    """
    if check_real("noise_power_model", noise_power_model) <= 0:
        raise ValueError("noise_power_model must be positive, "
                         f"got {noise_power_model!r}")
    symbols = np.asarray(symbols, dtype=complex)
    llr = np.empty(2 * symbols.size)
    scale = 2 * np.sqrt(2) / noise_power_model
    llr[0::2] = scale * symbols.real
    llr[1::2] = scale * symbols.imag
    return llr


# ---------------------------------------------------------------------------
# LDPC codes


@dataclass
class ParityCheckCode:
    """Binary parity-check matrix in edge-list form.

    Every check and every variable must have at least one edge."""

    n: int
    m: int
    check_of_edge: np.ndarray  # edge arrays sorted by variable node
    var_of_edge: np.ndarray

    def __post_init__(self):
        check_int("n", self.n, 1)
        check_int("m", self.m, 1)
        order = np.lexsort((self.check_of_edge, self.var_of_edge))
        self.var_of_edge = np.asarray(self.var_of_edge, dtype=np.int64)[order]
        self.check_of_edge = np.asarray(self.check_of_edge, dtype=np.int64)[order]
        degrees = {}
        for name, idx, size in (("check", self.check_of_edge, self.m),
                                ("variable", self.var_of_edge, self.n)):
            bad = idx[(idx < 0) | (idx >= size)]
            if bad.size:
                raise ValueError(f"{name} index {bad[0]} out of range")
            degrees[name] = deg = np.bincount(idx, minlength=size)
            if not deg.all():  # BP's degree groups read slot 0 of each node
                raise ValueError(f"{name} {np.argmin(deg)} has no edges")
        # BP edge order: checks grouped by degree, in _check_order, each group
        # a slot-major (degree, checks) block, so slot j of every check in it
        # is one run; _bp_groups holds each group's degree, checks and edges
        by_check = np.lexsort((self.var_of_edge, self.check_of_edge))
        check_starts = np.cumsum(degrees["check"]) - degrees["check"]
        slot = np.empty_like(by_check)
        slot[by_check] = (np.arange(by_check.size)
                          - check_starts[self.check_of_edge[by_check]])
        bp = np.lexsort((self.check_of_edge, slot,
                         degrees["check"][self.check_of_edge]))
        self._check_order = np.argsort(degrees["check"], kind="stable")
        group_deg, group_checks = np.unique(degrees["check"], return_counts=True)
        ends = np.cumsum(group_deg * group_checks).tolist()
        self._bp_groups = [(d, c, slice(e - d * c, e)) for d, c, e in
                           zip(group_deg.tolist(), group_checks.tolist(), ends)]
        # BP variable order: variables grouped by degree; _bp_var is each
        # edge's variable in it, and _bp_sums holds per variable degree d the
        # group's columns and the (d, variables) BP positions of its edges,
        # in check order
        self._var_order = np.argsort(degrees["variable"], kind="stable")
        self._bp_var = np.argsort(self._var_order)[self.var_of_edge[bp]]
        bp_pos = np.argsort(bp)
        var_starts = np.cumsum(degrees["variable"]) - degrees["variable"]
        group_deg, group_vars = np.unique(degrees["variable"],
                                          return_counts=True)
        ends = np.cumsum(group_vars).tolist()
        self._bp_sums = [
            (slice(e - c, e), bp_pos[var_starts[self._var_order[e - c:e]]
                                     + np.arange(d)[:, None]])
            for d, c, e in zip(group_deg.tolist(), group_vars.tolist(), ends)]

    def _parity(self, edge_bits: np.ndarray) -> np.ndarray:
        """XOR of each check's values in (edges, frames) ``edge_bits``, rows
        in BP edge order: a (m, frames) array, rows in ``_check_order``."""
        return np.concatenate([np.bitwise_xor.reduce(edge_bits[e].reshape(
            d, c, edge_bits.shape[1]), axis=0) for d, c, e in self._bp_groups])

    def dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[self.check_of_edge, self.var_of_edge] = 1
        return h

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """The (..., m) parity checks of (..., n) 0/1 ``bits``."""
        bits = np.asarray(bits)
        _check_bits(bits)
        if bits.shape[-1:] != (self.n,):
            raise ValueError(f"bits length must be {self.n}")
        bits = bits.astype(np.uint8, copy=False)
        frames = bits.reshape(-1, bits.shape[-1]).T
        parity = self._parity(frames[self._var_order[self._bp_var]])
        out = np.empty(parity.shape[::-1], dtype=np.uint8)
        out[:, self._check_order] = parity.T
        return out.reshape(*bits.shape[:-1], self.m)


def make_regular_parity_check(n: int, m: int, col_degree: int = 3,
                              seed: int = 0) -> ParityCheckCode:
    """Deterministic near-regular LDPC construction.

    Every variable has degree ``col_degree``; check degrees are as even as
    possible. Parallel edges are repaired by random swaps; 4-cycles are
    left as they fall. The built-in codes are its output at seed 12345 and
    are pinned, so changing the construction changes them.
    """
    for name, value in (("n", n), ("m", m), ("col_degree", col_degree)):
        check_int(name, value, 1)
    if col_degree > m:  # a variable cannot meet more distinct checks than m
        raise ValueError(f"col_degree {col_degree} exceeds the {m} checks")
    rng = np.random.default_rng(seed)
    n_edges = n * col_degree
    base = np.arange(n_edges) % m
    for _ in range(200):
        sockets = rng.permutation(base)
        cols = np.repeat(np.arange(n), col_degree)
        # repair parallel edges by random swaps
        for _ in range(100):
            # every repeat of an earlier (column, check) pair
            _, first = np.unique(cols * m + sockets, return_index=True)
            dup_idx = np.setdiff1d(np.arange(n_edges), first)
            if dup_idx.size == 0:
                break
            swap_with = rng.integers(0, n_edges, size=len(dup_idx))
            for e, f in zip(dup_idx, swap_with):
                sockets[e], sockets[f] = sockets[f], sockets[e]
        else:
            continue
        return ParityCheckCode(n=n, m=m, check_of_edge=sockets, var_of_edge=cols)
    raise RuntimeError("failed to build a simple parity-check matrix")


# rate label -> check count m of the built-in n = 2016 code
BUILTIN_CODE_CHECKS = {"1_4": 1512, "1_3": 1344, "1_2": 1008, "2_3": 672}


def builtin_code(rate_label: str) -> ParityCheckCode:
    """The built-in code of a label in ``BUILTIN_CODE_CHECKS``."""
    if rate_label not in BUILTIN_CODE_CHECKS:
        raise ValueError(f"no built-in code for rate {rate_label!r}")
    return make_regular_parity_check(2016, BUILTIN_CODE_CHECKS[rate_label],
                                     col_degree=3, seed=12345)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 values packed into uint64 words, zero-padded at the end."""
    bits = np.pad(bits, ((0, 0), (0, -bits.shape[-1] % 64)))
    return np.packbits(np.ascontiguousarray(bits), axis=-1).view(np.uint64)


class LdpcEncoder:
    """Systematic encoder built from H by GF(2) elimination on bit-packed rows.

    Column pivoting selects m parity positions; the remaining columns carry
    the message bits. Redundant rows reduce the check count and raise the
    effective rate.

    The parity bits are A @ message (mod 2), with A from the reduced system,
    read from one table: row 16 g + v is the XOR of the bit-packed columns
    of A that the value v of message nibble g selects (bit b of v for
    message bit 4 g + b; the last nibble is zero-padded). A codeword's
    parity is the XOR of its k/4 table rows.
    """

    def __init__(self, code: ParityCheckCode):
        self.code = code
        words = _pack_words(code.dense())  # row operations act on words
        row_bytes = words.view(np.uint8)  # column c is bit 7 - c % 8 of byte c // 8
        pivot_cols = []
        row = 0
        for col in range(code.n):
            if row == code.m:  # every row has its pivot
                break
            ones = (row_bytes[:, col >> 3] & (0x80 >> (col & 7))).astype(bool)
            hits = np.flatnonzero(ones[row:])
            if hits.size == 0:
                continue
            pivot = row + hits[0]
            words[[row, pivot]] = words[[pivot, row]]
            ones[pivot], ones[row] = ones[row], False
            # the pivot row is zero left of col, so words before col's stay
            first = col >> 6
            words[np.flatnonzero(ones), first:] ^= words[row, first:]
            pivot_cols.append(col)
            row += 1
        self.rank = row
        self.pivot_cols = np.array(pivot_cols)
        self.message_cols = np.setdiff1d(np.arange(code.n), self.pivot_cols)
        reduced = np.unpackbits(row_bytes[:row], axis=1, count=code.n)
        cols = _pack_words(np.pad(reduced[:, self.message_cols].T,
                                  ((0, -self.k % 4), (0, 0))))
        cols = cols.reshape(-1, 4, cols.shape[1])
        table = np.zeros((cols.shape[0], 16, cols.shape[2]), dtype=np.uint64)
        for b in range(4):  # values with top bit b: the ones below, plus b
            table[:, 1 << b:2 << b] = table[:, :1 << b] ^ cols[:, b, None]
        self._table = table.reshape(-1, cols.shape[2])

    @property
    def k(self) -> int:
        return self.code.n - self.rank

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Map k message bits (or a batch of rows) to n-bit codewords."""
        message = np.asarray(message)
        _check_bits(message)
        single = message.ndim == 1
        msg = np.atleast_2d(message.astype(np.uint8, copy=False))
        if msg.shape[1] != self.k:
            raise ValueError(f"message length must be {self.k}")
        groups = len(self._table) // 16
        nibbles = np.zeros((len(msg), groups, 4), dtype=np.uint8)
        nibbles.reshape(len(msg), 4 * groups)[:, :self.k] = msg
        rows = np.packbits(nibbles, axis=-1, bitorder="little")[..., 0]
        rows = rows + 16 * np.arange(groups)
        words = np.bitwise_xor.reduce(np.take(self._table, rows, axis=0), axis=1)
        out = np.zeros((len(msg), self.code.n), dtype=np.uint8)
        out[:, self.message_cols] = msg
        out[:, self.pivot_cols] = np.unpackbits(words.view(np.uint8), axis=1,
                                                count=self.rank)
        return out[0] if single else out

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        codeword = np.asarray(codeword)
        if codeword.shape[-1:] != (self.code.n,):
            raise ValueError(f"codeword length must be {self.code.n}")
        return codeword[..., self.message_cols]


_F32_MAX = float(np.finfo(np.float32).max)
# largest float32 below 1: the cap of the leave-one-out products
_EXT_CAP = np.nextafter(np.float32(1), np.float32(0))


def ldpc_bp_decode(code: ParityCheckCode, llr: np.ndarray):
    """Sum-product belief propagation on the Tanner graph.

    ``llr`` may be a single length-n vector or a (batch, n) array; any other
    rank raises ``ValueError``. Stops early once all parity checks are
    satisfied (per batch element). Returns (hard bits, converged flags,
    iterations used); scalars for 1-D input.

    Messages run in float32. The LLRs are cast once, after ±inf and values
    beyond the float32 range are clamped to its largest finite value (they
    still give tanh(v/2) = ±1); a NaN LLR raises ``ValueError``. The
    leave-one-out tanh products are clipped to ±(1 - 2^-24), the largest
    float32 below 1, so every check message has magnitude at most
    2 artanh(1 - 2^-24) = 17.33.

    Every message is kept in half-LLR units: the cast LLRs are halved once,
    after iteration 0, the loop's own parity test on their signs, so
    ``tanh`` reads the variable messages as they are and ``arctanh`` returns
    the half check message. Halving is exact in float32's normal range, so
    each ``tanh`` input, hard decision, convergence flag and iteration count
    is that of the recursion in LLR units, which halves before ``tanh`` and
    doubles after ``arctanh``. Below 2^-126 (subnormal) a halving may round.

    Messages are stored edge-major, as (edges, frames) arrays with a column
    per frame still active, so both Tanner-graph permutations, the gather of
    check messages into variable order and that of the posteriors back into
    BP edge order, copy whole rows, and each degree slot of a check-degree
    group is one contiguous (checks, frames) block.

    A variable of degree d sums its check messages in place, in check order,
    as ``g[0] + (g[1] + ... + g[d-1])`` with the inner sum left to right,
    the order of ``np.add.reduceat`` for d <= 8; at d >= 9 ``reduceat``
    sums pairwise and may round differently.
    """
    llr = np.asarray(llr, dtype=float)
    if llr.ndim not in (1, 2):
        raise ValueError(f"llr must be 1-D or 2-D, got shape {llr.shape}")
    if np.isnan(llr).any():
        raise ValueError("llr contains NaN")
    single = llr.ndim == 1
    lin = np.atleast_2d(np.clip(llr, -_F32_MAX, _F32_MAX).astype(np.float32))
    if lin.shape[1] != code.n:
        raise ValueError(f"LLR length must be {code.n}")
    hard = np.empty(lin.shape, dtype=np.uint8)
    converged = np.zeros(lin.shape[0], dtype=bool)
    iters = np.zeros(lin.shape[0], dtype=int)

    # working arrays hold a column per frame still active: messages have a
    # row per edge in BP order, LLRs a row per variable in BP variable order
    active = np.arange(lin.shape[0])
    posterior = np.take(lin.T, code._var_order, axis=0)  # the cast LLRs
    for it in range(51):  # iteration 0, then at most 50
        v2c = np.take(posterior, code._bp_var, axis=0)
        # a check is satisfied when an even number of its variables are 1
        ok = ~code._parity(v2c < 0).any(axis=0)
        if it:
            v2c -= c2v
        else:  # half-LLR units from here on, once the LLR signs are read
            lin_a = posterior * 0.5
            v2c *= 0.5
        iters[active] = it
        done = ok | (it == 50)  # frames whose hard decisions are final
        if done.any():
            rows = np.empty((done.sum(), code.n), dtype=np.uint8)
            rows[:, code._var_order] = (posterior[:, done] < 0).T
            hard[active[done]] = rows
            converged[active[ok]] = True
            # np.take returns C order, where [:, mask] returns Fortran order;
            # keep is in range, and mode "wrap" skips the slower bounds check
            keep = np.flatnonzero(~done)
            active = active[keep]
            lin_a = np.take(lin_a, keep, axis=1, mode="wrap")
            v2c = np.take(v2c, keep, axis=1, mode="wrap")
        if not active.size:
            break
        t = np.tanh(v2c, out=v2c)  # exactly ±1 from |x| = 10 on
        # leave-one-out products per check: exclusive prefix times exclusive
        # suffix, a slot at a time (np.cumprod along the slot axis is about
        # three times slower); the empty product is 1, so no slot is
        # multiplied by 1
        ext = np.empty_like(t)
        for deg, checks, edges in code._bp_groups:
            blk = t[edges].reshape(deg, checks, active.size)
            out = ext[edges].reshape(blk.shape)
            if deg == 1:
                out[0] = 1.0
                continue
            out[1] = blk[0]
            for j in range(2, deg):
                np.multiply(out[j - 1], blk[j - 1], out=out[j])
            suffix = blk[deg - 1]
            for j in range(deg - 2, 0, -1):
                out[j] *= suffix
                suffix = suffix * blk[j]
            out[0] = suffix
        np.clip(ext, -_EXT_CAP, _EXT_CAP, out=ext)
        c2v = np.arctanh(ext, out=ext)
        posterior = np.empty_like(lin_a)
        for cols, pos in code._bp_sums:
            g = np.take(c2v, pos, axis=0)
            for j in range(2, len(g)):
                g[1] += g[j]
            if len(g) > 1:
                g[0] += g[1]
            np.add(lin_a[cols], g[0], out=posterior[cols])

    if single:
        return hard[0], bool(converged[0]), int(iters[0])
    return hard, converged, iters
