"""Receiver chain: QPSK LLRs and LDPC belief propagation.

FFT demodulation lives in :mod:`spofdm.sync` (``demod_fft``) and secure
decoding in :mod:`spofdm.txchain` (``decode_phases``).

Parity-check matrices are pluggable: any alist-format file can be loaded, and
a deterministic near-regular construction is provided for desk-scale codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .txchain import QPSK

__all__ = [
    "ParityCheckCode",
    "LdpcEncoder",
    "qpsk_map",
    "llr_qpsk",
    "ldpc_bp_decode",
    "load_alist",
    "save_alist",
    "make_regular_parity_check",
    "bundled_code_path",
]


# index into QPSK of the bit pair (b0, b1), read as 2*b0 + b1
_GRAY = np.array([0, 3, 1, 2])


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power QPSK: bit pair (b0, b1) -> ((1-2b0)+j(1-2b1))/sqrt(2)."""
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ValueError("bit count must be even for QPSK")
    pairs = bits.reshape(-1, 2).astype(np.int64)
    return QPSK[_GRAY[2 * pairs[:, 0] + pairs[:, 1]]]


def llr_qpsk(symbols: np.ndarray, noise_power_model: float) -> np.ndarray:
    """Per-bit LLRs under the Gaussian surrogate noise model.

    LLR = 2*sqrt(2)*component/noise_power for the real (bit 0) and imaginary
    (bit 1) components; positive LLR favours bit value 0.
    """
    if noise_power_model <= 0:
        raise ValueError("noise power model must be positive")
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
        if self.n <= 0 or self.m <= 0:
            raise ValueError("H must be nonempty")
        order = np.lexsort((self.check_of_edge, self.var_of_edge))
        self.var_of_edge = np.asarray(self.var_of_edge, dtype=np.int64)[order]
        self.check_of_edge = np.asarray(self.check_of_edge, dtype=np.int64)[order]
        degrees = {}
        for name, idx, size in (("check", self.check_of_edge, self.m),
                                ("variable", self.var_of_edge, self.n)):
            degrees[name] = deg = np.bincount(idx, minlength=size)
            if deg.size > size:
                raise ValueError(f"{name} index {deg.size - 1} out of range")
            if not deg.all():  # reduceat would hand it its neighbour's edges
                raise ValueError(f"{name} {np.argmin(deg)} has no edges")
        # check-ordered variable index and group boundaries, for the syndrome
        self._var_by_check = self.var_of_edge[
            np.lexsort((self.var_of_edge, self.check_of_edge))]
        self._var_starts = np.cumsum(degrees["variable"]) - degrees["variable"]
        self._check_starts = np.cumsum(degrees["check"]) - degrees["check"]
        # BP edge order: checks grouped by degree, each group a dense
        # (checks, degree) block; _bp_to_var puts edges in variable order
        bp = np.lexsort((self.var_of_edge, self.check_of_edge,
                         degrees["check"][self.check_of_edge]))
        self._bp_var = self.var_of_edge[bp]
        self._bp_to_var = np.argsort(bp)
        group_deg, group_checks = np.unique(degrees["check"], return_counts=True)
        ends = np.cumsum(group_deg * group_checks).tolist()
        self._bp_groups = [(d, slice(e - d * c, e)) for d, c, e in
                           zip(group_deg.tolist(), group_checks.tolist(), ends)]

    def dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[self.check_of_edge, self.var_of_edge] = 1
        return h

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        return np.bitwise_xor.reduceat(bits[..., self._var_by_check],
                                       self._check_starts, axis=-1)


def load_alist(path: str | Path) -> ParityCheckCode:
    """Read a parity-check matrix in MacKay alist format.

    The row section must list the same edges as the column section."""
    rows = [line.split() for line in Path(path).read_text().split("\n")
            if line.strip()]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = []
    for name, size, lines, degrees in (("column", n, rows[4:4 + n], rows[2]),
                                       ("row", m, rows[4 + n:], rows[3])):
        if len(degrees) != size or len(lines) != size:
            raise ValueError(f"alist {name} section must have {size} entries")
        owner = np.repeat(np.arange(size), [len(line) for line in lines])
        idx = np.array([v for line in lines for v in line], dtype=np.int64)
        owner, idx = owner[idx > 0], idx[idx > 0] - 1  # drop zero padding
        bad = np.flatnonzero(np.bincount(owner, minlength=size)
                             != np.array(degrees, dtype=np.int64))
        if bad.size:
            raise ValueError(f"alist {name} {bad[0]} degree mismatch")
        edges.append((owner, idx))
    (var_c, check_c), (check_r, var_r) = edges
    by_col, by_row = (e[:, np.lexsort(e)] for e in (np.stack([check_c, var_c]),
                                                    np.stack([check_r, var_r])))
    if by_col.shape != by_row.shape or not np.array_equal(by_col, by_row):
        raise ValueError("alist row section disagrees with the column section")
    return ParityCheckCode(n=n, m=m, check_of_edge=by_col[0],
                           var_of_edge=by_col[1])


def save_alist(code: ParityCheckCode, path: str | Path) -> None:
    # 1-based check indices per column, then variable indices per row
    cols = np.split(code.check_of_edge + 1, code._var_starts[1:])
    rows = np.split(code._var_by_check + 1, code._check_starts[1:])
    col_deg, row_deg = [c.size for c in cols], [r.size for r in rows]
    lines = [f"{code.n} {code.m}", f"{max(col_deg)} {max(row_deg)}"]
    lines += [" ".join(map(str, idx)) for idx in [col_deg, row_deg] + cols + rows]
    Path(path).write_text("\n".join(lines) + "\n")


def make_regular_parity_check(n: int, m: int, col_degree: int = 3,
                              seed: int = 0) -> ParityCheckCode:
    """Deterministic near-regular LDPC construction.

    Every variable has degree ``col_degree``; check degrees are as even as
    possible. Parallel edges are repaired by swapping; 4-cycles are reduced
    best-effort.
    """
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


def bundled_code_path(rate_label: str) -> Path:
    """Path of a shipped alist file; labels: '1_4', '1_3', '1_2', '2_3'."""
    path = Path(__file__).parent / "codes" / f"rate{rate_label}.alist"
    if not path.exists():
        raise FileNotFoundError(f"no bundled code for rate {rate_label}")
    return path


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 values packed into uint64 words, zero-padded at the end."""
    bits = np.pad(bits, ((0, 0), (0, -bits.shape[-1] % 64)))
    return np.packbits(np.ascontiguousarray(bits), axis=-1).view(np.uint64)


class LdpcEncoder:
    """Systematic encoder built from H by GF(2) elimination.

    Column pivoting selects m parity positions; the remaining columns carry
    the message bits. Redundant rows reduce the check count and raise the
    effective rate.
    """

    def __init__(self, code: ParityCheckCode):
        self.code = code
        h = code.dense().astype(np.uint8)
        n = h.shape[1]
        pivot_cols = []
        row = 0
        for col in range(n):
            hits = np.flatnonzero(h[row:, col]) + row
            if hits.size == 0:
                continue
            h[[row, hits[0]]] = h[[hits[0], row]]
            mask = h[:, col].astype(bool).copy()
            mask[row] = False
            h[mask] ^= h[row]
            pivot_cols.append(col)
            row += 1
        self.rank = row
        self.pivot_cols = np.array(pivot_cols)
        self.message_cols = np.setdiff1d(np.arange(n), self.pivot_cols)
        # parity = A @ message (mod 2), from the reduced system; row w of
        # gen_words is 64-bit word w of every bit-packed row of A
        self.gen_words = _pack_words(h[: self.rank][:, self.message_cols]).T.copy()

    @property
    def k(self) -> int:
        return self.code.n - self.rank

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Map k message bits (or a batch of rows) to n-bit codewords."""
        message = np.asarray(message, dtype=np.uint8)
        single = message.ndim == 1
        msg = np.atleast_2d(message)
        if msg.shape[1] != self.k:
            raise ValueError(f"message length must be {self.k}")
        msg_words = _pack_words(msg)
        words = np.zeros((msg.shape[0], self.rank), dtype=np.uint64)
        for w, gen in enumerate(self.gen_words):
            words ^= msg_words[:, w, None] & gen
        for shift in (32, 16, 8, 4, 2, 1):  # fold each word to its parity bit
            words ^= words >> np.uint64(shift)
        out = np.zeros((msg.shape[0], self.code.n), dtype=np.uint8)
        out[:, self.message_cols] = msg
        out[:, self.pivot_cols] = words & np.uint64(1)
        return out[0] if single else out

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        return np.asarray(codeword)[..., self.message_cols]


def ldpc_bp_decode(code: ParityCheckCode, llr: np.ndarray):
    """Sum-product belief propagation on the Tanner graph.

    ``llr`` may be a single length-n vector or a (batch, n) array. Stops early
    once all parity checks are satisfied (per batch element). Returns
    (hard bits, converged flags, iterations used); scalars for 1-D input.
    """
    llr = np.asarray(llr, dtype=float)
    single = llr.ndim == 1
    lin = np.atleast_2d(llr)
    if lin.shape[1] != code.n:
        raise ValueError(f"LLR length must be {code.n}")
    hard = (lin < 0).astype(np.uint8)
    converged = ~code.syndrome(hard).any(axis=1)
    iters = np.zeros(lin.shape[0], dtype=int)

    # working arrays hold only the frames still active, messages in BP order
    active = np.flatnonzero(~converged)
    lin_a = lin[active]
    v2c = lin_a[:, code._bp_var]
    for it in range(1, 51):  # at most 50 iterations
        if not active.size:
            break
        t = np.tanh(0.5 * np.clip(v2c, -30, 30))
        # leave-one-out products per check: exclusive prefix times exclusive
        # suffix, a column at a time (np.cumprod along the short axis is slower)
        ext = np.empty_like(t)
        for deg, edges in code._bp_groups:
            blk = t[:, edges].reshape(len(t), -1, deg)
            out = ext[:, edges].reshape(blk.shape)
            out[..., 0], suffix = 1.0, np.ones(blk.shape[:-1])
            for j in range(1, deg):
                np.multiply(out[..., j - 1], blk[..., j - 1], out=out[..., j])
            for j in range(deg - 1, 0, -1):
                suffix *= blk[..., j]
                out[..., j - 1] *= suffix
        c2v = 2.0 * np.arctanh(np.clip(ext, -1 + 1e-12, 1 - 1e-12))
        posterior = lin_a + np.add.reduceat(c2v[:, code._bp_to_var],
                                            code._var_starts, axis=1)
        v2c = posterior[:, code._bp_var] - c2v
        hard_a = (posterior < 0).astype(np.uint8)
        hard[active] = hard_a
        iters[active] = it
        ok = ~code.syndrome(hard_a).any(axis=1)
        if ok.any():
            converged[active[ok]] = True
            active, lin_a, v2c = active[~ok], lin_a[~ok], v2c[~ok]

    if single:
        return hard[0], bool(converged[0]), int(iters[0])
    return hard, converged, iters
