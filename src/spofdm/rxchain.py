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


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power QPSK: bit pair (b0, b1) -> ((1-2b0)+j(1-2b1))/sqrt(2)."""
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ValueError("bit count must be even for QPSK")
    pairs = bits.reshape(-1, 2).astype(np.int64)
    return ((1 - 2 * pairs[:, 0]) + 1j * (1 - 2 * pairs[:, 1])) / np.sqrt(2)


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
    """Binary parity-check matrix in edge-list form plus the declared rate."""

    n: int
    m: int
    check_of_edge: np.ndarray  # edge arrays sorted by variable node
    var_of_edge: np.ndarray
    rate: float

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("H must be nonempty")
        order = np.lexsort((self.check_of_edge, self.var_of_edge))
        self.var_of_edge = np.asarray(self.var_of_edge)[order]
        self.check_of_edge = np.asarray(self.check_of_edge)[order]
        # permutation into check-sorted order and group boundaries
        self._by_check = np.lexsort((self.var_of_edge, self.check_of_edge))
        self._var_starts = np.searchsorted(self.var_of_edge, np.arange(self.n))
        sorted_checks = self.check_of_edge[self._by_check]
        self._check_starts = np.searchsorted(sorted_checks, np.arange(self.m))

    @property
    def n_edges(self) -> int:
        return self.var_of_edge.size

    def dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[self.check_of_edge, self.var_of_edge] = 1
        return h

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        contrib = bits[..., self.var_of_edge]
        acc = np.zeros(bits.shape[:-1] + (self.m,), dtype=np.int64)
        np.add.at(acc, (..., self.check_of_edge), contrib)
        return (acc % 2).astype(np.uint8)


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
    return ParityCheckCode(
        n=n, m=m,
        check_of_edge=by_col[0],
        var_of_edge=by_col[1],
        rate=(n - m) / n,
    )


def save_alist(code: ParityCheckCode, path: str | Path) -> None:
    # 1-based check indices per column, then variable indices per row
    cols = np.split(code.check_of_edge + 1, code._var_starts[1:])
    rows = np.split(code.var_of_edge[code._by_check] + 1, code._check_starts[1:])
    col_deg = [c.size for c in cols]
    row_deg = [r.size for r in rows]
    lines = [
        f"{code.n} {code.m}",
        f"{max(col_deg)} {max(row_deg)}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for idx in cols + rows:
        lines.append(" ".join(str(i) for i in idx))
    Path(path).write_text("\n".join(lines) + "\n")


def make_regular_parity_check(n: int, m: int, col_degree: int = 3,
                              seed: int = 0) -> ParityCheckCode:
    """Deterministic near-regular LDPC construction.

    Every variable has degree ``col_degree``; check degrees are as even as
    possible. Parallel edges are repaired by swapping; 4-cycles are reduced
    best-effort.
    """
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
        return ParityCheckCode(
            n=n, m=m,
            check_of_edge=sockets.astype(np.int64),
            var_of_edge=cols.astype(np.int64),
            rate=(n - m) / n,
        )
    raise RuntimeError("failed to build a simple parity-check matrix")


def bundled_code_path(rate_label: str) -> Path:
    """Path of a shipped alist file; labels: '1_4', '1_3', '1_2', '2_3'."""
    path = Path(__file__).parent / "codes" / f"rate{rate_label}.alist"
    if not path.exists():
        raise FileNotFoundError(f"no bundled code for rate {rate_label}")
    return path


class LdpcEncoder:
    """Systematic encoder built from H by GF(2) elimination.

    Column pivoting selects m parity positions; the remaining columns carry
    the message bits. Redundant rows reduce the check count and raise the
    effective rate; the declared rate is kept for reporting.
    """

    def __init__(self, code: ParityCheckCode):
        self.code = code
        h = code.dense().astype(np.uint8)
        m, n = h.shape
        pivot_cols = []
        row = 0
        for col in range(n):
            if row >= m:
                break
            hits = np.flatnonzero(h[row:, col]) + row
            if hits.size == 0:
                continue
            if hits[0] != row:
                h[[row, hits[0]]] = h[[hits[0], row]]
            mask = h[:, col].astype(bool).copy()
            mask[row] = False
            h[mask] ^= h[row]
            pivot_cols.append(col)
            row += 1
        self.rank = row
        self.pivot_cols = np.array(pivot_cols)
        self.message_cols = np.setdiff1d(np.arange(n), self.pivot_cols)
        # parity = A @ message  (mod 2), from the reduced system
        self.parity_gen = h[: self.rank][:, self.message_cols]

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
        parity = (msg @ self.parity_gen.T) % 2
        out = np.zeros((msg.shape[0], self.code.n), dtype=np.uint8)
        out[:, self.message_cols] = msg
        out[:, self.pivot_cols] = parity
        return out[0] if single else out

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        return np.asarray(codeword)[..., self.message_cols]


def ldpc_bp_decode(code: ParityCheckCode, llr: np.ndarray, max_iters: int = 50):
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
    batch = lin.shape[0]
    ne = code.n_edges
    voe = code.var_of_edge
    coe_sorted = code._by_check
    var_starts = code._var_starts
    check_starts = code._check_starts
    check_of_sorted = code.check_of_edge[coe_sorted]

    v2c = np.broadcast_to(lin[:, voe], (batch, ne)).copy()
    c2v = np.zeros((batch, ne))
    hard = (lin < 0).astype(np.uint8)
    converged = (code.syndrome(hard).sum(axis=1) == 0)
    iters = np.zeros(batch, dtype=int)
    active = ~converged

    for it in range(1, max_iters + 1):
        if not active.any():
            break
        t = np.tanh(0.5 * np.clip(v2c[active], -30, 30))
        t_sorted = t[:, coe_sorted]
        sign = np.where(t_sorted < 0, -1.0, 1.0)
        mag = np.clip(np.abs(t_sorted), 1e-12, 1 - 1e-12)
        logm = np.log(mag)
        neg = (sign < 0).astype(np.int64)
        # per-check totals, then leave-one-out by subtraction
        log_tot = np.add.reduceat(logm, check_starts, axis=1)
        neg_tot = np.add.reduceat(neg, check_starts, axis=1)
        log_ext = log_tot[:, check_of_sorted] - logm
        neg_ext = neg_tot[:, check_of_sorted] - neg
        prod_ext = np.where(neg_ext % 2 == 1, -1.0, 1.0) * np.exp(log_ext)
        msg_sorted = 2.0 * np.arctanh(np.clip(prod_ext, -1 + 1e-12, 1 - 1e-12))
        c2v_active = np.empty_like(msg_sorted)
        c2v_active[:, coe_sorted] = msg_sorted
        c2v[active] = c2v_active

        post_edge = np.add.reduceat(c2v[active], var_starts, axis=1)
        posterior = lin[active] + post_edge
        v2c[active] = posterior[:, voe] - c2v[active]

        hard_active = (posterior < 0).astype(np.uint8)
        hard[active] = hard_active
        ok = code.syndrome(hard_active).sum(axis=1) == 0
        idx = np.flatnonzero(active)
        iters[idx] = it
        converged[idx[ok]] = True
        active[idx[ok]] = False

    if single:
        return hard[0], bool(converged[0]), int(iters[0])
    return hard, converged, iters
