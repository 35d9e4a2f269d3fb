"""GF(2) linear algebra on bit-packed rows.

Single-matrix operations (rank, rank-revealing factorization, ANF,
Walsh spectrum) work on Python integers, one packed row per integer,
so row XOR is word-parallel regardless of width.

The batch kernels work on many small matrices of one shape, each packed
row-major into an int, with numpy operations across the whole batch.
The rank kernel behind the approximate-rank candidate enumeration
eliminates column by column: every matrix takes its first row with that
bit set as pivot, XORs it into its rows with the bit and so drops it.
The factorization kernel behind the exhaustive sweep runs
``gf2_factorize``'s cross peeling on every matrix at once.  Both run over
fixed-size chunks, so the working arrays stay small next to the batch
itself (all 65,536 4x4 matrices would otherwise add about 10 MB of peak
memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .truthtable import TruthTable

# There is no compiled kernel; the benchmark harness (perfbench/worker.py)
# records this flag as a machine fact.
HAVE_NUMBA = False


def rank_rows(rows, n_cols: int) -> int:
    """GF(2) rank of a list of bit-packed rows via Gaussian elimination."""
    rows = [r for r in rows if r]
    rank = 0
    for col in range(n_cols):
        piv = None
        for i in range(rank, len(rows)):
            if (rows[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for i in range(len(rows)):
            if i != rank and ((rows[i] >> col) & 1):
                rows[i] ^= pivot_row
        rank += 1
    return rank


def gf2_rank(m: TruthTable) -> int:
    """Rank of the bit matrix over GF(2); 0 iff the matrix is all-zero."""
    return rank_rows(list(m.rows), m.n_cols)


@dataclass(frozen=True)
class Gf2Factorization:
    """Rank-revealing decomposition: XOR of t outer products.

    ``row_factors[i]`` packs p_i over X (bit x), ``col_factors[i]``
    packs q_i over Y (bit y); XOR_i p_i(x) q_i(y) reproduces the matrix.
    """

    nx: int
    ny: int
    t: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]

    def reconstruct(self) -> TruthTable:
        rows = [0] * (1 << self.nx)
        for p, q in zip(self.row_factors, self.col_factors):
            for x in range(1 << self.nx):
                if (p >> x) & 1:
                    rows[x] ^= q
        return TruthTable(self.nx, self.ny, tuple(rows))


def factor_rows(rows) -> tuple[list[int], list[int]]:
    """Greedy rank factorization of bit-packed rows: each step peels one
    cross of a pivot entry.  Returns the row factors (bit x selects row x)
    and the column factors, in the order found.

    The residual rank drops by exactly one per step, so the number of
    factors equals the rank and reconstruction is exact.
    """
    rows = list(rows)
    ps, qs = [], []
    while True:
        x0 = next((x for x, r in enumerate(rows) if r), None)
        if x0 is None:
            break
        q = rows[x0]
        y0 = (q & -q).bit_length() - 1
        p = 0
        for x in range(len(rows)):
            if (rows[x] >> y0) & 1:
                p |= 1 << x
        for x in range(len(rows)):
            if (p >> x) & 1:
                rows[x] ^= q
        ps.append(p)
        qs.append(q)
    return ps, qs


def gf2_factorize(m: TruthTable) -> Gf2Factorization:
    """Rank-revealing factorization of the bit matrix: ``factor_rows``'s
    factors, as many as ``gf2_rank(m)``."""
    ps, qs = factor_rows(m.rows)
    return Gf2Factorization(m.nx, m.ny, len(ps), tuple(ps), tuple(qs))


def anf(table) -> set[int]:
    """Algebraic normal form of a Boolean function given as a value table.

    ``table[z]`` is the function value at assignment z (bit i of z is
    variable i).  Returns the set of monomials (as variable masks) whose
    ANF coefficient is 1; the Moebius transform is an involution so the
    same routine inverts it.
    """
    n = len(table)
    if n & (n - 1):
        raise ValueError("table length must be a power of two")
    coeff = [v & 1 for v in table]
    step = 1
    while step < n:
        for z in range(n):
            if z & step:
                coeff[z] ^= coeff[z ^ step]
        step <<= 1
    return {z for z, c in enumerate(coeff) if c}


def eval_anf(monomials: set[int], z: int) -> int:
    return sum(1 for m in monomials if (z & m) == m) & 1


@dataclass(frozen=True)
class SpectrumReport:
    """Walsh-Hadamard spectrum of the +/-1 encoding of a function."""

    n_bits: int
    coefficients: dict[int, float]  # character mask -> coefficient
    l1: float

    def parseval_defect(self) -> float:
        return abs(sum(v * v for v in self.coefficients.values()) - 1.0)


def fourier_l1(m: TruthTable) -> SpectrumReport:
    """Full Walsh-Hadamard transform; characters indexed by (x bits, y bits).

    Bit mask layout: bits 0..ny-1 of a character select Bob's input bits,
    bits ny..ny+nx-1 select Alice's.
    """
    n = m.nx + m.ny
    size = 1 << n
    signs = 1.0 - 2.0 * m.bits().reshape(-1)  # index x << ny | y
    # fast WHT, one butterfly over every block of each level
    h = 1
    while h < size:
        pairs = signs.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        signs = np.stack((a + b, a - b), axis=1).reshape(-1)
        h *= 2
    coeffs = signs / size
    return SpectrumReport(n, dict(enumerate(coeffs.tolist())), float(np.abs(coeffs).sum()))


# --- batch kernels (approximate-rank candidate enumeration, sweep) ---

# Matrices per elimination pass: bounds the kernel's working arrays to a few
# hundred kilobytes however large the batch is.
_CHUNK = 4096


def _rows(masks: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """The (len(masks), n_rows) array of each matrix's packed rows."""
    shifts = np.arange(n_rows, dtype=np.int64) * n_cols
    return (masks[:, None] >> shifts) & ((1 << n_cols) - 1)


def _rank_chunk(masks: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Elimination over a whole batch, one column at a time.

    The pivot row is XORed into every row with the bit, itself included:
    it drops out as a zero row, the others lose the bit, and the rank is
    the number of columns that found a pivot.  A matrix of no rows (or
    no columns) has none: its rank is 0.
    """
    rows = _rows(masks, n_rows, n_cols)
    rank = np.zeros(len(masks), dtype=np.int64)
    idx = np.arange(len(masks))
    for c in range(n_cols if n_rows else 0):
        has = (rows >> c) & 1
        piv = has.argmax(axis=1)
        rows ^= has * rows[idx, piv][:, None]
        rank += has[idx, piv]
    return rank


def _batch(masks, n_rows: int, n_cols: int) -> np.ndarray:
    if n_rows * n_cols > 62:
        raise ValueError("batch kernel limited to 62 packed bits per matrix")
    return np.asarray(masks, dtype=np.int64)


def rank_batch_masks(masks, n_rows: int, n_cols: int) -> np.ndarray:
    """GF(2) ranks (int64) of many small matrices, each packed row-major in
    an int; matrices must fit 62 packed bits (desk scale is at most 16
    entries)."""
    arr = _batch(masks, n_rows, n_cols)
    out = np.empty(len(arr), dtype=np.int64)
    for lo in range(0, len(arr), _CHUNK):
        out[lo:lo + _CHUNK] = _rank_chunk(arr[lo:lo + _CHUNK], n_rows, n_cols)
    return out


def _factorize_chunk(masks: np.ndarray, n_rows: int, n_cols: int):
    """factor_rows's peeling, one step of every matrix per pass.

    A matrix already zero finds no pivot: its q and lowest bit are 0, so
    its p is 0 and the pass leaves it as it is.
    """
    rows = _rows(masks, n_rows, n_cols)
    bits = np.arange(n_rows, dtype=np.int64)
    idx = np.arange(len(masks))
    ps = np.zeros((len(masks), min(n_rows, n_cols)), dtype=np.int64)
    qs = np.zeros_like(ps)
    for i in range(ps.shape[1]):
        q = rows[idx, (rows != 0).argmax(axis=1)]
        has = (rows & (q & -q)[:, None]) != 0
        rows ^= has * q[:, None]
        ps[:, i] = (has.astype(np.int64) << bits).sum(axis=1)
        qs[:, i] = q
    return (qs != 0).sum(axis=1), ps, qs


def factorize_batch_masks(masks, n_rows: int, n_cols: int):
    """factor_rows on many small matrices packed as for rank_batch_masks.

    Returns (t, ps, qs), int64 arrays: matrix k has t[k] factors, the
    row factors ps[k, :t[k]] and column factors qs[k, :t[k]] packed and
    ordered as factor_rows (and so gf2_factorize) finds them, and zeros
    after them.
    """
    arr = _batch(masks, n_rows, n_cols)
    t = np.empty(len(arr), dtype=np.int64)
    ps = np.empty((len(arr), min(n_rows, n_cols)), dtype=np.int64)
    qs = np.empty_like(ps)
    for lo in range(0, len(arr), _CHUNK):
        hi = lo + _CHUNK
        t[lo:hi], ps[lo:hi], qs[lo:hi] = _factorize_chunk(arr[lo:hi], n_rows, n_cols)
    return t, ps, qs
