"""GF(2) linear algebra on bit-packed rows.

Single-matrix operations (rank, rank-revealing factorization, ANF,
Walsh spectrum) work on Python integers, one packed row per integer,
so row XOR is word-parallel regardless of width.

The batch rank kernel behind the approximate-rank candidate enumeration
is numpy elimination across the whole batch at once: in each column,
every matrix takes its first row with that bit set as pivot, XORs it
into its rows with the bit and so drops it.  It runs over fixed-size
chunks, so the working arrays stay small next to the batch itself (all
65,536 4x4 matrices would otherwise add about 10 MB of peak memory).
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


def gf2_factorize(m: TruthTable) -> Gf2Factorization:
    """Greedy rank factorization: each step peels one cross of a pivot entry.

    The residual rank drops by exactly one per step, so the number of
    factors equals ``gf2_rank(m)`` and reconstruction is exact.
    """
    rows = list(m.rows)
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
    signs = np.empty(size, dtype=np.float64)
    for x in range(m.n_rows):
        base = x << m.ny
        row = m.rows[x]
        for y in range(m.n_cols):
            signs[base | y] = -1.0 if (row >> y) & 1 else 1.0
    # in-place fast WHT
    h = 1
    while h < size:
        for i in range(0, size, h * 2):
            a = signs[i:i + h].copy()
            b = signs[i + h:i + 2 * h].copy()
            signs[i:i + h] = a + b
            signs[i + h:i + 2 * h] = a - b
        h *= 2
    coeffs = signs / size
    report = {s: float(coeffs[s]) for s in range(size)}
    return SpectrumReport(n, report, float(np.abs(coeffs).sum()))


# --- batch rank kernel (approximate-rank candidate enumeration) ---

# Matrices per elimination pass: bounds the kernel's working arrays to a few
# hundred kilobytes however large the batch is.
_CHUNK = 4096


def _rank_chunk(masks: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Elimination over a whole batch, one column at a time.

    The pivot row is XORed into every row with the bit, itself included:
    it drops out as a zero row, the others lose the bit, and the rank is
    the number of columns that found a pivot.
    """
    shifts = np.arange(n_rows, dtype=np.int64) * n_cols
    rows = (masks[:, None] >> shifts) & ((1 << n_cols) - 1)
    rank = np.zeros(len(masks), dtype=np.int64)
    idx = np.arange(len(masks))
    for c in range(n_cols):
        has = (rows >> c) & 1
        piv = has.argmax(axis=1)
        rows ^= has * rows[idx, piv][:, None]
        rank += has[idx, piv]
    return rank


def rank_batch_masks(masks, n_rows: int, n_cols: int) -> np.ndarray:
    """GF(2) ranks (int64) of many small matrices, each packed row-major in
    an int; matrices must fit 62 packed bits (desk scale is at most 16
    entries)."""
    if n_rows * n_cols > 62:
        raise ValueError("batch kernel limited to 62 packed bits per matrix")
    arr = np.asarray(masks, dtype=np.int64)
    out = np.empty(len(arr), dtype=np.int64)
    for lo in range(0, len(arr), _CHUNK):
        out[lo:lo + _CHUNK] = _rank_chunk(arr[lo:lo + _CHUNK], n_rows, n_cols)
    return out
