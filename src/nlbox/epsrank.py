"""Approximate rank over GF(2) via exact rational feasibility LPs.

The epsilon-rank of a [0,1]-valued matrix is the least t such that a
convex mixture of Boolean matrices of GF(2) rank at most t lies within
epsilon of it entrywise.  Candidate Boolean matrices are enumerated
exhaustively (desk scale: at most 16 entries) and grouped by rank; the
mixture search is a phase-1 simplex over rationals, accelerated by
column generation so the master LP stays tiny even with 65k candidates.

Each shape has one cached candidate table (``candidate_table``), from
one batch rank call: the masks in rank order, their entry bits as uint8,
and where the masks of rank at most t end, so the search at t reads a
prefix of it (``enumerate_ranks`` slices it by rank).  Each search
builds its float pricing matrices from those bits, checks the best 64
columns' reduced costs exactly as one integer product (int64, Python
ints when the duals are wide) and passes the master's columns to the
simplex as one int64 array.

A level at which every entry is pinned, hi = 0 or lo = 1 (as at eps = 0
on a 0/1 target), is presolved: only the pinned matrix agrees with the
pins, so a level below its rank is infeasible without an LP, and at its
rank the master runs on that one candidate.
The simplex pivots its int64 tableau in place (see ``_simplex``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import gf2
from ._simplex import solve_phase1
from .engine import ResourceLimitError
from .truthtable import TruthTable

MAX_ENTRIES = 16
# exact pricing is int64 while every |y . column| bound stays below this
_INT64_DOT = 1 << 62

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionLimitError(ResourceLimitError, ValueError):
    """Matrix too large for exhaustive Boolean-matrix enumeration."""


@lru_cache(maxsize=None)
def candidate_table(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Every Boolean n_rows x n_cols matrix in order of GF(2) rank: the
    row-major packed masks (int64), ascending within a rank, their entry
    bits as uint8 (column e holds entry e), and for each t the end of the
    prefix of masks with rank at most t."""
    n_entries = n_rows * n_cols
    if n_entries > MAX_ENTRIES:
        raise DimensionLimitError(
            f"{n_rows}x{n_cols} exceeds the {MAX_ENTRIES}-entry enumeration limit")
    ranks = gf2.rank_batch_masks(np.arange(1 << n_entries, dtype=np.int64), n_rows, n_cols)
    masks = np.argsort(ranks, kind="stable")
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(len(masks), 8), axis=1,
                         count=n_entries, bitorder="little")
    masks.flags.writeable = bits.flags.writeable = False
    return masks, bits, tuple(np.cumsum(np.bincount(ranks)).tolist())


def enumerate_ranks(n_rows: int, n_cols: int) -> tuple[np.ndarray, ...]:
    """Masks of all Boolean n_rows x n_cols matrices, grouped by GF(2) rank:
    element r is the read-only slice of ``candidate_table``'s masks that
    have rank exactly r."""
    masks, _bits, ends = candidate_table(n_rows, n_cols)
    return tuple(np.split(masks, ends[:-1]))


@dataclass(frozen=True)
class EpsRankQuery:
    matrix: object  # TruthTable or anything exposing rational entries
    eps: Fraction
    tmax: int

    def __post_init__(self):
        if not (ZERO <= self.eps <= Fraction(1, 2)):
            raise ValueError("eps must lie in [0, 1/2]")
        if self.tmax < 0:
            raise ValueError("tmax must be nonnegative")


@dataclass(frozen=True)
class EpsRankResult:
    t: int | None  # None when no t <= tmax is feasible
    witness: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]

    @property
    def exceeded(self) -> bool:
        return self.t is None


def _target_entries(matrix) -> tuple[int, int, list[Fraction]]:
    """Flatten the target into rational entries in row-major order."""
    if isinstance(matrix, TruthTable):
        r, c = matrix.n_rows, matrix.n_cols
        flat = list(map(Fraction, matrix.bits().ravel().tolist()))
        return r, c, flat
    entries = matrix.entries  # CorrelationMatrix duck-typing
    r, c = len(entries), len(entries[0])
    flat = [Fraction(v) for row in entries for v in row]
    return r, c, flat


def _mixture_feasible(t: int, n_rows: int, n_cols: int, lo, hi):
    """Search for a convex mixture of the Boolean matrices of GF(2) rank at
    most t whose entrywise expectation lies in [lo, hi]; returns (weight,
    grid) pairs, each grid a tuple of rows of 0/1 ints, or None.

    Column generation over an exact phase-1 master: candidates are ranked
    by float prices and admitted by an exact integer reduced-cost check,
    so both feasibility and infeasibility verdicts are exact.
    """
    masks, bits, ends = candidate_table(n_rows, n_cols)
    masks, bits = masks[:ends[t]], bits[:ends[t]]
    n_entries = n_rows * n_cols
    if all(hi[e] == 0 or lo[e] == 1 for e in range(n_entries)):
        # presolve: every entry is pinned, so the pinned matrix is the one
        # candidate that can carry weight; if its rank exceeds t the level
        # is infeasible without an LP.  Partial pins are not pruned yet:
        # a candidate that breaks a pin can still price positive and
        # enter, so dropping those changes the admitted columns and with
        # them the pinned witnesses, which only a deliberate re-record
        # may change.
        keep = np.flatnonzero(masks == sum(1 << e for e in range(n_entries) if lo[e] == 1))
        if not len(keep):
            return None
        masks, bits = masks[keep], bits[keep]
    # Row layout: one <=hi row per entry, one >=lo row per entry with lo>0,
    # and the convexity row.
    lo_rows = [e for e in range(n_entries) if lo[e] > 0]
    m = n_entries + len(lo_rows) + 1
    b = [hi[e] for e in range(n_entries)] + [lo[e] for e in lo_rows] + [ONE]

    def candidate_columns(js) -> np.ndarray:
        chosen = bits[js]
        return np.concatenate([chosen, chosen[:, lo_rows], np.ones((len(js), 1), np.uint8)],
                              axis=1)

    # permanent slack/surplus columns
    fixed_cols = np.eye(m - 1, m, dtype=np.int64)
    fixed_cols[n_entries:] *= -1

    # float pricing matrices: value of each candidate column under duals.
    # They stay float matmuls followed by a full argsort of the default
    # kind, not an argpartition or an exact product over every candidate:
    # the order of tied scores decides which columns enter and so the
    # witnesses.
    bits_f = bits.astype(np.float64)
    lo_bits_f = bits[:, lo_rows].astype(np.float64)

    active: list[int] = []
    active_set: set[int] = set()
    for _round in range(len(masks) + 1):
        cols = np.concatenate([candidate_columns(active), fixed_cols], dtype=np.int64)
        opt, x, y = solve_phase1(cols, b)
        if opt == 0:
            return [(x[i], tuple(map(tuple, bits[j].reshape(n_rows, n_cols).tolist())))
                    for i, j in enumerate(active) if x[i] > 0]
        # price all candidates: reduced cost = -(y . column)
        y_f = np.array([float(v) for v in y])
        # the same duals over one common denominator, for exact checks
        y_den = lcm(*(v.denominator for v in y))
        y_int = [v.numerator * (y_den // v.denominator) for v in y]
        scores = bits_f @ y_f[:n_entries]
        if lo_rows:
            scores += lo_bits_f @ y_f[n_entries:n_entries + len(lo_rows)]
        scores += y_f[-1]
        top = np.argsort(-scores)[:64]
        # exact reduced costs of the top columns: 0/1 entries, so each
        # is below max|y_int| * m in magnitude
        dtype = object if max(map(abs, y_int)) * m >= _INT64_DOT else np.int64
        exact = (candidate_columns(top).astype(dtype) @ np.array(y_int, dtype=dtype)).tolist()
        added = 0
        for j, value in zip(top.tolist(), exact):
            if j in active_set:
                continue
            # admit only an exactly positive column
            if value > 0:
                active.append(j)
                active_set.add(j)
                added += 1
                if added >= 8:
                    break
        if added == 0:
            return None
    # unreachable: each round returns or admits a column not seen before
    raise RuntimeError("column generation failed to terminate")


def eps_rank(q: EpsRankQuery) -> EpsRankResult:
    """Smallest t <= tmax admitting an eps-close mixture, with a witness."""
    n_rows, n_cols, target = _target_entries(q.matrix)
    lo = [max(ZERO, v - q.eps) for v in target]
    hi = [min(ONE, v + q.eps) for v in target]
    rmax = min(n_rows, n_cols)
    for t in range(min(q.tmax, rmax) + 1):
        mix = _mixture_feasible(t, n_rows, n_cols, lo, hi)
        if mix is not None:
            return EpsRankResult(t, tuple(mix))
    if q.tmax >= rmax:
        # unreachable: a full-rank level is always feasible (any matrix mixes itself)
        raise AssertionError("full-rank search cannot fail for eps >= 0")
    return EpsRankResult(None, ())


def verify_witness(matrix, eps: Fraction,
                   witness: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]) -> bool:
    """Exact check that the mixture is convex and within eps in max-norm."""
    n_rows, n_cols, target = _target_entries(matrix)
    if sum((w for w, _ in witness), ZERO) != 1:
        return False
    if any(w <= 0 for w, _ in witness):
        return False
    for x in range(n_rows):
        for y in range(n_cols):
            v = sum((w * g[x][y] for w, g in witness), ZERO)
            if abs(v - target[x * n_cols + y]) > eps:
                return False
    return True
