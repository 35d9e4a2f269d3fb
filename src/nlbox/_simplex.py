"""Exact phase-1 simplex by integer-preserving (Bareiss) elimination.

Dense tableau with Bland's rule, the feasibility core of the eps-rank
oracle.  Columns are integers and the rhs is scaled by the lcm ``L`` of
its denominators, so the tableau is one integer matrix over a positive
common denominator ``D`` (the basis determinant).  A pivot on ``p`` sets
each other row to ``(p*M_i - M_ie*M_r) // D``, exact by Sylvester's
identity, then ``D = p``: the pivots and results of the rational tableau.

The tableau is one numpy array and a pivot is one array expression.  It
is int64 while every entry is below 2^31 in magnitude, so that each
product in a pivot stays below 2^62; from the first entry at 2^31 on it
holds Python ints (``dtype=object``), on which the same expressions are
exact at any size.  The pivot choices read ``.tolist()`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

_INT64_SAFE = 1 << 31


def _widened(tab: np.ndarray) -> np.ndarray:
    """``tab`` while it is int64 with every entry below 2^31 in magnitude,
    otherwise ``tab`` as Python ints."""
    if tab.dtype == object or (-_INT64_SAFE < tab.min() and tab.max() < _INT64_SAFE):
        return tab
    return tab.astype(object)


def _column_array(columns, m: int) -> np.ndarray:
    """The structural columns as an integer (n, m) array."""
    if isinstance(columns, np.ndarray):
        if columns.dtype.kind not in "iu":
            raise ValueError("phase-1 requires integer column entries")
        return columns.reshape(len(columns), m)
    cols = [[int(v) for v in col] for col in columns]
    if any(c != list(col) for c, col in zip(cols, columns)):
        raise ValueError("phase-1 requires integer column entries")
    return np.array(cols, dtype=object).reshape(len(cols), m)


def solve_phase1(columns, b):
    """Minimize the sum of artificials for ``A x + I art = b``, ``x >= 0``.

    Args:
        columns: the structural columns, each m integers: a list of
            lists, or an integer array of shape (n, m).
        b: right-hand side, m nonnegative rationals.

    Returns:
        (opt, x, y): the phase-1 optimum, structural values at the
        optimum (length ``len(columns)``), and the simplex multipliers
        (length m), all as Fractions.  ``opt == 0`` iff the system is
        feasible.

    Raises:
        ValueError: on a negative rhs or a non-integral column entry.
        ArithmeticError: if the objective is unbounded below.
    """
    m = len(b)
    if any(v < 0 for v in b):
        raise ValueError("phase-1 requires nonnegative rhs")
    cols = _column_array(columns, m)
    n = len(cols)
    scale = lcm(*(v.denominator for v in b))
    rhs = [v.numerator * (scale // v.denominator) for v in b]
    ncols = n + m
    small = max(rhs, default=0) < _INT64_SAFE and (
        not cols.size or -_INT64_SAFE < cols.min() and cols.max() < _INT64_SAFE)
    # rows: structural columns, artificial identity, scaled rhs; the last
    # row holds the reduced costs of cost = sum of artificials
    tab = np.zeros((m + 1, ncols + 1), dtype=np.int64 if small else object)
    tab[:m, :n] = cols.T
    tab[:m, n:ncols] = np.eye(m, dtype=np.int64)
    tab[:m, ncols] = rhs
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n:ncols] = 0
    tab = _widened(tab)
    basis = list(range(n, ncols))
    d = 1

    while True:
        negative = tab[m, :ncols] < 0
        if not negative.any():
            break
        enter = int(negative.argmax())
        # Bland ratio test: smallest rhs/a by cross-multiplication (all
        # a > 0), ties by smallest basis index
        leave = None
        for i, (a, r) in enumerate(tab[:m, [enter, ncols]].tolist()):
            if a > 0 and (leave is None or r * best_a < best_r * a or (
                    r * best_a == best_r * a and basis[i] < basis[leave])):
                leave, best_r, best_a = i, r, a
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        row = tab[leave]
        tab = (best_a * tab - tab[:, enter, None] * row) // d
        tab[leave] = row
        d = best_a
        basis[leave] = enter
        tab = _widened(tab)

    last = tab[:, ncols].tolist()
    denom = d * scale
    opt = Fraction(-last[m], denom)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(last[i], denom)
    # duals: reduced cost of artificial i is 1 - y_i
    y = [Fraction(d - c, d) for c in tab[m, n:ncols].tolist()]
    return opt, x, y
