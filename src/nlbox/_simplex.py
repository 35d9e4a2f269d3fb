"""Exact phase-1 simplex by integer-preserving (Bareiss) elimination.

Dense tableau with Bland's rule, the feasibility core of the eps-rank
oracle.  Columns are integers and the rhs is scaled by the lcm ``L`` of
its denominators, so the tableau is one integer matrix over a positive
common denominator ``D`` (the basis determinant).  A pivot on ``p`` sets
each other row to ``(p*M_i - M_ie*M_r) // D``, exact by Sylvester's
identity, then ``D = p``: the pivots and results of the rational tableau.

The tableau is one numpy array.  It is int64 while every entry is below
2^31 in magnitude, so that each product in a pivot stays below 2^62, and
a pivot then runs in place: multiply, outer-multiply, subtract and
floor-divide through ``out=`` into two buffers allocated once per solve
and the tableau itself.  From the first entry at 2^31 on the tableau
holds Python ints (``dtype=object``), on which the same pivot is one
array expression, exact at any size.  The pivot choices read
``.tolist()`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

_INT64_SAFE = 1 << 31


def _widened(tab: np.ndarray) -> np.ndarray:
    """``tab`` while it is int64 with every entry below 2^31 in magnitude,
    otherwise ``tab`` as Python ints."""
    if tab.dtype == object:
        return tab
    flat = tab.reshape(-1)
    if -_INT64_SAFE < np.minimum.reduce(flat) and np.maximum.reduce(flat) < _INT64_SAFE:
        return tab
    return tab.astype(object)


def solve_phase1(columns, b):
    """Minimize the sum of artificials for ``A x + I art = b``, ``x >= 0``.

    Args:
        columns: the structural columns, an integer array of shape (n, m).
        b: right-hand side, m nonnegative rationals.

    Returns:
        (opt, x, y): the phase-1 optimum, structural values at the
        optimum (length ``len(columns)``), and the simplex multipliers
        (length m), all as Fractions.  ``opt == 0`` iff the system is
        feasible.

    Raises:
        ValueError: on a negative rhs or columns not an integer array.
        ArithmeticError: if the objective is unbounded below.
    """
    m = len(b)
    if any(v < 0 for v in b):
        raise ValueError("phase-1 requires nonnegative rhs")
    if not isinstance(columns, np.ndarray) or columns.dtype.kind not in "iu":
        raise ValueError("phase-1 requires integer column entries")
    n = len(columns)
    scale = lcm(*(v.denominator for v in b))
    rhs = [v.numerator * (scale // v.denominator) for v in b]
    ncols = n + m
    small = max(rhs, default=0) < _INT64_SAFE and (
        not columns.size or -_INT64_SAFE < columns.min() and columns.max() < _INT64_SAFE)
    # rows: structural columns, artificial identity, scaled rhs; the last
    # row holds the reduced costs of cost = sum of artificials
    tab = np.zeros((m + 1, ncols + 1), dtype=np.int64 if small else object)
    tab[:m, :n] = columns.T
    tab[:m, n:ncols] = np.eye(m, dtype=np.int64)
    tab[:m, ncols] = rhs
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n:ncols] = 0
    tab = _widened(tab)
    basis = list(range(n, ncols))
    d = 1
    # the int64 pivot's products and differences
    prod, outer = np.empty_like(tab), np.empty_like(tab)

    while True:
        enter = int((tab[m, :ncols] < 0).argmax())
        if tab[m, enter] >= 0:
            break
        # Bland ratio test: smallest rhs/a by cross-multiplication (all
        # a > 0), ties by smallest basis index
        leave = None
        for i, (a, r) in enumerate(zip(tab[:m, enter].tolist(), tab[:m, ncols].tolist())):
            if a > 0 and (leave is None or r * best_a < best_r * a or (
                    r * best_a == best_r * a and basis[i] < basis[leave])):
                leave, best_r, best_a = i, r, a
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        row = tab[leave].copy()
        if tab.dtype == object:
            tab = (best_a * tab - tab[:, enter, None] * row) // d
        else:
            np.multiply(tab, best_a, out=prod)
            np.multiply.outer(tab[:, enter], row, out=outer)
            np.subtract(prod, outer, out=prod)
            np.floor_divide(prod, d, out=tab)
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
