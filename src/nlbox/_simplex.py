"""Exact phase-1 simplex by integer-preserving (Bareiss) elimination.

Dense tableau with Bland's rule, the feasibility core of the eps-rank
oracle.  Columns are integers and the rhs is scaled by the lcm ``L`` of
its denominators, so the tableau is one integer matrix over a positive
common denominator ``D`` (the basis determinant).  A pivot on ``p`` sets
each other row to ``(p*M_i - M_ie*M_r) // D``, exact by Sylvester's
identity, then ``D = p``: the pivots and results of the rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def solve_phase1(columns, b):
    """Minimize the sum of artificials for ``A x + I art = b``, ``x >= 0``.

    Args:
        columns: list of structural columns, each a list of m integers.
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
    m, n = len(b), len(columns)
    if any(v < 0 for v in b):
        raise ValueError("phase-1 requires nonnegative rhs")
    cols = [[int(v) for v in col] for col in columns]
    if any(c != list(col) for c, col in zip(cols, columns)):
        raise ValueError("phase-1 requires integer column entries")
    scale = lcm(*(v.denominator for v in b))
    rhs = [v.numerator * (scale // v.denominator) for v in b]
    ncols = n + m
    # rows: structural columns, artificial identity, scaled rhs; the last
    # row holds the reduced costs of cost = sum of artificials
    tab = [[col[i] for col in cols] + [0] * i + [1] + [0] * (m - 1 - i) + [rhs[i]]
           for i in range(m)]
    tab.append([-sum(col) for col in cols] + [0] * m + [-sum(rhs)])
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        enter = next((j for j in range(ncols) if tab[m][j] < 0), None)
        if enter is None:
            break
        # Bland ratio test: smallest rhs/a by cross-multiplication (all
        # a > 0), ties by smallest basis index
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                r = tab[i][ncols]
                if leave is None or r * best_a < best_r * a or (
                        r * best_a == best_r * a and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, r, a
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        row = tab[leave]
        p = row[enter]
        for i, cur in enumerate(tab):
            if i == leave:
                continue
            f = cur[enter]
            if f:
                tab[i] = [(p * v - f * w) // d for v, w in zip(cur, row)]
            elif p != d:
                tab[i] = [p * v // d for v in cur]
        d = p
        basis[leave] = enter

    denom = d * scale
    opt = Fraction(-tab[m][ncols], denom)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][ncols], denom)
    # duals: reduced cost of artificial i is 1 - y_i
    y = [Fraction(d - tab[m][n + i], d) for i in range(m)]
    return opt, x, y
