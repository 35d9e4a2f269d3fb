"""Integer-preserving phase-1 simplex against the rational Bland tableau."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nlbox import _simplex
from nlbox._simplex import solve_phase1
from util import oracle_phase1

RNG = random.Random(1968)


def _random_lp(rng: random.Random):
    """0/+-1 columns and a rhs with denominators 1, 3, 7 and 8; duplicate
    columns and zero or repeated rhs entries give degenerate ties, and
    rows no column can fill give infeasible systems."""
    m, n = rng.randint(1, 6), rng.randint(0, 9)
    cols = [[rng.choice((-1, 0, 0, 1)) for _ in range(m)] for _ in range(n)]
    if cols and rng.random() < 0.3:
        cols.append(list(rng.choice(cols)))
    b = []
    for _ in range(m):
        den = rng.choice((1, 3, 7, 8))
        b.append(Fraction(rng.choice((0, den, rng.randrange(2 * den + 1))), den))
    return cols, b


LPS = [_random_lp(RNG) for _ in range(600)] + [
    # the first ratio test ties two rows at ratio 1
    ([[1, 1], [1, 0], [0, 1]], [Fraction(1), Fraction(1)]),
    # fully degenerate: zero rhs
    ([[1, -1, 0], [-1, 1, 1], [1, 1, 1]], [Fraction(0)] * 3),
    # no structural column at all
    ([], [Fraction(2, 7), Fraction(0)]),
]


def _as_array(cols, b):
    return np.array(cols, dtype=np.int64).reshape(len(cols), len(b))


def test_matches_rational_tableau():
    feasible = 0
    for cols, b in LPS:
        got = solve_phase1(_as_array(cols, b), b)
        assert got == oracle_phase1(cols, b)
        feasible += got[0] == 0
    # the panel exercises both verdicts
    assert 100 < feasible < len(LPS) - 100


# entries at and past 2^31, where the tableau leaves int64 for Python ints
WIDE_LPS = [
    # rhs denominators 2^40 + 1 and 2^70 + 3: the scaled rhs is wide from the start
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]],
     [Fraction(1, 2**40 + 1), Fraction(2**39, 2**40 + 1), Fraction(1, 3)]),
    ([[1, 0], [1, 1], [0, -1]], [Fraction(3, 2**70 + 3), Fraction(2**69, 2**70 + 3)]),
    # column entries of +-2^33
    ([[2**33, -1, 1], [1, 2**33, -2**33], [-2**33, 1, 1]],
     [Fraction(1), Fraction(2, 7), Fraction(0)]),
    ([[2**33, 2**33], [-2**33, 1]], [Fraction(5), Fraction(3)]),
]
# entries below 2^31 whose pivots reach it: int64 first, Python ints after
GROWING_LP = ([[2**20, 3, 1], [5, 2**20, 1], [1, 7, 2**20]],
              [Fraction(1), Fraction(1), Fraction(1)])


@pytest.mark.parametrize("cols, b", [*WIDE_LPS, GROWING_LP],
                         ids=["rhs-2^40+1", "rhs-2^70+3", "cols-2^33", "cols-2^33-square",
                              "growing"])
def test_wide_entries_match_rational_tableau(cols, b):
    assert solve_phase1(_as_array(cols, b), b) == oracle_phase1(cols, b)


def test_tableau_leaves_int64_when_an_entry_reaches_2_31(monkeypatch):
    widened, wide = _simplex._widened, []

    def spy(tab):
        tab = widened(tab)
        wide.append(tab.dtype == object)
        return tab

    monkeypatch.setattr(_simplex, "_widened", spy)
    solve_phase1(_as_array(*GROWING_LP), GROWING_LP[1])
    # int64 at the start, Python ints from some pivot on
    assert not wide[0] and wide[-1] and wide == sorted(wide)
    for (cols, b), want in ((WIDE_LPS[0], True), (WIDE_LPS[2], True), (LPS[-3], False)):
        wide.clear()
        solve_phase1(_as_array(cols, b), b)
        assert set(wide) == {want}


def test_results_are_exact_certificates():
    for cols, b in LPS:
        opt, x, y = solve_phase1(_as_array(cols, b), b)
        assert all(type(v) is Fraction for v in [opt, *x, *y])
        if opt == 0:
            assert all(v >= 0 for v in x)
            assert [sum(c[i] * v for c, v in zip(cols, x)) for i in range(len(b))] == b
        else:
            # Farkas: y separates b from the cone of the columns
            assert opt > 0
            assert sum(yi * bi for yi, bi in zip(y, b)) == opt
            assert all(sum(yi * ci for yi, ci in zip(y, c)) <= 0 for c in cols)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, Fraction(-7, 3)])
def test_rejects_non_integral_column_entry(entry):
    with pytest.raises(ValueError, match="integer"):
        solve_phase1(np.array([[1, 0], [0, entry]], dtype=object), [Fraction(1), Fraction(1)])


@pytest.mark.parametrize("dtype", [np.float64, bool, object])
def test_rejects_non_integer_column_array(dtype):
    with pytest.raises(ValueError, match="integer"):
        solve_phase1(np.eye(2, dtype=dtype), [Fraction(1), Fraction(1)])


def test_rejects_negative_rhs():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_phase1(np.eye(2, dtype=np.int64), [Fraction(1), Fraction(-1, 8)])
