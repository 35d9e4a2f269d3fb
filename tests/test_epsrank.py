"""Approximate GF(2) rank: exact LP feasibility with verified witnesses."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from nlbox import epsrank, gf2
from nlbox.correlations import CorrelationMatrix
from nlbox.epsrank import (DimensionLimitError, EpsRankQuery, EpsRankResult,
                           candidate_table, enumerate_ranks, eps_rank, verify_witness)
from nlbox.truthtable import TruthTable, and_table, xor_table
from util import random_table

RNG = random.Random(91)

HALF = Fraction(1, 2)


def _eps_rank(matrix, eps, tmax=4) -> EpsRankResult:
    return eps_rank(EpsRankQuery(matrix, Fraction(eps), tmax))


def test_zero_eps_equals_exact_rank_2x2():
    for code in range(16):
        f = TruthTable(1, 1, (code & 3, code >> 2))
        res = _eps_rank(f, 0)
        assert res.t == gf2.gf2_rank(f)
        assert verify_witness(f, Fraction(0), res.witness)


def test_zero_eps_equals_exact_rank_random_3x3():
    for _ in range(10):
        rows = [[RNG.randrange(2) for _ in range(3)] for _ in range(3)]
        m = CorrelationMatrix(tuple(tuple(Fraction(v) for v in r) for r in rows))
        packed = [sum(v << y for y, v in enumerate(r)) for r in rows]
        res = _eps_rank(m, 0)
        assert res.t == gf2.rank_rows(packed, 3)
        assert verify_witness(m, Fraction(0), res.witness)


def test_nonincreasing_in_eps_and_at_most_one_at_half():
    for _ in range(10):
        f = random_table(2, 2, RNG)
        prev = None
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), HALF):
            res = _eps_rank(f, eps)
            assert res.t is not None
            if prev is not None:
                assert res.t <= prev
            assert verify_witness(f, eps, res.witness)
            prev = res.t
        assert prev <= 1  # the constant-1/2 mixture is eps=1/2 close to anything


def test_witness_is_convex_and_within_eps():
    f = and_table()
    res = _eps_rank(f, Fraction(1, 4))
    assert sum(w for w, _ in res.witness) == 1
    assert all(w > 0 for w, _ in res.witness)
    assert verify_witness(f, Fraction(1, 4), res.witness)
    # tightening eps must invalidate any strictly approximate witness
    if res.t < gf2.gf2_rank(f):
        assert not verify_witness(f, Fraction(0), res.witness)


def test_tmax_cutoff_reports_exceeded():
    res = eps_rank(EpsRankQuery(xor_table(), Fraction(0), 1))
    assert res.exceeded
    assert res.t is None
    assert res.witness == ()


def test_rejects_bad_eps_and_oversized_matrix():
    with pytest.raises(ValueError):
        EpsRankQuery(and_table(), Fraction(3, 4), 2)
    with pytest.raises(ValueError):
        EpsRankQuery(and_table(), Fraction(-1, 8), 2)
    big = TruthTable(3, 3, (0,) * 8)  # 64 entries
    with pytest.raises(DimensionLimitError):
        _eps_rank(big, 0)
    with pytest.raises(DimensionLimitError):
        enumerate_ranks(5, 4)


def test_enumerate_ranks_partition():
    groups = enumerate_ranks(2, 2)
    assert sum(len(g) for g in groups) == 16
    assert len(groups[0]) == 1  # only the zero matrix
    # rank-1 2x2 Boolean matrices: 9 (choose nonzero row/col supports)
    assert len(groups[1]) == 9
    assert len(groups[2]) == 6


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 5) for c in range(1, 5)]
                         + [(3, 5)])
def test_candidate_table_is_the_rank_enumeration(shape):
    groups = enumerate_ranks(*shape)
    masks, bits, ends = candidate_table(*shape)
    assert np.array_equal(masks, np.concatenate(groups))
    assert bits.dtype == np.uint8
    n_entries = shape[0] * shape[1]
    assert np.array_equal(bits, (masks[:, None] >> np.arange(n_entries)) & 1)
    assert ends == tuple(np.cumsum([len(g) for g in groups]))
    assert ends[-1] == len(masks) == 1 << n_entries


def _boolean_targets():
    """Random truth tables of widths 0-2 and 0/1 correlation matrices of
    every shape up to 4x4, three of each, with their grids."""
    rng = random.Random(1753)
    for nx in range(3):
        for ny in range(3):
            for _ in range(3):
                f = random_table(nx, ny, rng)
                yield f, tuple(tuple(row) for row in f.bits().tolist())
    for r in range(1, 5):
        for c in range(1, 5):
            for _ in range(3):
                grid = tuple(tuple(rng.randrange(2) for _ in range(c)) for _ in range(r))
                yield CorrelationMatrix(tuple(tuple(map(Fraction, row)) for row in grid)), grid


def test_zero_eps_on_boolean_targets_is_rank_without_lower_lps(monkeypatch):
    # at eps 0 every entry is pinned: the answer is the GF(2) rank with
    # the target itself as the witness, and no level below it runs an LP
    feasible, solve = epsrank._mixture_feasible, epsrank.solve_phase1
    levels, lp_levels = [], []

    def at_level(t, *args):
        levels.append(t)
        return feasible(t, *args)

    def counted(columns, b):
        lp_levels.append(levels[-1])
        return solve(columns, b)

    monkeypatch.setattr(epsrank, "_mixture_feasible", at_level)
    monkeypatch.setattr(epsrank, "solve_phase1", counted)
    for matrix, grid in _boolean_targets():
        rank = gf2.rank_rows([sum(v << y for y, v in enumerate(row)) for row in grid],
                             len(grid[0]))
        for tmax in range(min(len(grid), len(grid[0])) + 1):
            lp_levels.clear()
            res = _eps_rank(matrix, 0, tmax)
            if tmax < rank:
                assert res == EpsRankResult(None, ())
            else:
                assert res == EpsRankResult(rank, ((1, grid),))
            assert set(lp_levels) == ({rank} if tmax >= rank else set())


def test_rational_target_between_levels():
    # constant 1/4 matrix: at eps 1/4 the zero matrix alone suffices
    m = CorrelationMatrix(((Fraction(1, 4), Fraction(1, 4)),
                           (Fraction(1, 4), Fraction(1, 4))))
    assert _eps_rank(m, Fraction(1, 4)).t == 0
    # at eps 1/8 no rank-0 mixture works but rank-1 mixtures do
    res = _eps_rank(m, Fraction(1, 8))
    assert res.t == 1
    assert verify_witness(m, Fraction(1, 8), res.witness)


def _golden_panel():
    """Seeded eps-rank queries: every 2x2 table, 0/1 3x3 matrices, 4x4
    tables (all eps for GF(2) rank <= 2, eps 1/2 above), and rational
    correlation matrices mixing 0/1 and fractional entries."""
    rng = random.Random(2009)
    eps_all = tuple(Fraction(k, 8) for k in (0, 1, 2, 4))
    for code in range(16):
        for eps in eps_all:
            yield TruthTable(1, 1, (code & 3, code >> 2)), eps
    for _ in range(3):
        m = CorrelationMatrix(tuple(tuple(Fraction(rng.randrange(2))
                                          for _ in range(3)) for _ in range(3)))
        for eps in eps_all:
            yield m, eps
    low, high = [], []
    while len(low) < 2 or len(high) < 3:
        f = random_table(2, 2, rng)
        (low if gf2.gf2_rank(f) <= 2 else high).append(f)
    for f in low[:2]:
        for eps in eps_all:
            yield f, eps
    for f in high[:3]:
        yield f, HALF
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        for _ in range(2):
            m = CorrelationMatrix(tuple(
                tuple(Fraction(rng.randrange(2)) if rng.random() < 0.5
                      else Fraction(rng.randrange(1, 8), 8)
                      for _ in range(shape[1])) for _ in range(shape[0])))
            for eps in (Fraction(0), Fraction(1, 4)):
                yield m, eps


def _report(res: EpsRankResult) -> str:
    """The result lines ``nlbox epsrank`` prints."""
    lines = [f"eps-rank: {res.t}"]
    for i, (w, grid) in enumerate(res.witness):
        rows = ";".join("".join(str(v) for v in row) for row in grid)
        lines.append(f"witness {i}: {w.numerator}/{w.denominator} {rows}")
    return "\n".join(lines) + "\n"


# sha256 of the reports of the panel above; a different pivot path or
# admitted column changes a witness and with it this hash
WITNESS_GOLDEN = "edf8023a9ef70a285039babf5405d42ee13f6b264730f55aabb9331f4b7e4118"
# sha256 of the master LP sizes, one line of column counts per query:
# the admitted columns, round by round
LP_WORK_GOLDEN = "f6a476d5aa730744a7f7f8ff3dcbea318fd731556b58eecec285318a6fc3573f"


def test_witnesses_match_recorded_panel(monkeypatch):
    solve = epsrank.solve_phase1
    sizes = []

    def counted(columns, b):
        sizes.append(len(columns))
        return solve(columns, b)

    monkeypatch.setattr(epsrank, "solve_phase1", counted)
    text = work = ""
    for matrix, eps in _golden_panel():
        sizes.clear()
        res = _eps_rank(matrix, eps)
        assert verify_witness(matrix, eps, res.witness)
        text += _report(res)
        work += " ".join(map(str, sizes)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_GOLDEN
    assert hashlib.sha256(work.encode()).hexdigest() == LP_WORK_GOLDEN


def test_python_int_pricing_admits_what_int64_does(monkeypatch):
    # the exact reduced costs leave int64 only for wide duals; forced on
    # every round, Python ints must admit the same columns
    solve, masters = epsrank.solve_phase1, []

    def recorded(columns, b):
        masters.append(columns.tobytes())
        return solve(columns, b)

    monkeypatch.setattr(epsrank, "solve_phase1", recorded)
    panel = list(_golden_panel())[::3]
    want = [_eps_rank(matrix, eps) for matrix, eps in panel], masters[:]
    masters.clear()
    monkeypatch.setattr(epsrank, "_INT64_DOT", 0)
    assert ([_eps_rank(matrix, eps) for matrix, eps in panel], masters) == want
