"""GF(2) core: rank, factorization, ANF, Walsh spectrum, batch kernel.

Rank results are cross-checked against an independently written
dense-list elimination (tests/util.py); ANF is cross-checked by direct
monomial evaluation at every point.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox import gf2
from nlbox.truthtable import (TruthTable, and_table, ip_table, xor_table)
from util import oracle_rank, random_table

RNG = random.Random(20260823)


def _dense(f: TruthTable) -> list[list[int]]:
    return [[f.entry(x, y) for y in range(f.n_cols)] for x in range(f.n_rows)]


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_rank_matches_independent_elimination(nx, ny):
    for _ in range(50):
        f = random_table(nx, ny, RNG)
        assert gf2.gf2_rank(f) == oracle_rank(_dense(f))


def test_rank_known_values():
    assert gf2.gf2_rank(and_table()) == 1
    assert gf2.gf2_rank(xor_table()) == 2  # [[0,1],[1,0]] has full rank
    for n in range(1, 5):
        assert gf2.gf2_rank(ip_table(n)) == n
    assert gf2.gf2_rank(TruthTable(2, 2, (0, 0, 0, 0))) == 0


def test_rank_invariant_under_row_permutation():
    for _ in range(20):
        f = random_table(3, 3, RNG)
        perm = list(range(f.n_rows))
        RNG.shuffle(perm)
        g = TruthTable(f.nx, f.ny, tuple(f.rows[i] for i in perm))
        assert gf2.gf2_rank(f) == gf2.gf2_rank(g)


@given(st.lists(st.integers(0, 255), min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_factorize_is_exact_and_rank_revealing(rows):
    f = TruthTable(3, 3, tuple(rows))
    fac = gf2.gf2_factorize(f)
    assert fac.reconstruct() == f
    assert fac.t == gf2.gf2_rank(f)


def test_anf_matches_pointwise_evaluation():
    for n in (1, 2, 3, 4):
        for _ in range(25):
            table = [RNG.randrange(2) for _ in range(1 << n)]
            mono = gf2.anf(table)
            for z in range(1 << n):
                assert gf2.eval_anf(mono, z) == table[z]


def test_anf_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        gf2.anf([0, 1, 0])


def test_anf_known_forms():
    assert gf2.anf([0, 0, 0, 1]) == {3}           # x0 AND x1
    assert gf2.anf([0, 1, 1, 0]) == {1, 2}        # x0 XOR x1
    assert gf2.anf([1, 1, 1, 1]) == {0}           # constant 1
    assert gf2.anf([0, 0, 0, 0]) == set()


def test_fourier_l1_parity_and_and():
    # the +/-1 encoding of XOR is a single character: L1 exactly 1
    assert gf2.fourier_l1(xor_table()).l1 == pytest.approx(1.0, abs=1e-12)
    # AND = 1/2 + 1/2 chi_x + 1/2 chi_y - 1/2 chi_xy: L1 exactly 2
    assert gf2.fourier_l1(and_table()).l1 == pytest.approx(2.0, abs=1e-12)


def test_fourier_parseval_defect_small():
    for _ in range(50):
        f = random_table(2, 2, RNG)
        assert gf2.fourier_l1(f).parseval_defect() < 1e-12


def test_fourier_character_indexing():
    # f(x, y) = y0: the spectrum must be the single Bob-side character bit 0
    f = TruthTable(1, 1, (0b10, 0b10))
    rep = gf2.fourier_l1(f)
    assert rep.coefficients[0b01] == pytest.approx(1.0, abs=1e-12)
    assert rep.l1 == pytest.approx(1.0, abs=1e-12)


def _unpack(mask: int, n_rows: int, n_cols: int) -> list[list[int]]:
    return [[(mask >> (r * n_cols + c)) & 1 for c in range(n_cols)]
            for r in range(n_rows)]


@pytest.mark.parametrize("n_rows,n_cols", [(3, 3), (2, 4), (4, 2), (4, 4)])
def test_batch_rank_matches_independent_elimination(n_rows, n_cols):
    # every matrix of the shape; the 65,536 4x4 ones span several chunks
    n = 1 << (n_rows * n_cols)
    ranks = gf2.rank_batch_masks(np.arange(n, dtype=np.int64), n_rows, n_cols)
    assert ranks.dtype == np.int64 and len(ranks) == n
    for m in range(n):
        assert ranks[m] == oracle_rank(_unpack(m, n_rows, n_cols))


@pytest.mark.parametrize("n_rows,n_cols", [(7, 8), (2, 31)])
def test_batch_rank_matches_single_matrix_rank(n_rows, n_cols):
    masks = [RNG.getrandbits(n_rows * n_cols) for _ in range(3000)]
    ranks = gf2.rank_batch_masks(masks, n_rows, n_cols)
    row_mask = (1 << n_cols) - 1
    for m, r in zip(masks, ranks):
        rows = [(m >> (i * n_cols)) & row_mask for i in range(n_rows)]
        assert r == gf2.rank_rows(rows, n_cols)


def test_batch_rank_empty_batch():
    ranks = gf2.rank_batch_masks([], 3, 3)
    assert ranks.dtype == np.int64 and len(ranks) == 0


def test_batch_rank_rejects_oversized():
    with pytest.raises(ValueError):
        gf2.rank_batch_masks([0], 8, 8)
