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
from util import oracle_fourier_l1, oracle_rank, random_table

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


@pytest.mark.parametrize("nx,ny", [(nx, ny) for nx in range(7) for ny in range(7)])
def test_fourier_l1_equals_blockwise_transform_exactly(nx, ny):
    # the butterflies add the same floats in the same order, so the reports
    # are equal to the last bit (reprs, so -0.0 and 0.0 differ), the derived
    # Parseval defect included
    rng = random.Random(f"spectrum:{nx}:{ny}")
    tables = [random_table(nx, ny, rng) for _ in range(3)]
    tables += [TruthTable(nx, ny, (0,) * (1 << nx)),
               TruthTable(nx, ny, ((1 << (1 << ny)) - 1,) * (1 << nx))]
    for f in tables:
        rep, want = gf2.fourier_l1(f), oracle_fourier_l1(f)
        assert repr(rep) == repr(want)
        assert repr(rep.parseval_defect()) == repr(want.parseval_defect())


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


@pytest.mark.parametrize("n_rows,n_cols", [(0, 3), (3, 0), (0, 0)])
def test_batch_rank_of_matrices_without_rows_or_columns_is_zero(n_rows, n_cols):
    ranks = gf2.rank_batch_masks([0, 0], n_rows, n_cols)
    assert ranks.dtype == np.int64 and ranks.tolist() == [0, 0]


def test_batch_rank_rejects_oversized():
    with pytest.raises(ValueError):
        gf2.rank_batch_masks([0], 8, 8)


def _assert_factorizations_match(masks, n_rows, n_cols):
    t, ps, qs = gf2.factorize_batch_masks(masks, n_rows, n_cols)
    k = min(n_rows, n_cols)
    assert t.dtype == ps.dtype == qs.dtype == np.int64
    assert t.shape == (len(masks),) and ps.shape == qs.shape == (len(masks), k)
    row_mask = (1 << n_cols) - 1
    for m, tm, pm, qm in zip(masks, t.tolist(), ps.tolist(), qs.tolist()):
        rows = [(int(m) >> (i * n_cols)) & row_mask for i in range(n_rows)]
        want_ps, want_qs = gf2.factor_rows(rows)
        assert (pm[:tm], qm[:tm]) == (want_ps, want_qs)
        assert pm[tm:] == qm[tm:] == [0] * (k - tm)


def test_batch_factorize_matches_gf2_factorize_on_every_4x4():
    # the sweep's batch: factors equal gf2_factorize's, in its order
    masks = np.arange(1 << 16, dtype=np.int64)
    t, ps, qs = gf2.factorize_batch_masks(masks, 4, 4)
    for m in range(1 << 16):
        fac = gf2.gf2_factorize(TruthTable(2, 2, tuple((m >> (4 * x)) & 15
                                                       for x in range(4))))
        k = t[m]
        assert (k, tuple(ps[m, :k].tolist()), tuple(qs[m, :k].tolist())) == \
            (fac.t, fac.row_factors, fac.col_factors)
        assert not ps[m, k:].any() and not qs[m, k:].any()


@pytest.mark.parametrize("n_rows,n_cols",
                         [(2, 31), (31, 2), (7, 8), (8, 7), (1, 62), (62, 1)])
def test_batch_factorize_matches_single_matrix_factorization(n_rows, n_cols):
    rng = random.Random(f"factorize:{n_rows}x{n_cols}")
    masks = [rng.getrandbits(n_rows * n_cols) for _ in range(3000)]
    _assert_factorizations_match(masks, n_rows, n_cols)


def test_batch_factorize_across_chunks():
    # longer than one chunk and not a multiple of it; low ranks mixed in
    rng = random.Random(20261018)
    n = 2 * gf2._CHUNK + 123
    masks = [rng.getrandbits(16) & rng.getrandbits(16) for _ in range(n)]
    _assert_factorizations_match(masks, 4, 4)


def test_batch_factorize_empty_batch():
    t, ps, qs = gf2.factorize_batch_masks([], 3, 3)
    assert t.shape == (0,) and ps.shape == qs.shape == (0, 3)
    assert t.dtype == ps.dtype == qs.dtype == np.int64


def test_batch_factorize_rejects_oversized():
    with pytest.raises(ValueError):
        gf2.factorize_batch_masks([0], 8, 8)
    with pytest.raises(ValueError):
        gf2.factorize_batch_masks([0], 1, 63)
