"""Correlation matrices, exact simulation, and the 3-box measurement
simulation coupling."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nlbox.correlations import (BOX_LABELS, CorrelationMatrix,
                                correlation_of_table, format_correlation,
                                layercake_decompose, make_context,
                                parse_correlation, rt_comm, rt_nlb, rt_trials,
                                simulate_distribution)
from nlbox.truthtable import ip_table
from util import input_laws

RNG = random.Random(4242)

HALF = Fraction(1, 2)


def _random_corr_matrix(rows, cols, max_den=16) -> CorrelationMatrix:
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            den = RNG.randrange(1, max_den + 1)
            row.append(Fraction(RNG.randrange(0, den + 1), den))
        entries.append(tuple(row))
    return CorrelationMatrix(tuple(entries))


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        CorrelationMatrix(((Fraction(3, 2),),))
    with pytest.raises(ValueError):
        CorrelationMatrix(((Fraction(1, 2),), (Fraction(1, 2), Fraction(0))))
    with pytest.raises(ValueError):
        CorrelationMatrix(())


def test_correlation_file_roundtrip():
    c = _random_corr_matrix(4, 4)
    assert parse_correlation(format_correlation(c)) == c
    with pytest.raises(ValueError):
        parse_correlation("corr 2\n1/2 1/2\n")
    with pytest.raises(ValueError):
        parse_correlation("corr 2 2\n1/2 1/2 1/2\n")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_correlation("corr 1 2\n1/0 1/2\n")
    for head in ("corr \u0661 2", "corr 1 +2", "corr 1_0 2"):
        with pytest.raises(ValueError, match="is not a decimal number"):
            parse_correlation(f"{head}\n1/2 1/2\n")
    # int() would take the last three; an Arabic-Indic digit is not ASCII
    for tok in ("0", "0x1/2", "1/2/3", "1/", "1_0/20", "+1/2", "\u0661/2"):
        msg = f"entry {tok!r} is not of the form n/d"
        with pytest.raises(ValueError, match=re.escape(msg)):
            parse_correlation(f"corr 1 2\n{tok} 1/2\n")


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n  \n"])
def test_empty_correlation_file_is_named(text):
    with pytest.raises(ValueError, match="^empty correlation file$"):
        parse_correlation(text)


def test_layercake_reconstructs_exactly():
    for _ in range(20):
        c = _random_corr_matrix(4, 4)
        mix = layercake_decompose(c)
        assert sum(w for w, _ in mix.components) == 1
        assert mix.reconstruct() == c


def test_layercake_boolean_input_is_single_component():
    c = correlation_of_table(ip_table(2))
    mix = layercake_decompose(c)
    positive = [m for w, m in mix.components if w > 0 and not m.is_zero()]
    assert len(positive) == 1
    assert correlation_of_table(positive[0]) == c


def test_layercake_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        layercake_decompose(CorrelationMatrix(
            ((HALF, HALF, HALF),) * 3))


def test_simulate_distribution_exact_and_uniform():
    for _ in range(10):
        c = _random_corr_matrix(4, 4)
        mix = simulate_distribution(c)
        for x, y, dist in input_laws(mix):
            assert dist.parity_prob(1) == c.entries[x][y]
            assert dist.marginal_a() == {0: HALF, 1: HALF}
            assert dist.marginal_b() == {0: HALF, 1: HALF}


# --- 3-box measurement simulation ---


def test_context_validation():
    ctx = make_context(5, seed=1)
    assert ctx.g.shape == (3, 5)
    with pytest.raises(ValueError):
        make_context(5, seed=1, g=np.ones((3, 5)))
    with pytest.raises(ValueError):
        rt_comm(np.ones(5), np.ones(5) / np.sqrt(5), ctx)  # x not unit
    with pytest.raises(ValueError):
        rt_comm(np.ones(4) / 2, np.ones(5) / np.sqrt(5), ctx)  # wrong dim


@pytest.mark.parametrize("shape", [(2, 5), (3, 4), (5,), (3, 5, 1)])
def test_context_refuses_a_projector_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match="^projector must be 3 x dim$"):
        make_context(5, seed=1, g=np.zeros(shape))


def test_identity_projection_same_vector_agrees_surely():
    # dim 3 with the identity projector: on x = y both players' answers
    # coincide, so the product a*b is exactly 1 in both simulations
    ctx = make_context(3, seed=0, g=np.eye(3))
    rng = np.random.default_rng(9)
    for trial in range(200):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        a, b = rt_comm(v, v, ctx)
        assert a * b == 1
        an, bn = rt_nlb(v, v, ctx, box_seed=trial)
        assert an * bn == 1


def test_comm_and_nlb_products_coincide():
    for seed in range(50):
        ctx = make_context(6, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        a_c, b_c = rt_comm(x, y, ctx)
        a_n, b_n = rt_nlb(x, y, ctx, box_seed=seed)
        assert a_c * b_c == a_n * b_n
        assert {a_c, b_c, a_n, b_n} <= {-1, 1}


def test_box_labels_cover_nontrivial_sign_patterns():
    assert len(BOX_LABELS) == 3
    assert (1, 1) not in BOX_LABELS
    assert len(set(BOX_LABELS)) == 3


def test_rt_trials_vectorized_coupling_and_reproducibility():
    a_c, b_c, a_n, b_n = rt_trials(4, 2000, seed=5)
    assert int(((a_c * b_c) != (a_n * b_n)).sum()) == 0
    again = rt_trials(4, 2000, seed=5)
    assert all(np.array_equal(u, v) for u, v in zip((a_c, b_c, a_n, b_n), again))
    assert set(np.unique(a_n)) <= {-1, 1}
