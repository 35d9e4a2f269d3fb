"""Named protocols: inner product, Disjointness, van Dam, CHSH."""

from fractions import Fraction

import pytest

from nlbox.engine import error_profile, exec_exact, nonsignaling_audit
from nlbox.library import (ChshStrategy, chsh_box_protocol,
                           chsh_classical_optimum, disj_det_protocol,
                           disj_rand_parallel, ip_protocol, vandam_protocol)
from nlbox.protocols import validate
from nlbox.truthtable import and_table, disj_table, ip_table

THIRD = Fraction(1, 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_ip_protocol_exact_with_n_boxes(n):
    p = ip_protocol(n)
    assert p.t == n
    assert validate(p) == []
    assert error_profile(p, ip_table(n)).exact


def test_ip_protocol_rejects_bad_n():
    with pytest.raises(ValueError):
        ip_protocol(0)
    with pytest.raises(ValueError):
        ip_protocol(9)


@pytest.mark.parametrize("n", range(1, 5))
def test_disj_det_exact_within_3n_boxes(n):
    p = disj_det_protocol(n)
    assert validate(p) == []
    assert p.t <= 3 * n
    assert error_profile(p, disj_table(n)).exact


@pytest.mark.parametrize("n", range(1, 4))
def test_disj_rand_error_exactly_one_third(n):
    p = disj_rand_parallel(n, THIRD)
    assert validate(p) == []
    prof = error_profile(p, disj_table(n))
    assert set(prof.table.values()) == {THIRD}


def test_disj_rand_error_structure_general_p():
    # without the flip, masked inner product errs only on intersecting
    # inputs, with probability exactly 1/2 there
    n = 2
    f = disj_table(n)
    prof0 = error_profile(disj_rand_parallel(n, Fraction(0)), f)
    for (x, y), e in prof0.table.items():
        assert e == (Fraction(1, 2) if f.entry(x, y) else Fraction(0))
    # the flip moves error from intersecting to disjoint inputs linearly
    p = Fraction(1, 5)
    prof = error_profile(disj_rand_parallel(n, p), f)
    for (x, y), e in prof.table.items():
        assert e == ((1 - p) / 2 if f.entry(x, y) else p)


@pytest.mark.parametrize("n", [-1, 0, 5])
def test_disjointness_refuses_n_outside_1_to_4(n):
    for build in (disj_det_protocol, lambda n: disj_rand_parallel(n, THIRD)):
        with pytest.raises(ValueError, match=r"^n must be in 1\.\.4$"):
            build(n)


def test_disj_rand_rejects_bad_weight():
    with pytest.raises(ValueError):
        disj_rand_parallel(2, Fraction(3, 2))


def test_vandam_protocol_counts_nonzero_rows():
    f = ip_table(2)
    p = vandam_protocol(f)
    assert p.t == sum(1 for r in f.rows if r)
    assert error_profile(p, f).exact


def test_chsh_classical_optimum_is_three_quarters():
    assert chsh_classical_optimum() == Fraction(3, 4)
    # and it is attained, e.g. by always answering 0
    assert ChshStrategy((0, 0), (0, 0)).success() == Fraction(3, 4)


def test_chsh_box_strategy_wins_surely():
    p = chsh_box_protocol()
    assert p.t == 1
    prof = error_profile(p, and_table())
    assert prof.worst == 0
    for x in (0, 1):
        for y in (0, 1):
            assert exec_exact(p, x, y).parity_prob(x & y) == 1


def test_library_protocols_are_nonsignaling():
    for p in (ip_protocol(2), disj_rand_parallel(2, THIRD),
              chsh_box_protocol(), disj_det_protocol(2)):
        assert nonsignaling_audit(p) is None
