"""Acceptance suite: the eleven primary behavioral guarantees.

Each test prints one PASS line (bypassing capture) once every assertion
inside it has held; a failed assertion fails the test and suppresses
the line, so the printed summary always reflects the real outcome.
"""

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nlbox import gf2
from nlbox.compilers import (and_from_oneway, oneway_from_and, oneway_optimal,
                             ordered_to_ot, synth_rank, twoway_to_parallel,
                             xor_normalize_parallel)
from nlbox.correlations import CorrelationMatrix, _rt_kernel, make_context, \
    rt_comm, rt_nlb, rt_trials, simulate_distribution
from nlbox.engine import (error_profile, exact_laws, exec_exact, privacy_audit_and,
                          privacy_audit_ot)
from nlbox.epsrank import EpsRankQuery, eps_rank, verify_witness
from nlbox.library import (chsh_box_protocol, chsh_classical_optimum,
                           disj_det_protocol, disj_rand_parallel, ip_protocol)
from nlbox.truthtable import (TruthTable, and_table, disj_table, ip_table,
                              xor_table)
from util import obfuscate, random_table, random_tree, xor_as_ordered, \
    xor_as_parallel

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"[PASS] {line}")


def test_criterion_01_exhaustive_rank_synthesis_sweep(capsys):
    started = time.monotonic()
    for code in range(1 << 16):
        f = TruthTable(2, 2, tuple((code >> (4 * x)) & 15 for x in range(4)))
        p = synth_rank(f)
        assert p.strict
        assert p.t == gf2.gf2_rank(f)
        assert error_profile(p, f).exact
    elapsed = time.monotonic() - started
    assert elapsed < 300
    report(capsys, "criterion 1: all 65,536 two-bit functions synthesized "
                   f"exactly with rank-many boxes in {elapsed:.1f}s")


def test_criterion_02_chsh_classical_vs_one_box(capsys):
    assert chsh_classical_optimum() == Fraction(3, 4)
    p = chsh_box_protocol()
    assert p.t == 1
    # every input's law from one tally, x outer; one pair also through
    # exec_exact
    laws = exact_laws(p)
    assert len(laws) == 4 and laws[3] == exec_exact(p, 1, 1)
    for (x, y), dist in zip(product((0, 1), repeat=2), laws):
        assert dist.parity_prob(x & y) == 1
    report(capsys, "criterion 2: classical CHSH optimum exactly 3/4; the "
                   "1-box strategy wins with probability 1")


def test_criterion_03_disjointness_deterministic_and_randomized(capsys):
    for n in range(1, 5):
        p = disj_det_protocol(n)
        assert p.t <= 3 * n
        assert error_profile(p, disj_table(n)).exact
    for n in range(1, 5):
        prof = error_profile(disj_rand_parallel(n, THIRD), disj_table(n))
        assert set(prof.table.values()) == {THIRD}
    report(capsys, "criterion 3: Disjointness n=1..4 exact within 3n boxes; "
                   "randomized variant errs exactly 1/3 on every input")


def test_criterion_04_twoway_tree_compilation(capsys):
    rng = random.Random(20260823)
    for trial in range(100):
        t = rng.randrange(1, 5)
        tree = random_tree(3, 3, t, rng)
        p = twoway_to_parallel(tree)
        assert p.t <= (1 << t) - 1
        # strict XOR protocols have the same output parity on every
        # box-outcome branch, so the closed form checks all branches
        for x in range(8):
            for y in range(8):
                a, b = tree.evaluate(x, y)
                shift = 0
                for i in range(p.t):
                    shift ^= p.pbox[i][x] & p.qbox[i][y]
                assert p.local_a[x] ^ p.local_b[y] ^ shift == a ^ b
        if trial < 5:  # cross-check the closed form against the engine
            xs, ys = [0, 0, 7, 7], [0, 7, 0, 7]
            laws = exact_laws(p, xs, ys)
            assert laws[trial % 4] == exec_exact(p, xs[trial % 4], ys[trial % 4])
            for x, y, dist in zip(xs, ys, laws):
                a, b = tree.evaluate(x, y)
                assert dist.parity_prob(a ^ b) == 1
    report(capsys, "criterion 4: 100 random protocol trees (depth <= 4) "
                   "compiled to <= 2^t - 1 boxes, bit-exact on every branch")


def test_criterion_05_xor_normalization(capsys):
    rng = random.Random(555)
    for _ in range(100):
        f = random_table(2, 2, rng)
        src = obfuscate(xor_as_parallel(synth_rank(f)), rng)
        if rng.random() < 0.5:  # sometimes two layers of obfuscation
            src = obfuscate(src, rng)
        norm = xor_normalize_parallel(src)
        assert norm.strict
        assert norm.t <= src.t + 2
        assert error_profile(norm, f).exact
    report(capsys, "criterion 5: 100 obfuscated exact parallel protocols "
                   "normalized to strict XOR form within source+2 boxes")


def test_criterion_06_ordered_to_ot(capsys):
    sources = [xor_as_ordered(ip_protocol(n)) for n in (1, 2, 3)]
    sources += [disj_det_protocol(n) for n in (1, 2)]
    for k, src in enumerate(sources):
        ot = ordered_to_ot(src)
        # every input's law of each from one tally, x outer; one pair of
        # each source, in turn, also through exec_exact
        laws = exact_laws(ot)
        assert len(laws) == 1 << (src.nx + src.ny)
        assert [d.probs for d in laws] == [d.probs for d in exact_laws(src)]
        x, y = divmod(k % len(laws), 1 << src.ny)
        assert laws[k % len(laws)] == exec_exact(ot, x, y)
        assert privacy_audit_ot(ot) is None
    report(capsys, "criterion 6: OT compilation preserves the exact joint "
                   "distribution for IP(n<=3) and DISJ(n<=2); received bits uniform")


def test_criterion_07_secure_and_bridges(capsys):
    rng = random.Random(909)
    for k in range(1000):
        f = random_table(2, 2, rng)
        ow = oneway_optimal(f)
        ap = and_from_oneway(ow)
        assert ap.t == 1 << ow.t
        assert privacy_audit_and(ap, f) is None
        back = oneway_from_and(ap, f)
        assert back.t <= max(1, (ap.t - 1)).bit_length()
        # every input's law from one tally, x outer; one pair of each
        # function, in turn, also through exec_exact
        laws = exact_laws(back)
        assert len(laws) == 16 and laws[k % 16] == exec_exact(back, *divmod(k % 16, 4))
        for (x, y), dist in zip(product(range(4), repeat=2), laws):
            a, b = next(iter(dist.probs))
            assert a ^ b == f.entry(x, y)
    report(capsys, "criterion 7: 1,000 sampled functions round-trip through "
                   "secure-AND (2^t gates, private) and back within log2(gates) bits")


def test_criterion_08_eps_rank(capsys):
    eps_grid = (Fraction(0), Fraction(1, 8), Fraction(1, 4), HALF)

    def check(matrix, exact_rank):
        prev = None
        for eps in eps_grid:
            res = eps_rank(EpsRankQuery(matrix, eps, 4))
            assert res.t is not None
            assert verify_witness(matrix, eps, res.witness)
            if eps == 0:
                assert res.t == exact_rank
            if prev is not None:
                assert res.t <= prev
            prev = res.t
        assert prev <= 1

    for code in range(16):
        f = TruthTable(1, 1, (code & 3, code >> 2))
        check(f, gf2.gf2_rank(f))
    rng = random.Random(808)
    for _ in range(200):
        rows = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        m = CorrelationMatrix(tuple(tuple(Fraction(v) for v in r) for r in rows))
        packed = [sum(v << y for y, v in enumerate(r)) for r in rows]
        check(m, gf2.rank_rows(packed, 3))
    report(capsys, "criterion 8: eps-rank matches exact rank at eps=0, is "
                   "nonincreasing, and is <=1 at eps=1/2 with verified witnesses "
                   "(all 2x2 plus 200 random 3x3)")


def test_criterion_09_measurement_simulation_trials(capsys):
    n = 100_000
    bound = 4 / np.sqrt(n)
    for dim in (3, 5, 10):
        a_c, b_c, a_n, b_n = rt_trials(dim, n, seed=dim)
        assert int(((a_c * b_c) != (a_n * b_n)).sum()) == 0
        assert abs(float(a_n.mean())) <= bound
        assert abs(float(b_n.mean())) <= bound
    # every branch: one fixed batch of projected trials run with the three
    # box outcomes set to each of their 8 values, so that the agreement
    # does not rest on the outcomes drawn
    x2, y2 = np.random.default_rng(9).standard_normal((2, 1000, 3))
    for v in range(8):
        bits = np.broadcast_to([(v >> i) & 1 for i in range(3)], (1000, 3))
        a_c, b_c, a_n, b_n = _rt_kernel(x2, y2, bits)
        assert ((a_c * b_c) == (a_n * b_n)).all(), v
    ctx = make_context(3, seed=0, g=np.eye(3))
    rng = np.random.default_rng(1)
    for trial in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        a, b = rt_comm(v, v, ctx)
        an, bn = rt_nlb(v, v, ctx, box_seed=trial)
        assert a * b == 1 and an * bn == 1
    report(capsys, "criterion 9: 3 boxes per run, 100% coupled agreement over "
                   "3x100,000 trials and on all 8 box-outcome branches of "
                   "1,000 trials, marginals within 4/sqrt(N); identity "
                   "dim-3 case gives E[AB] = 1 exactly")


def test_criterion_10_correlation_simulation(capsys):
    rng = random.Random(606)
    for k in range(100):
        entries = []
        for _x in range(4):
            row = []
            for _y in range(4):
                den = rng.randrange(1, 17)
                row.append(Fraction(rng.randrange(0, den + 1), den))
            entries.append(tuple(row))
        c = CorrelationMatrix(tuple(entries))
        mix = simulate_distribution(c)
        # every input's law from one tally, x outer; one pair of each
        # mixture, in turn, also through exec_exact
        laws = exact_laws(mix)
        assert len(laws) == 16 and laws[k % 16] == exec_exact(mix, *divmod(k % 16, 4))
        for (x, y), dist in zip(product(range(4), repeat=2), laws):
            assert dist.parity_prob(1) == c.entries[x][y]
            assert dist.marginal_a() == {0: HALF, 1: HALF}
            assert dist.marginal_b() == {0: HALF, 1: HALF}
    report(capsys, "criterion 10: 100 random rational 4x4 correlation matrices "
                   "reproduced exactly with exactly uniform marginals")


def test_criterion_11_fourier_diagnostics(capsys):
    assert abs(gf2.fourier_l1(xor_table()).l1 - 1.0) < 1e-12
    assert abs(gf2.fourier_l1(and_table()).l1 - 2.0) < 1e-12
    rng = random.Random(707)
    for _ in range(1000):
        nx = rng.randrange(1, 3)
        ny = rng.randrange(1, 3)
        f = random_table(nx, ny, rng)
        assert gf2.fourier_l1(f).parseval_defect() < 1e-12
    report(capsys, "criterion 11: spectral L1 of parity is 1 and of AND is 2; "
                   "Parseval holds within 1e-12 on 1,000 random functions")
