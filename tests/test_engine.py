"""Exact engine: closed forms vs brute force, order invariance, audits."""

import math
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox import engine
from nlbox.engine import (_BATCH, _MAX_SAMPLES, ProtocolError, ResourceLimitError, _tally,
                          _leaves, derive_seed, error_profile, exact_laws, exec_exact,
                          exec_sample, nonsignaling_audit, ot_received_distribution,
                          privacy_audit_and, privacy_audit_ot, sample_counts)
from nlbox.compilers import (and_from_oneway, oneway_optimal, oneway_to_parallel, ordered_to_ot,
                             synth_rank, synth_vandam, xor_normalize_general)
from nlbox.library import disj_det_protocol, disj_rand_parallel, ip_protocol
from nlbox.protocols import (AndProtocol, GeneralNlbProtocol,
                             OrderedNlbProtocol, OtProtocol, ParallelXorProtocol,
                             ProtocolMixture, validate)
from nlbox.serialize import serialize
from nlbox.truthtable import TruthTable, and_table, disj_table, ip_table
from util import (KINDS, input_laws, leaky_ot, oracle_bob_first,
                  oracle_privacy_audit_ot as oracle_privacy_ot,
                  oracle_error, oracle_exec,
                  oracle_nonsignaling_audit, oracle_ot_received,
                  oracle_counts, oracle_parallel_dist, oracle_privacy_audit_ot, oracle_sample,
                  parity, random_ordered, random_protocol, random_table,
                  random_tree, sampled_kinds, unchecked, xor_as_ordered, xor_as_parallel)

RNG = random.Random(777)

HALF = Fraction(1, 2)


def test_chsh_box_distribution():
    p = ip_protocol(1)
    for x, y, dist in input_laws(p):
        # outcomes are unbiased and the parity equals x AND y surely
        assert dist.marginal_a() == {0: HALF, 1: HALF}
        assert dist.marginal_b() == {0: HALF, 1: HALF}
        assert dist.parity_prob(x & y) == 1


def test_parallel_exec_matches_bruteforce_oracle():
    for _ in range(30):
        base = synth_rank(random_table(2, 2, RNG))
        p = xor_as_parallel(base)
        for x, y, dist in input_laws(p):
            assert dist.probs == oracle_parallel_dist(p, x, y)


def test_xor_closed_form_matches_general_parallel_path():
    for _ in range(30):
        base = synth_rank(random_table(2, 2, RNG))
        emb = xor_as_parallel(base)
        assert input_laws(base) == input_laws(emb)


def test_ordered_sweep_order_invariance():
    for _ in range(20):
        p = random_ordered(2, 2, RNG.randrange(1, 4), RNG)
        for x, y, dist in input_laws(p):
            # Alice's outcomes free (the kernel) or Bob's (the reference)
            assert dist.probs == oracle_bob_first(p, x, y)


def test_general_with_identity_schedules_equals_ordered():
    # the exact laws, seeded runs with their transcripts and seeded counts
    # of an ordered protocol are those of the general one with identity
    # touch orders
    for k in range(20):
        p = random_ordered(2, 2, RNG.randrange(1, 4), RNG)
        ident = tuple(range(p.t))
        g = GeneralNlbProtocol(p.nx, p.ny, p.t, ident, p.step_a, ident,
                               p.step_b, p.out_a, p.out_b)
        assert input_laws(g) == input_laws(p)
        for seed in range(3):
            x, y = divmod((k + seed) % 16, 4)
            assert exec_sample(g, x, y, seed) == exec_sample(p, x, y, seed)
            assert sample_counts(g, x, y, seed, 300) == sample_counts(p, x, y, seed, 300)


def test_ordered_reads_identity_schedules_outside_its_state():
    p = random_ordered(2, 1, 3, RNG)
    assert p.sched_a.tolist() == p.sched_b.tolist() == list(range(p.t))
    with pytest.raises(AttributeError):
        p.sched_a = np.arange(p.t)
    # they are no fields: the text, equality and hash hold the tables alone
    assert not {"sched_a", "sched_b"} & {f.name for f in fields(p)}
    assert "sched" not in serialize(p)
    q = OrderedNlbProtocol(p.nx, p.ny, p.t, p.step_a, p.step_b, p.out_a, p.out_b)
    assert q == p and hash(q) == hash(p)


def test_general_schedule_permutation_invariance_for_parallel_boxes():
    # when step tables ignore observed outcomes, any schedule pair gives
    # the same joint law as the parallel execution
    for _ in range(15):
        base = synth_rank(random_table(2, 2, RNG))
        if base.t == 0:
            continue
        emb = xor_as_ordered(base)
        sched_a = list(range(base.t))
        sched_b = list(range(base.t))
        RNG.shuffle(sched_a)
        RNG.shuffle(sched_b)
        # constant-in-prefix step tables, reindexed by touch position
        step_a = tuple(tuple(tuple(base.pbox[sched_a[pos]][x]
                                   for _ in range(1 << pos))
                             for x in range(1 << base.nx))
                       for pos in range(base.t))
        step_b = tuple(tuple(tuple(base.qbox[sched_b[pos]][y]
                                   for _ in range(1 << pos))
                             for y in range(1 << base.ny))
                       for pos in range(base.t))
        g = GeneralNlbProtocol(base.nx, base.ny, base.t, tuple(sched_a), step_a,
                               tuple(sched_b), step_b,
                               emb.out_a, emb.out_b)
        assert input_laws(g) == input_laws(base)


def test_mixture_is_weighted_average():
    p = disj_rand_parallel(2, Fraction(1, 3))
    comps = [(w, input_laws(comp)) for w, comp in p.components]
    for j, (_x, _y, dist) in enumerate(input_laws(p)):
        acc = {}
        for w, laws in comps:
            for ab, q in laws[j][2].probs.items():
                acc[ab] = acc.get(ab, Fraction(0)) + w * q
        assert dist.probs == acc


def test_deterministic_protocol_kinds_are_point_masses():
    tree = random_tree(2, 2, 3, RNG)
    for x, y, dist in input_laws(tree):
        assert list(dist.probs.values()) == [Fraction(1)]
        assert next(iter(dist.probs)) == tree.evaluate(x, y)


def test_ot_distribution_and_received_bits():
    ot = ordered_to_ot(xor_as_ordered(ip_protocol(2)))
    for x in range(4):
        for y in range(4):
            rec = ot_received_distribution(ot, x, y)
            assert sum(rec.values()) == 1
            assert len(rec) == 1 << ot.t
    assert privacy_audit_ot(ot) is None


def test_error_profile_fast_path_matches_generic():
    f = random_table(2, 2, RNG)
    p = synth_rank(f)
    fast = error_profile(p, f)
    slow = error_profile(xor_as_parallel(p), f)
    assert fast.table == slow.table
    assert fast.exact and slow.exact


def test_protocols_and_error_profiles_are_unequal_to_other_objects():
    f = random_table(2, 2, RNG)
    p = synth_rank(f)
    prof = error_profile(p, f)
    # same dimensions and tables, another kind; then no protocol at all
    for other in (xor_as_parallel(p), prof, None, serialize(p)):
        assert p.__eq__(other) is NotImplemented and p != other
    for other in (p, None, prof.table):
        assert prof.__eq__(other) is NotImplemented and prof != other
    assert p == synth_rank(f) and prof == error_profile(xor_as_parallel(p), f)


def test_error_profile_reports_worst_input():
    # protocol that always outputs parity 0, measured against AND
    p = synth_rank(TruthTable(1, 1, (0, 0)))
    prof = error_profile(p, and_table())
    assert prof.table[(1, 1)] == 1
    assert prof.worst == 1
    assert not prof.exact


def test_sampling_is_seed_deterministic_and_consistent():
    p = ip_protocol(2)
    a0, b0, tr0 = exec_sample(p, 3, 3, 42)
    a1, b1, tr1 = exec_sample(p, 3, 3, 42)
    assert (a0, b0, tr0) == (a1, b1, tr1)
    # every sampled branch obeys the box constraint and the output rule
    for i, ev in enumerate(tr0):
        pa, qb = ev["in"]
        oa, ob = ev["out"]
        assert oa ^ ob == (pa & qb)


def test_sampling_frequencies_near_exact():
    p = ip_protocol(1)
    counts = {}
    for i in range(2000):
        a, b, _ = exec_sample(p, 1, 1, derive_seed(7, i))
        counts[(a, b)] = counts.get((a, b), 0) + 1
    dist = exec_exact(p, 1, 1)
    assert set(counts) == set(dist.probs)
    for ab, n in counts.items():
        assert abs(n / 2000 - float(dist.probs[ab])) < 0.05


def test_sampling_covers_every_protocol_kind():
    kinds = [
        disj_rand_parallel(2, Fraction(1, 3)),
        random_tree(2, 2, 2, RNG),
        ordered_to_ot(xor_as_ordered(ip_protocol(1))),
        random_ordered(1, 1, 2, RNG),
    ]
    for p in kinds:
        a, b, _tr = exec_sample(p, 0, 0, 5)
        assert a in (0, 1) and b in (0, 1)


def test_resource_limit(monkeypatch):
    monkeypatch.setenv("NLBOX_LIMIT_T", "2")
    p = xor_as_parallel(ip_protocol(3))
    with pytest.raises(ResourceLimitError):
        exec_exact(p, 0, 0)


def test_nonsignaling_passes_for_box_protocols():
    samples = [
        ip_protocol(2),
        xor_as_parallel(ip_protocol(2)),
        random_ordered(2, 2, 3, RNG),
        disj_rand_parallel(2, Fraction(1, 3)),
    ]
    for p in samples:
        assert nonsignaling_audit(p) is None


def test_privacy_audit_and_detects_leak():
    # both gates always raised by Alice, Bob inputs y into both: the gate
    # vector reveals y even when f(x, y) is constant in y
    leaky = AndProtocol(1, 1, 2, ((1, 1), (1, 1)), ((0, 1), (0, 1)),
                        ((0, 0, 0, 0), (0, 0, 0, 1)))
    bad = privacy_audit_and(leaky, and_table())
    assert bad is not None
    assert bad.check == "and-privacy"


def test_privacy_audit_and_detects_wrong_output():
    wrong = AndProtocol(1, 1, 1, ((0, 1),), ((0, 1),),
                        ((0, 0), (1, 0)))  # out_a[1][1] should be 1 for AND
    bad = privacy_audit_and(wrong, and_table())
    assert bad is not None
    assert bad.check == "and-correctness"


def test_privacy_audit_ot_detects_bias():
    # constant (0, 0) pairs: Bob always receives 0, far from uniform
    biased = OtProtocol(
        1, 1, 1, (HALF, HALF),
        ((((0, 0), (0, 0)), ((0, 0), (0, 0))),),
        (((0,), (1,)),),
        ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    bad = privacy_audit_ot(biased)
    assert bad is not None
    assert bad.check == "ot-privacy"


def test_mixture_audit_and_views():
    mix = ProtocolMixture(((HALF, ip_protocol(1)), (HALF, ip_protocol(1))))
    assert nonsignaling_audit(mix) is None
    d = exec_exact(mix, 1, 1)
    assert d.parity_prob(1) == 1


def _encode_run(a, b, transcript) -> str:
    """'ab' then one token per event: box 'pq>ab', OT 's0s1c>o', mixture
    component 'm<i>'."""
    toks = [f"{a}{b}"]
    for ev in transcript:
        if ev["kind"] == "box":
            toks.append("%d%d>%d%d" % (*ev["in"], *ev["out"]))
        elif ev["kind"] == "shared-randomness":
            toks.append(f"m{ev['component']}")
        else:
            (s0, s1), c = ev["in"]
            toks.append(f"{s0}{s1}{c}>{ev['out']}")
    return " ".join(toks)


# exec_sample(p, 3, 2, seed) for seeds 0..5, recorded when sampling moved
# to one Philox stream per call; seeded runs must not change with the
# engine's internals.
SAMPLE_GOLDEN = {
    "parallel-xor": ("10 10>00 11>10", "01 10>00 11>01", "01 10>11 11>10",
                     "10 10>11 11>01", "10 10>00 11>10", "10 10>11 11>01"),
    "parallel": ("01 01>00 10>11 11>01 11>10", "01 01>00 10>00 11>01 11>01",
                 "10 01>00 10>00 11>10 11>10", "10 01>00 10>11 11>10 11>01",
                 "10 01>00 10>00 11>01 11>10", "10 01>11 10>00 11>10 11>01"),
    "ordered": ("01 10>00 11>10 00>00 10>11", "01 10>00 11>01 01>00 00>00",
                "01 10>00 11>01 01>11 00>11", "01 10>00 11>10 00>11 10>00",
                "10 10>00 11>01 01>00 00>11", "01 10>11 11>01 11>10 01>00"),
    "general": ("00 10>11 10>00 00>11", "10 10>00 10>00 01>00",
                "10 11>01 10>11 11>10", "00 01>11 10>11 11>01",
                "10 10>00 10>00 01>11", "10 01>00 10>11 11>01"),
    "mixture": ("10 m3 10>00 11>10", "11 m0 00>00 00>11", "10 m4 00>11 00>11",
                "01 m2 00>11 11>10", "01 m3 10>11 11>10", "10 m2 00>11 11>01"),
    "ot": ("01 010>0 101>0 000>0 100>1", "01 010>0 011>1 001>0 000>0",
           "01 010>0 011>1 111>1 110>1", "01 010>0 101>0 110>1 010>0",
           "10 010>0 011>1 001>0 110>1", "01 100>1 011>1 101>0 001>0"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_GOLDEN))
def test_sampling_matches_recorded_runs(name):
    p = sampled_kinds()[name]
    runs = tuple(_encode_run(*exec_sample(p, 3, 2, seed)) for seed in range(6))
    assert runs == SAMPLE_GOLDEN[name]


@pytest.mark.parametrize("name",
                         ["parallel-xor", "parallel", "ordered", "general", "mixture"])
def test_sampled_runs_obey_box_constraint_and_exact_support(name):
    p = sampled_kinds()[name]
    for x, y, law in input_laws(p):
        for seed in range(8):
            a, b, tr = exec_sample(p, x, y, derive_seed(seed, 4 * x + y))
            assert (a, b) in law.probs
            comp = p
            if isinstance(p, ProtocolMixture):
                assert tr[0]["kind"] == "shared-randomness"
                comp = p.components[tr[0]["component"]][1]
                tr = tr[1:]
            assert [ev["index"] for ev in tr] == list(range(comp.t))
            avec = bvec = 0
            for i, ev in enumerate(tr):
                (pi, qi), (ai, bi) = ev["in"], ev["out"]
                assert ai ^ bi == pi & qi
                avec |= ai << i
                bvec |= bi << i
            # the outputs are the ones the sampled outcomes determine
            if isinstance(comp, ParallelXorProtocol):
                assert (a, b) == (comp.local_a[x] ^ parity(avec),
                                  comp.local_b[y] ^ parity(bvec))
            else:
                assert (a, b) == (comp.out_a[x][avec], comp.out_b[y][bvec])


def test_nonsignaling_audit_rejects_non_box_protocols():
    for p in (ordered_to_ot(disj_det_protocol(2)), oneway_optimal(ip_table(1))):
        with pytest.raises(ProtocolError):
            nonsignaling_audit(p)


def test_audits_refuse_other_kinds():
    # each audit names the kind it was given instead of a verdict read
    # off another kind's tables, or a TypeError
    ot, oneway = ordered_to_ot(disj_det_protocol(1)), oneway_optimal(ip_table(1))
    gate = AndProtocol(1, 1, 1, ((0, 1),), ((0, 1),), ((0, 0), (0, 1)))
    assert privacy_audit_and(gate, and_table()) is None and privacy_audit_ot(ot) is None
    for p in (ot, oneway, ip_protocol(1)):
        with pytest.raises(ProtocolError, match=f"^{type(p).__name__} is not a secure-AND "):
            privacy_audit_and(p, and_table())
    for p in (gate, oneway, ip_protocol(1)):
        with pytest.raises(ProtocolError, match=f"^{type(p).__name__} is not an OT "):
            privacy_audit_ot(p)
        with pytest.raises(ProtocolError, match=f"^{type(p).__name__} is not an OT "):
            ot_received_distribution(p, 0, 0)


@pytest.mark.parametrize("kind", KINDS + ("nested",))
def test_engine_matches_scalar_oracle(kind):
    # seeded random protocols of every kind (mixtures of every kind, OT
    # with one to three weighted coins) on every input: exact laws,
    # received-bit laws in key order, error profiles and seeded runs equal
    # the scalar reference.  A mixture of two mixtures is refused; the
    # one-level mixture of their leaves, weights multiplied out and kinds
    # possibly mixed (built past the constructor's checks), is run instead
    rng = random.Random(f"oracle:{kind}")
    for _ in range(12):
        nx, ny, t = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
        if kind == "nested":
            pairs = tuple((w, random_protocol("mix", nx, ny, t, rng))
                          for w in (Fraction(1, 3), Fraction(2, 3)))
            with pytest.raises(ProtocolError, match="^invalid protocol: ProtocolMixture is not "
                               "a protocol kind; ProtocolMixture is not a protocol kind$"):
                ProtocolMixture(pairs)
            p = unchecked(ProtocolMixture, components=tuple(
                (w * v, c) for w, m in pairs for v, c in m.components))
        else:
            p = random_protocol(kind, nx, ny, t, rng)
        f = random_table(nx, ny, rng)
        for x, y, law in input_laws(p):
            assert law.probs == oracle_exec(p, x, y)
            if isinstance(p, OtProtocol):
                rec = ot_received_distribution(p, x, y)
                ref = oracle_ot_received(p, x, y)
                assert list(rec.items()) == list(ref.items())
            seeds = [rng.randrange(1 << 30) for _ in range(4)]
            for s in seeds:
                assert exec_sample(p, x, y, s) == oracle_sample(p, x, y, s)[0]
            assert sample_counts(p, x, y, seeds[0], 40) == oracle_counts(p, x, y, seeds[0], 40)
        assert error_profile(p, f).table == {
            (x, y): oracle_error(p, f, x, y)
            for x in range(1 << nx) for y in range(1 << ny)}


def test_wide_parallel_xor_runs_match_oracle():
    # the array parity of Alice's outcomes folds only the bits below 2^t;
    # from t = 63 on the outcomes leave int64
    rng = random.Random(31)
    for t in (5, 9, 17, 33, 62, 63, 64, 100):
        p = random_protocol("parallel-xor", 1, 1, t, rng)
        for seed in range(8):
            assert exec_sample(p, 1, 0, seed) == oracle_sample(p, 1, 0, seed)[0]
        assert sample_counts(p, 1, 0, t, 40) == oracle_counts(p, 1, 0, t, 40)


@pytest.mark.parametrize("name", sorted(sampled_kinds()))
def test_sample_counts_follow_one_stream_across_batches(name):
    # run i depends on (seed, i) alone: the batches of sample_counts give
    # the runs of one oracle draw, the runs past the first batch included,
    # and exec_sample is run 0
    p = sampled_kinds()[name]
    for n in (5, _BATCH + 5):
        assert sample_counts(p, 3, 2, 11, n) == oracle_counts(p, 3, 2, 11, n)
    assert exec_sample(p, 3, 2, 11) == oracle_sample(p, 3, 2, 11)[0]


@pytest.mark.parametrize("weights", [(Fraction(1, 3), Fraction(2, 3)),
                                     (Fraction(1, 6), Fraction(1, 4), Fraction(7, 12)),
                                     (1 - Fraction(1, 1 << 60), Fraction(1, 1 << 60))])
def test_draw_domain_maps_exactly_by_weight(monkeypatch, weights):
    # the mixture's draws r in [0, L) fed in directly: component k takes
    # exactly L * w_k of them.  The map is nondecreasing, so the ends of
    # each run of values give the count where L (2^60) is too large to list
    den = math.lcm(*(w.denominator for w in weights))
    sizes = [int(w * den) for w in weights]
    ends = np.cumsum([0] + sizes)
    r = np.arange(den) if den < 1 << 16 else np.concatenate([ends[:-1], ends[1:] - 1])
    monkeypatch.setattr(engine, "_below",
                        lambda _gen, n, m: r if n == den else np.zeros(m, np.int64))
    comp = np.full(len(r), -1)
    for path, _leaf, sel, _v in engine._sampler(
            ProtocolMixture(tuple((w, ip_protocol(1)) for w in weights)), 0)(len(r)):
        comp[sel] = path[0]
    if den < 1 << 16:
        assert Counter(comp.tolist()) == dict(enumerate(sizes))
    else:
        assert comp.tolist() == list(range(len(weights))) * 2


def test_sampling_a_mixture_whose_draw_passes_int64():
    # L = 3^41 > 2^63: the component draw stays in Python ints
    w = Fraction(1, 3 ** 41)
    p = unchecked(ProtocolMixture,
                  components=((w, ip_protocol(1)), (1 - w, random_ordered(1, 1, 2, RNG))))
    for seed in (0, 5):
        assert sample_counts(p, 1, 1, seed, 300) == oracle_counts(p, 1, 1, seed, 300)
        assert exec_sample(p, 1, 1, seed) == oracle_sample(p, 1, 1, seed)[0]


def test_sample_count_cap_is_checked_before_any_draw(monkeypatch):
    def no_draw(*_args, **_kw):
        raise AssertionError("drew samples past the cap")
    monkeypatch.setattr(engine, "_sampler", no_draw)
    with pytest.raises(ResourceLimitError, match="exceed"):
        sample_counts(ip_protocol(1), 0, 0, 1, _MAX_SAMPLES + 1)


def _signalling_ordered() -> OrderedNlbProtocol:
    """A one-box ordered protocol whose step tables hold 2s and 4s, so
    that box inputs land on bits 1 and 2 and Bob's outcomes leave [0, 2)
    on (x, y) = (3, 1) and (2, 2).  Well-formed protocols cannot signal
    (Bob's outcomes are a bijection of Alice's for every (x, y)), so
    only such tables, which the constructor refuses, make the oracle's
    branch enumeration fail; its loop order (y outer on Bob's side)
    decides the witness."""
    return unchecked(OrderedNlbProtocol, nx=2, ny=2, t=1,
                     step_a=(((0,), (0,), (4,), (2,)),), step_b=(((0,), (2,), (4,), (0,)),),
                     out_a=((0, 1),) * 4, out_b=((0, 1, 1, 0, 0, 1, 1, 0),) * 4)


def test_audit_failures_match_oracle_witness():
    # the oracle finds the signalling fixture's witness, alone and mixed,
    # so the property test against it is not vacuous; the constructor
    # refuses its tables, so no protocol that exists signals
    sig = _signalling_ordered()
    mix = ProtocolMixture(((Fraction(1, 3), sig),
                           (Fraction(2, 3), random_ordered(2, 2, 1, random.Random(3)))))
    for p in (sig, mix):
        bad = oracle_nonsignaling_audit(p)
        assert (bad.check, bad.detail, bad.witness) == (
            "nonsignaling", "Bob view depends on x", (1, 0, 3))
    with pytest.raises(ProtocolError, match="invalid protocol: .*stepA 0"):
        OrderedNlbProtocol(**vars(sig))
    for p in (leaky_ot(), random_protocol("ot", 2, 2, 3, random.Random(8))):
        bad, ref = privacy_audit_ot(p), oracle_privacy_audit_ot(p)
        assert bad == ref and str(bad) == str(ref)
        assert list(bad.witness[2].items()) == list(ref.witness[2].items())
    assert privacy_audit_ot(leaky_ot()).witness[:2] == (2, 1)


def _assert_profile_is_oracle(p, f):
    # row-major keys, each entry, the worst entry and exactness
    prof = error_profile(p, f)
    ref = {(x, y): oracle_error(p, f, x, y)
           for x in range(f.n_rows) for y in range(f.n_cols)}
    assert list(prof.table.items()) == list(ref.items())
    assert prof.worst == max(ref.values())
    assert prof.exact == (prof.worst == 0)
    return prof


def _flipped(f: TruthTable, x: int, y: int) -> TruthTable:
    return TruthTable(f.nx, f.ny, tuple(r ^ (x == k) << y for k, r in enumerate(f.rows)))


def test_error_profile_of_parallel_xor_matches_oracle():
    # nonzero locals on every shape, 1x3 and 3x1 among them, from no box
    # to boxes past int64; f random, then f the protocol's own parity
    rng = random.Random(41)
    for nx, ny in ((0, 0), (1, 1), (1, 3), (3, 1), (2, 2)):
        for t in (0, 1, 3, 64, 100):
            p = random_protocol("parallel-xor", nx, ny, t, rng)
            p = ParallelXorProtocol(nx, ny, t, p.pbox, p.qbox,
                                    (1, *p.local_a[1:]), (1, *p.local_b[1:]))
            _assert_profile_is_oracle(p, random_table(nx, ny, rng))
            zero = TruthTable(nx, ny, (0,) * (1 << nx))
            own = TruthTable(nx, ny, tuple(
                sum(int(oracle_error(p, zero, x, y)) << y for y in range(1 << ny))
                for x in range(1 << nx)))
            assert _assert_profile_is_oracle(p, own).exact


def test_exact_law_of_wide_parallel_xor_matches_oracle():
    # from t = 63 on the outcome keys are Python ints, which _tally sorts:
    # Alice's output is an unbiased bit and the parity is the oracle's
    rng = random.Random(64)
    zero = TruthTable(2, 2, (0,) * 4)
    for t in (63, 64, 100):
        p = random_protocol("parallel-xor", 2, 2, t, rng)
        # beside an ordered leaf, whose small keys are sorted with them
        o = random_ordered(2, 2, 2, rng)
        mix = unchecked(ProtocolMixture, components=((HALF, p), (HALF, o)))
        for (x, y, dist), (*_, mixed) in zip(input_laws(p), input_laws(mix)):
            assert dist.marginal_a() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
            assert dist.parity_prob(1) == oracle_error(p, zero, x, y)
            want = Counter()
            for law in (dist.probs, oracle_exec(o, x, y)):
                want.update({ab: q / 2 for ab, q in law.items()})
            assert mixed.probs == want


def test_error_profile_of_synthesized_6x6_matches_oracle():
    # exact on f; on f with one entry flipped, wrong there and only there
    rng = random.Random(66)
    for _ in range(2):
        f = random_table(6, 6, rng)
        for p in (synth_rank(f), synth_vandam(f)):
            assert p.t >= 60 and _assert_profile_is_oracle(p, f).exact
            x, y = rng.randrange(64), rng.randrange(64)
            prof = _assert_profile_is_oracle(p, _flipped(f, x, y))
            assert [k for k, e in prof.table.items() if e] == [(x, y)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_error_profile_of_disj_rand_matches_oracle(n):
    for flip in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1)):
        prof = _assert_profile_is_oracle(disj_rand_parallel(n, flip), disj_table(n))
        assert prof.worst == max(flip, (1 - flip) / 2)


def test_error_profile_of_nested_mixed_kinds_matches_oracle():
    # parallel-XOR leaves next to ordered and one-way leaves in one
    # mixture, with weights of unlike denominators; such mixtures are
    # built past the constructor's checks
    rng = random.Random(23)
    for _ in range(6):
        xor = [random_protocol("parallel-xor", 2, 1, 3, rng) for _ in range(2)]
        oneway = random_protocol("oneway", 2, 1, 2, rng)
        p = unchecked(ProtocolMixture, components=(
            (Fraction(1, 3), xor[1]), (Fraction(1, 6), random_ordered(2, 1, 2, rng)),
            (Fraction(1, 8), oneway), (Fraction(3, 8), xor[0])))
        _assert_profile_is_oracle(p, random_table(2, 1, rng))


@pytest.mark.parametrize("probs", [{}, {(0, 0): HALF}, {(0, 0): HALF, (1, 1): HALF, (0, 1): HALF},
                                   {(0, 0): Fraction(3, 2), (1, 1): -HALF}])
def test_outcome_distribution_refuses_an_invalid_law(probs):
    with pytest.raises(ValueError, match="^probabilities must be nonnegative and sum to 1$"):
        engine.OutcomeDistribution(probs)


def test_privacy_audit_and_rejects_domain_mismatch():
    p = and_from_oneway(oneway_optimal(and_table()))
    for f in (ip_table(2), TruthTable(1, 2, (0, 0)), TruthTable(2, 1, (0,) * 4)):
        with pytest.raises(ProtocolError, match="^domain mismatch$"):
            privacy_audit_and(p, f)


def test_error_profile_rejects_domain_mismatch():
    for p, f in ((ip_protocol(2), and_table()), (ip_protocol(1), ip_table(2)),
                 (disj_rand_parallel(2, Fraction(1, 3)), disj_table(3)),
                 (xor_as_parallel(ip_protocol(2)), ip_table(1))):
        with pytest.raises(ProtocolError, match="domain mismatch"):
            error_profile(p, f)


def _box_samples():
    """Valid box protocols: random ones of the four kinds, alone and
    mixed, then library and compiled ones."""
    rng = random.Random(5150)
    for kind in ("parallel-xor", "parallel", "ordered", "general"):
        for _ in range(10):
            nx, ny, t = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
            mix = [ProtocolMixture(tuple((w, random_protocol(kind, nx, ny, t, rng))
                                         for w in (Fraction(1, 5), Fraction(4, 5))))
                   for _ in range(2)]
            yield random_protocol(kind, nx, ny, t, rng)
            yield from mix
    for n in (1, 2, 3):
        yield disj_det_protocol(n)
    yield xor_normalize_general(disj_det_protocol(1))
    yield xor_normalize_general(random_protocol("general", 2, 1, 2, rng))
    yield oneway_to_parallel(oneway_optimal(ip_table(2)))
    yield oneway_to_parallel(random_protocol("oneway", 2, 2, 2, rng))


def test_valid_box_protocols_never_signal():
    # Bob's outcome vector is a bijection of Alice's for every (x, y), so
    # the oracle's branch enumeration finds no valid box protocol that
    # signals, and the audit, which runs none, passes each
    for p in _box_samples():
        assert validate(p) == []
        assert oracle_nonsignaling_audit(p) is None
        assert nonsignaling_audit(p) is None


def test_nonsignaling_audit_runs_no_branch(monkeypatch):
    # the verdict is the per-kind lemma, a protocol being valid once
    # built: no kernel, no batch of branches and so no branch limit,
    # whatever t is, and a protocol of no box kind is refused unrun
    samples = (disj_det_protocol(4), xor_as_parallel(ip_protocol(3)),
               random_protocol("general", 2, 2, 3, RNG),
               ProtocolMixture(((HALF, ip_protocol(2)), (HALF, ip_protocol(2)))))
    ot = ordered_to_ot(disj_det_protocol(3))

    def no_run(*_args):
        raise AssertionError("the audit ran branches")
    monkeypatch.setattr(engine, "_kernel", no_run)
    monkeypatch.setattr(engine, "_tally", no_run)
    monkeypatch.setenv("NLBOX_LIMIT_T", "1")
    for p in samples:
        assert nonsignaling_audit(p) is None
    with pytest.raises(ProtocolError, match="^OtProtocol is not a non-local-box protocol$"):
        nonsignaling_audit(ot)


def test_inputs_outside_the_domain_are_protocol_errors():
    # -1 would wrap to the last row and 2^n index past it: each exact or
    # sampled call on one pair refuses both, on either side
    for p in (ip_protocol(1), ordered_to_ot(disj_det_protocol(1)),
              unchecked(ProtocolMixture, components=(
                  (HALF, ip_protocol(2)), (HALF, xor_as_parallel(ip_protocol(2)))))):
        calls = [lambda x, y: exec_exact(p, x, y), lambda x, y: sample_counts(p, x, y, 1, 4),
                 lambda x, y: exec_sample(p, x, y, 1)]
        if isinstance(p, OtProtocol):
            calls.append(lambda x, y: ot_received_distribution(p, x, y))
        for call in calls:
            call((1 << p.nx) - 1, (1 << p.ny) - 1)
            for x, y in ((-1, 0), (0, -1), (1 << p.nx, 0), (0, 1 << p.ny)):
                with pytest.raises(ProtocolError, match="input outside"):
                    call(x, y)


def _only_rows(p, x: int, y: int):
    """p with every table row of an input other than x (Alice's tables)
    or y (Bob's) filled with 255, past the constructor's checks."""
    def keep(rows, k):
        out = np.full_like(rows, 255)
        out[k] = rows[k]
        return out
    a, b = (("in_a", "in_b") if isinstance(p, OtProtocol) else ("step_a", "step_b"))
    return unchecked(type(p), **{**vars(p), a: tuple(keep(tab, x) for tab in getattr(p, a)),
                                 b: tuple(keep(tab, y) for tab in getattr(p, b)),
                                 "out_a": keep(p.out_a, x), "out_b": keep(p.out_b, y)})


def test_one_pair_reads_only_its_rows():
    # a one-pair call reads the rows of x and y alone, so tables whose
    # other rows hold 255 give the same law
    rng = random.Random(12)
    for p in (random_ordered(2, 2, 3, rng), random_protocol("ot", 2, 2, 3, rng),
              ordered_to_ot(disj_det_protocol(2))):
        for x, y in ((0, 0), (3, 1), (2, 3)):
            assert exec_exact(_only_rows(p, x, y), x, y).probs == oracle_exec(p, x, y)


def test_chunked_batches_match_unchunked_and_oracles(monkeypatch):
    # a _BATCH of 8 runs a chunk holds one or two inputs below, so every
    # mixture leaf's runs are split between chunks (at least 8 of them);
    # 32 holds several whole inputs of each protocol below in one chunk
    # (and at least 2 chunks); the mixtures of two and three kinds are
    # built past the constructor's checks
    rng = random.Random(99)
    sig = _signalling_ordered()
    leaves = ((Fraction(1, 4), random_ordered(2, 2, 2, rng)),
              (Fraction(3, 4), random_protocol("general", 2, 2, 2, rng)))
    valid = unchecked(ProtocolMixture, components=leaves)
    mixed = unchecked(ProtocolMixture, components=(
        *((w / 2, c) for w, c in leaves),
        (Fraction(1, 2), random_protocol("oneway", 2, 2, 2, rng))))
    mix = ProtocolMixture(((Fraction(1, 3), sig), (Fraction(2, 3), random_ordered(2, 2, 1, rng))))
    ots = (leaky_ot(), random_protocol("ot", 2, 2, 3, rng), ordered_to_ot(random_ordered(2, 2, 2, rng)))
    f = random_table(2, 2, rng)
    pairs = [(i, j) for i in range(4) for j in range(4)]

    def results():
        return ([error_profile(p, f) for p in (valid, mixed, mix, *ots)],
                [privacy_audit_ot(p) for p in ots],
                [exec_exact(p, i, j) for p in (valid, mixed, mix, *ots) for i, j in pairs],
                [list(ot_received_distribution(p, i, j).items()) for p in ots for i, j in pairs])
    whole = results()
    x, y = np.divmod(np.arange(16), 4)
    for batch, least in ((8, 8), (32, 2)):
        monkeypatch.setattr(engine, "_BATCH", batch)
        for p in (valid, mixed, mix, *ots):
            rows = [len(laws) for _keys, laws
                    in _tally(_leaves(p), x, y, lambda _j, a, b, *_: a ^ b)[1]]
            assert len(rows) >= least and (batch == 8 or max(rows) > 1)
        assert results() == whole
    profiles, privacy, laws, receipts = whole
    for p, prof in zip((valid, mixed, mix, *ots), profiles):
        assert prof.table == {(i, j): oracle_error(p, f, i, j) for i in range(4) for j in range(4)}
    assert [d.probs for d in laws] == [oracle_exec(p, i, j) for p in (valid, mixed, mix, *ots)
                                       for i, j in pairs]
    assert receipts == [list(oracle_ot_received(p, i, j).items()) for p in ots for i, j in pairs]
    assert privacy == [oracle_privacy_ot(p) for p in ots] and privacy[0].witness[:2] == (2, 1)


_TALLIED = ("parallel-xor", "parallel", "ordered", "general", "oneway", "twoway", "and", "ot")


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_grid_tally_matches_oracles(rng):
    # one protocol of a tallied kind, or a mixture of one to three of
    # any kinds whose t differ (from 0 on), built past the constructor's
    # checks: the laws on the whole grid and on given pairs, the error
    # table, and for OT the audit and the receipts, in first-receipt order
    nx, ny = rng.randint(0, 2), rng.randint(0, 2)
    leaves = [random_protocol(rng.choice(_TALLIED), nx, ny, rng.randint(0, 3), rng)
              for _ in range(rng.randint(1, 3))]
    weights = [rng.randint(1, 5) for _ in leaves]
    p = leaves[0] if len(leaves) == 1 else unchecked(ProtocolMixture, components=tuple(
        (Fraction(w, sum(weights)), c) for w, c in zip(weights, leaves)))
    pairs = [divmod(k, 1 << ny) for k in range(1 << (nx + ny))]
    assert [d.probs for d in exact_laws(p)] == [oracle_exec(p, x, y) for x, y in pairs]
    some = [rng.choice(pairs) for _ in range(rng.randint(1, 6))]
    xs, ys = zip(*some)
    assert [d.probs for d in exact_laws(p, xs, ys)] == [oracle_exec(p, x, y) for x, y in some]
    f = random_table(nx, ny, rng)
    assert error_profile(p, f).table == {(x, y): oracle_error(p, f, x, y) for x, y in pairs}
    if isinstance(p, OtProtocol):
        assert privacy_audit_ot(p) == oracle_privacy_ot(p)
        for x, y in pairs:
            assert (list(ot_received_distribution(p, x, y).items())
                    == list(oracle_ot_received(p, x, y).items()))


def test_exact_laws_refuses_pairs_it_cannot_read():
    p = ip_protocol(1)
    assert exact_laws(p, [], []) == []
    for x, y in (([0, 1], [0]), ([[0]], [[0]]), ([0.5], [0]), ([True], [0])):
        with pytest.raises(ProtocolError, match="integer sequences of one length"):
            exact_laws(p, x, y)
    with pytest.raises(ProtocolError, match="input outside"):
        exact_laws(p, [0, 2], [1, 1])


def test_ordered_grid_matches_the_sampled_path():
    # the grid doubles Bob's outcome prefixes over every u at once; the
    # sampler's path, one run per u, gives the same outputs at each u
    rng = random.Random(31)
    for p in (random_ordered(2, 1, 0, rng), random_ordered(2, 1, 1, rng),
              random_ordered(1, 2, 5, rng), disj_det_protocol(3)):
        run, n = engine._kernel(p), 1 << p.t
        x, y = np.divmod(np.arange(1 << (p.nx + p.ny)), 1 << p.ny)
        grid = run(x[:, None], y[:, None], np.arange(n)[None])
        u = np.array([rng.randrange(n) for _ in x])
        for g, one in zip(grid, run(x, y, u)):
            assert g.shape == (len(x), n) and (g[np.arange(len(x)), u] == one).all()
