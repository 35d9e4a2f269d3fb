"""Compilers: synthesis, communication-to-box, reduction/normalization,
distributed circuits, and the OT / secure-AND bridges.

Behavioral claims are checked with the exact engine or with the
brute-force oracle in tests/util.py, never with the compiler's own
bookkeeping.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from nlbox import compilers, gf2
from nlbox.compilers import (DistributedCircuit, InputWire, and_from_oneway,
                             circuit_to_nlb, d_oneway, independence_reduce,
                             oneway_from_and, oneway_optimal,
                             oneway_to_parallel, ordered_to_ot,
                             parallel_exact_function, synth_rank,
                             synth_vandam, twoway_to_parallel,
                             xor_normalize_general, xor_normalize_parallel)
from nlbox.engine import ProtocolError, error_profile, privacy_audit_and, privacy_audit_ot
from nlbox.library import disj_circuit
from nlbox.protocols import OneWayProtocol, ParallelProtocol, validate
from nlbox.serialize import serialize
from nlbox.truthtable import (TruthTable, and_table, disj_table, ip_table,
                              xor_table)
from util import (input_laws, obfuscate, oracle_circuit_to_nlb, oracle_ordered_to_ot,
                  oracle_parallel_exact_function, parity,
                  random_general, random_ordered, random_protocol, random_table,
                  random_tree, xor_as_ordered, xor_as_parallel)

RNG = random.Random(31337)


# --- synthesis ---


def test_synth_rank_box_count_and_exactness():
    for _ in range(100):
        f = random_table(2, 2, RNG)
        p = synth_rank(f)
        assert p.strict
        assert p.t == gf2.gf2_rank(f)
        assert error_profile(p, f).exact


def test_synth_vandam_box_count_and_exactness():
    for _ in range(50):
        f = random_table(2, 2, RNG)
        p = synth_vandam(f)
        assert p.t == sum(1 for r in f.rows if r)
        assert error_profile(p, f).exact


def test_synth_rank_never_beats_wider_vandam():
    for f in (and_table(), xor_table(), ip_table(2), disj_table(2)):
        assert synth_rank(f).t <= synth_vandam(f).t


# --- one-way and two-way communication to boxes ---


def test_oneway_to_parallel_exact_with_exponential_boxes():
    for f in (and_table(), ip_table(2), disj_table(2), random_table(2, 2, RNG)):
        ow = oneway_optimal(f)
        p = oneway_to_parallel(ow)
        assert p.t == (1 << ow.t) - 1
        assert error_profile(p, f).exact


def test_oneway_to_parallel_relabels_unused_zero_message():
    # three row classes force t=2 with message 3 unused; XOR-ing every
    # message with 3 leaves message 0 unused instead
    f = TruthTable(2, 2, (0, 0b1010, 0b1100, 0))
    ow = oneway_optimal(f)
    assert 0 in set(ow.msg) and max(ow.msg) < 3
    shifted = OneWayProtocol(
        ow.nx, ow.ny, ow.t, tuple(m ^ 3 for m in ow.msg), ow.out_a,
        tuple(ow.out_b[m ^ 3] for m in range(1 << ow.t)))
    assert 0 not in set(shifted.msg)
    p = oneway_to_parallel(shifted)
    assert p.t == (1 << ow.t) - 1
    assert error_profile(p, f).exact


def test_twoway_compiler_exact_on_every_branch():
    # the compiled protocol is a strict XOR protocol, so its output
    # parity on EVERY box-outcome branch is local_a ^ local_b ^ XOR of
    # box input products; comparing that closed form with the tree's
    # value checks all branches at once
    for _ in range(40):
        t = RNG.randrange(1, 5)
        tree = random_tree(3, 3, t, RNG)
        p = twoway_to_parallel(tree)
        assert p.t <= (1 << t) - 1
        for x in range(8):
            for y in range(8):
                a, b = tree.evaluate(x, y)
                shift = 0
                for i in range(p.t):
                    shift ^= p.pbox[i][x] & p.qbox[i][y]
                assert p.local_a[x] ^ p.local_b[y] ^ shift == a ^ b


def test_twoway_compiler_distribution_spot_check():
    tree = random_tree(2, 2, 2, RNG)
    p = twoway_to_parallel(tree)
    for x, y, dist in input_laws(p):
        a, b = tree.evaluate(x, y)
        assert dist.parity_prob(a ^ b) == 1


def test_twoway_compiler_rejects_deep_or_malformed_trees():
    deep = random_tree(1, 1, 9, RNG)
    with pytest.raises(ProtocolError):
        twoway_to_parallel(deep)
    tree = random_tree(1, 1, 2, RNG)
    with pytest.raises(ProtocolError, match="outA"):
        type(tree)(tree.nx, tree.ny, tree.t, tree.direction, tree.bit, tree.out_a[:-1],
                   tree.out_b)


# --- independence reduction and XOR normalization ---


def test_independence_reduce_removes_duplicate_boxes():
    base = synth_rank(ip_table(2))
    dup = obfuscate(xor_as_parallel(base), RNG)
    red = independence_reduce(dup)
    assert red.t <= base.t
    f = ip_table(2)
    for x, y, dist in input_laws(red):
        assert dist.parity_prob(f.entry(x, y)) == 1


def test_independence_reduce_drops_dead_boxes():
    base = xor_as_parallel(synth_rank(and_table()))
    # append a box whose Alice input is identically zero
    dead = ParallelProtocol(
        base.nx, base.ny, base.t + 1,
        (*base.pbox, (0, 0)), (*base.qbox, (1, 1)),
        tuple(tuple(row[u & ((1 << base.t) - 1)] for u in range(1 << (base.t + 1)))
              for row in base.out_a),
        tuple(tuple(row[u & ((1 << base.t) - 1)] for u in range(1 << (base.t + 1)))
              for row in base.out_b))
    red = independence_reduce(dead)
    assert red.t == base.t
    assert error_profile(red, and_table()).exact


def test_independence_reduce_requires_deterministic_parity():
    coin = ParallelProtocol(0, 0, 1, ((1,),), ((0,),),
                            ((0, 1),), ((0, 0),))
    with pytest.raises(ProtocolError):
        independence_reduce(coin)


def test_xor_normalize_parallel_on_obfuscated_protocols():
    for _ in range(60):
        f = random_table(2, 2, RNG)
        src = obfuscate(xor_as_parallel(synth_rank(f)), RNG)
        norm = xor_normalize_parallel(src)
        assert norm.strict
        assert norm.t <= src.t + 2
        assert error_profile(norm, f).exact


def test_xor_normalize_parallel_rejects_non_exact():
    coin = ParallelProtocol(0, 0, 1, ((1,),), ((0,),),
                            ((0, 1),), ((0, 0),))
    with pytest.raises(ProtocolError, match="claims violated"):
        xor_normalize_parallel(coin)


def test_parallel_exact_function_matches_loop_oracle():
    # random parallel protocols, whose parity mostly varies (None), next to
    # obfuscated exact ones, on every shape up to 2x2 input bits
    rng = random.Random(404)
    kinds = set()
    for _ in range(80):
        nx, ny, t = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 4)
        exact = obfuscate(xor_as_parallel(synth_rank(random_table(nx, ny, rng))), rng)
        for p in (random_protocol("parallel", nx, ny, t, rng), exact):
            got = parallel_exact_function(p)
            assert got == oracle_parallel_exact_function(p)
            kinds.add(got is None)
    assert kinds == {True, False}


def test_xor_normalize_parallel_checks_parity_once(monkeypatch):
    calls = []
    errors = compilers._errors
    monkeypatch.setattr(compilers, "_errors", lambda *a: calls.append(a) or errors(*a))
    src = obfuscate(xor_as_parallel(synth_rank(ip_table(2))), random.Random(9))
    assert xor_normalize_parallel(src).strict and len(calls) == 1
    coin = ParallelProtocol(0, 0, 1, ((1,),), ((0,),), ((0, 1),), ((0, 0),))
    with pytest.raises(ProtocolError) as exc:
        xor_normalize_parallel(coin)
    assert str(exc.value) == "claims violated: protocol parity is not deterministic"
    assert len(calls) == 2


def test_xor_normalize_general_preserves_parity_distribution():
    for _ in range(20):
        t = RNG.randrange(1, 4)
        for p in (random_ordered(2, 2, t, RNG), random_general(2, 2, t, RNG)):
            norm = xor_normalize_general(p)
            assert type(norm) is type(p) and norm.t == p.t + 2
            assert validate(norm) == []
            assert ([d.parity_prob(1) for *_, d in input_laws(norm)]
                    == [d.parity_prob(1) for *_, d in input_laws(p)])
            # outputs are pure parities of all outcomes
            assert all(row[u] == parity(u) for row in (*norm.out_a, *norm.out_b)
                       for u in range(1 << norm.t))


@pytest.mark.parametrize("p", [xor_as_parallel(synth_rank(and_table())),
                               synth_rank(and_table())])
def test_xor_normalize_general_refuses_parallel_protocols(p):
    with pytest.raises(ProtocolError,
                       match="^XOR normalization applies to ordered or general protocols$"):
        xor_normalize_general(p)


def test_xor_normalize_general_handles_general_schedules():
    from nlbox.protocols import GeneralNlbProtocol
    ordered = xor_as_ordered(synth_rank(ip_table(2)))
    g = GeneralNlbProtocol(ordered.nx, ordered.ny, ordered.t,
                           (1, 0), ordered.step_a, (0, 1), ordered.step_b,
                           ordered.out_a, ordered.out_b)
    norm = xor_normalize_general(g)
    assert validate(norm) == []
    assert ([d.parity_prob(1) for *_, d in input_laws(norm)]
            == [d.parity_prob(1) for *_, d in input_laws(g)])


# --- distributed circuits ---


def _circuit_value(c: DistributedCircuit, x: int, y: int) -> int:
    vals = []
    for w in c.inputs:
        a = (x >> w.a_bit) & 1 if w.a_bit is not None else 0
        b = (y >> w.b_bit) & 1 if w.b_bit is not None else 0
        vals.append(a ^ b)
    for gate in c.gates:
        if gate[0] == "not":
            vals.append(vals[gate[1]] ^ 1)
        elif gate[0] == "xor":
            vals.append(vals[gate[1]] ^ vals[gate[2]])
        elif gate[0] == "and":
            vals.append(vals[gate[1]] & vals[gate[2]])
        else:
            vals.append(vals[gate[1]] | vals[gate[2]])
    return vals[c.output]


def _random_circuit(nx: int, ny: int, n_gates: int,
                    rng: random.Random) -> DistributedCircuit:
    inputs = tuple(InputWire(i, None) for i in range(nx)) \
        + tuple(InputWire(None, i) for i in range(ny)) \
        + (InputWire(0, 0),)
    gates = []
    n = len(inputs)
    for _ in range(n_gates):
        op = rng.choice(["and", "or", "xor", "not"])
        if op == "not":
            gates.append(("not", rng.randrange(n + len(gates))))
        else:
            gates.append((op, rng.randrange(n + len(gates)),
                          rng.randrange(n + len(gates))))
    return DistributedCircuit(nx, ny, inputs, tuple(gates),
                              n + len(gates) - 1 if gates else 0)


def test_circuit_compiler_exact_on_random_circuits():
    for _ in range(30):
        c = _random_circuit(2, 2, RNG.randrange(1, 6), RNG)
        p = circuit_to_nlb(c)
        assert validate(p) == []
        for x, y, dist in input_laws(p):
            assert dist.parity_prob(_circuit_value(c, x, y)) == 1


def test_circuit_compiler_box_accounting_for_disjointness():
    # leaf AND gates touch one-sided inputs, so one of each pair of
    # cross boxes has an identically-zero product and is elided:
    # n leaves cost 1 box each, the n-1 OR nodes cost 2 each
    for n in range(1, 5):
        p = circuit_to_nlb(disj_circuit(n))
        assert p.t == 3 * n - 2
        assert error_profile(p, disj_table(n)).exact


def test_circuit_compiler_rejects_unknown_gate():
    with pytest.raises(ProtocolError):
        circuit_to_nlb(DistributedCircuit(1, 1, (InputWire(0, 0),),
                                          (("nand", 0, 0),), 1))


def test_circuit_rejects_negative_width():
    for nx, ny, name in ((-1, 1, "nx=-1"), (1, -3, "ny=-3")):
        with pytest.raises(ProtocolError, match=f"negative input width {name}"):
            DistributedCircuit(nx, ny, (InputWire(None, None),), (), 0)


def _chain(k: int, mixed: bool = False) -> DistributedCircuit:
    """x_0 XOR y_0, then k gates each reading the wire before: "and w w"
    (two boxes each), alternating with "or w 2" when mixed."""
    gates = [("xor", 0, 1)] + [("or", 2 + j, 2) if mixed and j % 2 else
                               ("and", 2 + j, 2 + j) for j in range(k)]
    return DistributedCircuit(1, 1, (InputWire(0, None), InputWire(None, 0)),
                              tuple(gates), 2 + k)


def _obfuscated(rng: random.Random) -> ParallelProtocol:
    """A random parallel-XOR protocol, local terms included, as a parallel
    protocol with one or two redundant boxes folded into its outputs."""
    p = random_protocol("parallel-xor", rng.randrange(1, 3), rng.randrange(1, 3),
                        rng.randrange(1, 4), rng)
    p = obfuscate(xor_as_parallel(p), rng)
    return obfuscate(p, rng) if rng.randrange(2) else p


def _golden_outputs() -> dict:
    """Compiler outputs by family: the circuits above through
    circuit_to_nlb, then seeded inputs of the other compilers."""
    rng = random.Random(4242)
    circuits = {
        "disj": [disj_circuit(n) for n in range(1, 5)],
        "random": [_random_circuit(rng.randrange(1, 4), rng.randrange(1, 4),
                                   rng.randrange(1, 13), rng) for _ in range(40)],
        "and-chain": [_chain(k) for k in range(1, 7)],
        "mixed-chain": [_chain(k, mixed=True) for k in range(1, 7)],
    }
    out = {name: map(circuit_to_nlb, cs) for name, cs in circuits.items()}
    rng = random.Random(5151)
    out["normalize-ordered"] = map(xor_normalize_general, [
        random_ordered(rng.randrange(3), rng.randrange(3), rng.randrange(5), rng)
        for _ in range(16)])
    out["normalize-general"] = map(xor_normalize_general, [
        random_general(rng.randrange(3), rng.randrange(3), rng.randrange(5), rng)
        for _ in range(16)])
    out["normalize-chain"] = map(xor_normalize_general, [circuit_to_nlb(_chain(9))])
    out["twoway"] = map(twoway_to_parallel, [
        random_tree(rng.randrange(3), rng.randrange(3), rng.randrange(6), rng)
        for _ in range(24)])
    obfuscated = [_obfuscated(rng) for _ in range(24)]
    out["reduce"] = map(independence_reduce, obfuscated)
    out["normalize-parallel"] = map(xor_normalize_parallel, obfuscated)
    return out


# first 16 hex digits of the sha256 of serialize(...) for the outputs above;
# the circuit families recorded from the closure compiler
# (oracle_circuit_to_nlb), the others from the entry-by-entry compilers
# that the array and per-side ones replaced
COMPILER_GOLDEN = {
    "disj": ["091c3491747ba095", "9257f0b722df3d79", "59785a7dcb6e8748",
             "dfb89e88a21b598c"],
    "random": [
        "a445a3787dfd7823", "3550d899b235adc4", "fbcfd148c103f900", "cfe036772eac413d",
        "a0ec6d80a476df0d", "6fa54b8a4dd9166c", "c810433580438958", "bad7b944df67be85",
        "acc3861c43b6ee8d", "6e31aee8efdd21ea", "1c9d26fb557f2b91", "caf4e0a984d5259b",
        "9fdbd294e0b195a4", "90eccd1ef6208ac8", "8a84a52682de3652", "53fed030d135f87c",
        "5ac50dbe24c0a114", "56a5a40cf8a48f52", "a1844b5226322560", "1793ccb42d6af549",
        "8af5cb81ffddb781", "63e68d5295f5686d", "faeed3875f5c9b9b", "d3b2b49541a35787",
        "0a34daf4938489e9", "4f20cbc24503d53e", "5cc8221bd38e205e", "12d190fa400f3a31",
        "74c459c658568814", "5aed228bf8e189ef", "493f784e70a1e6e9", "dd375d0ca46dbf62",
        "d535a5c94fc45ce8", "7b8247455b8524e4", "70095b373c3b0178", "eacaf399e5001a12",
        "47055a40991cf637", "7feb460e6355ba0c", "16da9301ccb1b419", "0c2dec02724d3543"],
    "and-chain": ["b7964136a51747cb", "113afebb53e3a755", "14a7260686314474",
                  "32fdf7565818ce4e", "a059d44d093156e8", "d56cde4f7149b7f7"],
    "mixed-chain": ["b7964136a51747cb", "9cd2dc8a8f8fd5d1", "5fa537d1caca3818",
                    "5b7107aabec0bd8a", "93b899a79740a587", "b3d5f621e7cc6bac"],
    "normalize-ordered": [
        "6e0c5eac0494a62e", "baa7bfb490288042", "8ae90f6091811cc5", "1f70f750f6a28eb0",
        "6d6a693be8a6e9f3", "b34a2567dbaa431a", "6c0c955237070d8e", "b7e956dcae815b6e",
        "980ae37d218fa656", "0b40ef6280bbbc9d", "b69b7369a0768c84", "e9ae4e6f25855b5b",
        "43f4ed0e391607e6", "7cc193790cd50969", "4324cf102969e15f", "8df1ed7c6e4bb544"],
    "normalize-general": [
        "6566a4e867b63253", "466ad882d6c6a92b", "46e095c72710ea1a", "37673adc7e1fbf66",
        "4128dd79b3536337", "bd8a7b800aa424f3", "0d8797d3bfa1caa9", "2fb14aee908c0551",
        "050c1d9b125b4186", "e08f69186c80d998", "97054cda124b6b84", "bc11a5dcfde8c74f",
        "7c1615b13d89ed1e", "45398d04dd1c04bb", "50941b6545d376f7", "50bfedf145f4c5cf"],
    "normalize-chain": ["6424b92120381486"],
    "twoway": [
        "b553bab9ea6775ff", "3e902f794058d49a", "760f1f863e417cd3", "63b65d9e988db18a",
        "aaf3e8ed9cc8f63b", "c57be1edb49f892d", "c219a0dae1c00eee", "4e42be6032f320c6",
        "b7a182e57ee5ec7d", "9cbb6b93e2312846", "834229ba7563a7b0", "b46769dc154afa22",
        "d6f1ec4898daeca8", "496137f31309dee8", "5bbf66ec7acc742c", "64d4aed3557c761a",
        "126c3d283ad063da", "00f70e12743b7624", "64e73686a28717af", "88822a46f93637a9",
        "28b416d1198e899e", "6ec14596e2b74582", "a356b8366044587b", "20b2331654d3af0d"],
    "reduce": [
        "b113f32c9baec40f", "e0daceceb74e077f", "4b0825078635c43e", "191acbb46ce02ff1",
        "b53e3dc7f2f1d5ca", "ddeef838665f3d69", "75692fe54942b5d6", "d716d9b3cb887ed7",
        "820b17686b4c8743", "db580fcd27f831ab", "d27821dc2e2269d2", "450031b6a3422bc5",
        "4abd7c674f3d357f", "a865b130c136b812", "8e9038a632e534aa", "9756b69088f4d877",
        "95a2ac5923aaf12c", "362ce5e0f9843f19", "2b1b059b493f8a52", "0e689740aa25a2bd",
        "b2126ac4645fb434", "004f957a3a668b22", "1abd43f9747d0aea", "dd3bcca5a7105aff"],
    "normalize-parallel": [
        "e0cbafa50e685aca", "d3ee64ef343643ef", "a335ad58fe338160", "27121812420a001e",
        "2472392549fea10e", "d851e19f8a872d3c", "3d47ea702728c04e", "052c5cda84c7f042",
        "32984738beb429d1", "987e2689b97d2413", "8fca2db84c477c8c", "3d4e1c54f54c5f5b",
        "db6ad88efef88440", "a4439301063dce96", "4e980fdd44f5db23", "4ab52fafc017c271",
        "f409224d9871a03f", "a15c40ce23704acf", "a4dc7e68d4e72086", "05efcc1ba6dea882",
        "cc528aba1243ace5", "e9430fbe1efbb678", "e542150760733d79", "93d7c6e44133f4e2"],
}


def test_circuit_compiler_output_is_pinned(monkeypatch):
    # the normalized 9-gate chain has tables of 2^(1 + 18 + 2) cells
    monkeypatch.setenv("NLBOX_LIMIT_T", "21")
    for family, outputs in _golden_outputs().items():
        got = [hashlib.sha256(serialize(p).encode()).hexdigest()[:16] for p in outputs]
        assert got == COMPILER_GOLDEN[family], family


def test_circuit_compiler_matches_closure_oracle():
    rng = random.Random(2718)
    circuits = [_chain(k, mixed) for k in range(7) for mixed in (False, True)]
    circuits += [_random_circuit(rng.randrange(1, 4), rng.randrange(1, 4),
                                 rng.randrange(1, 15), rng) for _ in range(80)]
    compared = 0
    for c in circuits:
        p = circuit_to_nlb(c)
        if p.t <= 12:
            assert p == oracle_circuit_to_nlb(c)
            compared += 1
    assert compared >= 80


def test_circuit_compiler_deep_chain_is_exact():
    # 9 chained gates, 18 boxes: the closure compiler took minutes here
    c = _chain(9)
    p = circuit_to_nlb(c)
    assert p.t == 18 and validate(p) == []
    for x, y, dist in input_laws(p):
        assert dist.parity_prob(_circuit_value(c, x, y)) == 1


# --- ordered-to-OT bridge ---


def test_ordered_to_ot_preserves_joint_distribution():
    sources = [xor_as_ordered(synth_rank(ip_table(2))),
               circuit_to_nlb(disj_circuit(2))]
    for src in sources:
        ot = ordered_to_ot(src)
        assert validate(ot) == []
        assert ot.t == src.t
        assert input_laws(ot) == input_laws(src)
        assert privacy_audit_ot(ot) is None


def test_ordered_to_ot_matches_loop_oracle():
    rng = random.Random(161)
    sources = [random_ordered(rng.randrange(3), rng.randrange(3), t, rng)
               for t in (0, 0, 1, 2, 3, 4, 5) for _ in range(4)]
    sources += [xor_normalize_general(random_ordered(1, 2, t, rng)) for t in range(4)]
    sources += [circuit_to_nlb(_chain(3, mixed=True))]
    for src in sources:
        assert ordered_to_ot(src) == oracle_ordered_to_ot(src)


def test_ordered_to_ot_rejects_other_kinds():
    with pytest.raises(ProtocolError):
        ordered_to_ot(synth_rank(ip_table(1)))


# --- secure AND bridges ---


def test_and_from_oneway_gate_count_correctness_privacy():
    for _ in range(50):
        f = random_table(2, 2, RNG)
        ow = oneway_optimal(f)
        ap = and_from_oneway(ow)
        assert ap.t == 1 << ow.t
        assert privacy_audit_and(ap, f) is None


def test_oneway_from_and_roundtrip_bit_bound():
    for _ in range(50):
        f = random_table(2, 2, RNG)
        ap = and_from_oneway(oneway_optimal(f))
        back = oneway_from_and(ap, f)
        assert validate(back) == []
        # message length: ceil(log2 of the gate count)
        assert back.t <= max(1, (ap.t - 1)).bit_length()
        for x, y, dist in input_laws(back):
            (a, b), = dist.probs
            assert a ^ b == f.entry(x, y)


def test_oneway_from_and_constant_function():
    f = TruthTable(1, 1, (0, 0))
    ap = and_from_oneway(oneway_optimal(f))
    back = oneway_from_and(ap, f)
    for _x, _y, dist in input_laws(back):
        (a, b), = dist.probs
        assert a ^ b == 0


def test_oneway_from_and_rejects_leaky_protocol():
    from nlbox.protocols import AndProtocol
    leaky = AndProtocol(1, 1, 2, ((1, 1), (1, 1)), ((0, 1), (0, 1)),
                        ((0, 0, 0, 0), (0, 0, 0, 1)))
    with pytest.raises(ProtocolError, match="not private"):
        oneway_from_and(leaky, and_table())


# --- communication measure ---


def test_d_oneway_values():
    assert d_oneway(TruthTable(1, 1, (0, 0))) == 0       # constant
    assert d_oneway(xor_table()) == 0                    # rows complementary
    assert d_oneway(and_table()) == 1
    assert d_oneway(ip_table(2)) == 2                    # 4 classes -> 2 bits
    assert d_oneway(and_table(), parity=False) == 1
    assert d_oneway(xor_table(), parity=False) == 1


def test_oneway_optimal_is_optimal_and_correct():
    for _ in range(50):
        f = random_table(2, 2, RNG)
        ow = oneway_optimal(f)
        assert validate(ow) == []
        assert ow.t == d_oneway(f)
        for x, y, dist in input_laws(ow):
            (a, b), = dist.probs
            assert a ^ b == f.entry(x, y)
