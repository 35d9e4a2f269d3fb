"""Exact and sampled execution of protocols, plus auditors.

The exact engine enumerates shared randomness, Alice-private
randomness, and box-outcome branches with rational probabilities, so
every distributional claim can be asserted as an equality.  Monte Carlo
sampling is the only floating-point surface and derives per-trial seeds
from a cryptographic hash of (master seed, trial index).

Box semantics: each box outcome pair satisfies a XOR b = p AND q with
the first-touched side's outcome a fresh unbiased bit.  Taking Alice's
outcomes as the free uniform bits and forcing Bob's realizes the same
joint law for every interleaving of the two schedules, because the XOR
constraint is symmetric.  So a run of a non-local-box protocol on (x, y)
is a function of one integer u, Alice's outcomes packed in box-label
order, and ``_kernel(p, x, y)`` is that function for each of the four
box kinds: u -> (a, b, bvec, pin, qin), the two outputs, Bob's outcomes
and each side's box inputs, all packed in label order.  The exact law,
seeded sampling and the non-signaling audit's views all derive from it.
The Bob-first sweep of ``exec_exact_ordered_sweep`` does not: it is the
independent reference that the evaluation-order invariance test checks
the kernel against.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .protocols import (NLB_KINDS, AndProtocol, GeneralNlbProtocol,
                        OneWayProtocol, OrderedNlbProtocol, OtProtocol,
                        ParallelProtocol, ParallelXorProtocol,
                        ProtocolMixture, Protocol, TwoWayTree, validate)
from .truthtable import TruthTable

DEFAULT_LIMIT_T = 20


class ResourceLimitError(RuntimeError):
    pass


class ProtocolError(ValueError):
    pass


def _limit_t() -> int:
    return int(os.environ.get("NLBOX_LIMIT_T", DEFAULT_LIMIT_T))


def _check_limit(t: int) -> None:
    if t > _limit_t():
        raise ResourceLimitError(
            f"2^{t} branch enumeration exceeds the t<={_limit_t()} limit")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact joint distribution of the two players' output bits."""

    probs: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        total = sum(self.probs.values(), Fraction(0))
        if total != 1 or any(p < 0 for p in self.probs.values()):
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def parity_prob(self, bit: int) -> Fraction:
        return sum((p for (a, b), p in self.probs.items() if (a ^ b) == bit),
                   Fraction(0))

    def marginal_a(self) -> dict[int, Fraction]:
        out = {0: Fraction(0), 1: Fraction(0)}
        for (a, _b), p in self.probs.items():
            out[a] += p
        return out

    def marginal_b(self) -> dict[int, Fraction]:
        out = {0: Fraction(0), 1: Fraction(0)}
        for (_a, b), p in self.probs.items():
            out[b] += p
        return out


def _dist(pairs) -> OutcomeDistribution:
    probs: dict[tuple[int, int], Fraction] = {}
    for (a, b), p in pairs:
        if p:
            probs[(a, b)] = probs.get((a, b), Fraction(0)) + p
    return OutcomeDistribution(probs)


def _xor_shift(p: ParallelXorProtocol | ParallelProtocol | AndProtocol,
               x: int, y: int) -> int:
    """Packed p_i(x) AND q_i(y) in one pass, for the closed forms."""
    s = 0
    for i in range(p.t):
        s |= (p.pbox[i][x] & p.qbox[i][y]) << i
    return s


def _packed(tables, v: int) -> int:
    """Entry v of each per-box table, packed with box i at bit i."""
    s = 0
    for i, tab in enumerate(tables):
        s |= tab[v] << i
    return s


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _kernel(p, x: int, y: int):
    """The run of a box protocol on (x, y) as a function of Alice's
    outcomes u: u -> (a, b, bvec, pin, qin), where Bob's outcomes are
    bvec = u ^ (pin & qin)."""
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol)):
        pin, qin = _packed(p.pbox, x), _packed(p.qbox, y)
        shift = pin & qin
        if isinstance(p, ParallelXorProtocol):
            la, lb = p.local_a[x], p.local_b[y]
            return lambda u: (la ^ _parity(u), lb ^ _parity(u ^ shift),
                              u ^ shift, pin, qin)
        oa, ob = p.out_a[x], p.out_b[y]
        return lambda u: (oa[u], ob[u ^ shift], u ^ shift, pin, qin)
    if isinstance(p, OrderedNlbProtocol):
        sa = [step[x] for step in p.step_a]
        sb = [step[y] for step in p.step_b]
        oa, ob = p.out_a[x], p.out_b[y]

        def run_ordered(u):
            # step i reads the first i outcomes of its own side
            pin = qin = 0
            for i in range(p.t):
                mask = (1 << i) - 1
                pin |= sa[i][u & mask] << i
                qin |= sb[i][(u ^ (pin & qin)) & mask] << i
            bvec = u ^ (pin & qin)
            return oa[u], ob[bvec], bvec, pin, qin
        return run_ordered
    if isinstance(p, GeneralNlbProtocol):
        oa, ob = p.out_a[x], p.out_b[y]

        def run_general(u):
            # each side reads its outcomes so far in its own touch order;
            # Alice's inputs depend on u alone, so hers come first
            pin = obs = 0
            for pos, label in enumerate(p.sched_a):
                pin |= p.step_a[pos][x][obs] << label
                obs |= ((u >> label) & 1) << pos
            qin = obs = 0
            for pos, label in enumerate(p.sched_b):
                q = p.step_b[pos][y][obs]
                qin |= q << label
                bit = ((u >> label) & 1) ^ ((pin >> label) & q)
                obs |= bit << pos
            bvec = u ^ (pin & qin)
            return oa[u], ob[bvec], bvec, pin, qin
        return run_general
    raise ProtocolError(f"{type(p).__name__} is not a non-local-box protocol")


def _mix(p: ProtocolMixture, law) -> dict:
    """Weighted sum over the components of the laws law(component)."""
    acc: dict = {}
    for w, comp in p.components:
        for k, q in law(comp).items():
            acc[k] = acc.get(k, Fraction(0)) + w * q
    return acc


def _uniform_law(t: int, keys) -> dict:
    """Law of a key over 2^t equally likely branches: one Fraction per key."""
    return {k: Fraction(n, 1 << t) for k, n in Counter(keys).items()}


def _enumerate(p, x: int, y: int, key) -> dict:
    """Exact law of key(u, kernel(u)) over Alice's outcomes u (and over
    the shared randomness of a mixture)."""
    if isinstance(p, ProtocolMixture):
        return _mix(p, lambda comp: _enumerate(comp, x, y, key))
    run = _kernel(p, x, y)
    _check_limit(p.t)
    return _uniform_law(p.t, (key(u, run(u)) for u in range(1 << p.t)))


def _outputs(_u, branch):
    return branch[:2]


def exec_exact(p: Protocol, x: int, y: int) -> OutcomeDistribution:
    """Exact joint output distribution of the protocol on inputs (x, y)."""
    if isinstance(p, ProtocolMixture):
        return OutcomeDistribution(_mix(p, lambda c: exec_exact(c, x, y).probs))
    if isinstance(p, ParallelXorProtocol):
        # closed form, O(t): the output parity is deterministic
        d = _parity(_xor_shift(p, x, y))
        la, lb = p.local_a[x], p.local_b[y]
        if p.t == 0:
            return _dist([((la, lb), Fraction(1))])
        half = Fraction(1, 2)
        return _dist([((la, lb ^ d), half), ((la ^ 1, lb ^ d ^ 1), half)])
    if isinstance(p, OneWayProtocol):
        return _dist([((p.out_a[x], p.out_b[p.msg[x]][y]), Fraction(1))])
    if isinstance(p, TwoWayTree):
        return _dist([(p.evaluate(x, y), Fraction(1))])
    if isinstance(p, AndProtocol):
        return _dist([((p.out_a[x][p.gate_vector(x, y)], 0), Fraction(1))])
    if isinstance(p, OtProtocol):
        return _dist(((_run_ot(p, x, y, r), w)
                      for r, w in enumerate(p.r_weights)))
    return OutcomeDistribution(_enumerate(p, x, y, _outputs))


def exec_exact_ordered_sweep(p: OrderedNlbProtocol, x: int, y: int,
                             bob_first: bool) -> OutcomeDistribution:
    """Ordered execution with the free uniform bit on either side; the two
    sweeps must agree exactly (evaluation-order invariance).  The
    Alice-first sweep is the kernel; the Bob-first loop stays apart from
    it as the reference."""
    if not bob_first:
        return OutcomeDistribution(_enumerate(p, x, y, _outputs))
    _check_limit(p.t)

    def run_bob_first(v):
        # v fixes Bob's outcomes; Alice's are forced by the box constraint
        avec = 0
        for i in range(p.t):
            qi = p.step_b[i][y][v & ((1 << i) - 1)]
            pi = p.step_a[i][x][avec & ((1 << i) - 1)]
            avec |= (((v >> i) & 1) ^ (pi & qi)) << i
        return p.out_a[x][avec], p.out_b[y][v]
    return OutcomeDistribution(
        _uniform_law(p.t, (run_bob_first(v) for v in range(1 << p.t))))


def _run_ot(p: OtProtocol, x: int, y: int, r: int,
            with_view: bool = False):
    received = 0
    calls = []
    for i in range(p.t):
        s0, s1 = p.in_a[i][x][r]
        c = p.in_b[i][y][received & ((1 << i) - 1)]
        o = s1 if c else s0
        calls.append((i, (s0, s1), c, o))
        received |= o << i
    a, b = p.out_a[x][r], p.out_b[y][received]
    if with_view:
        return a, b, received, calls
    return a, b


def ot_received_distribution(p: OtProtocol, x: int, y: int) -> dict[int, Fraction]:
    """Exact distribution of Bob's received OT bits over Alice's coins."""
    out: dict[int, Fraction] = {}
    for r, w in enumerate(p.r_weights):
        _a, _b, received, _ = _run_ot(p, x, y, r, with_view=True)
        out[received] = out.get(received, Fraction(0)) + w
    return out


# --- sampling ---


def derive_seed(master: int, index: int) -> int:
    h = hashlib.blake2b(f"{master}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def exec_sample(p: Protocol, x: int, y: int, seed: int):
    """One run, deterministic given the seed; returns (a, b, transcript)."""
    rng = random.Random(derive_seed(seed, 0))
    return _sample(p, x, y, rng)


def _draw(weights, rng: random.Random) -> int:
    """Index drawn by one float roll against the running sums of the
    weights; the last index when rounding leaves the roll past them all."""
    roll = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if roll < acc:
            return i
    return len(weights) - 1


def _sample(p: Protocol, x: int, y: int, rng: random.Random):
    transcript: list[dict] = []
    if isinstance(p, ProtocolMixture):
        i = _draw([w for w, _c in p.components], rng)
        a, b, sub = _sample(p.components[i][1], x, y, rng)
        return a, b, [{"kind": "shared-randomness", "component": i}] + sub
    if isinstance(p, NLB_KINDS):
        if isinstance(p, OrderedNlbProtocol):
            u = 0
            for i in range(p.t):  # one coin per box, drawn in label order
                u |= rng.getrandbits(1) << i
        else:
            u = rng.getrandbits(p.t) if p.t else 0
        a, b, bvec, pin, qin = _kernel(p, x, y)(u)
        return a, b, [{"kind": "box", "index": i,
                       "in": ((pin >> i) & 1, (qin >> i) & 1),
                       "out": ((u >> i) & 1, (bvec >> i) & 1)}
                      for i in range(p.t)]
    if isinstance(p, (OneWayProtocol, TwoWayTree, AndProtocol)):
        dist = exec_exact(p, x, y)
        (a, b), _w = next(iter(dist.probs.items()))
        if isinstance(p, OneWayProtocol):
            transcript.append({"kind": "message", "from": "A", "value": p.msg[x]})
        if isinstance(p, AndProtocol):
            v = p.gate_vector(x, y)
            for i in range(p.t):
                transcript.append({"kind": "and", "index": i,
                                   "in": (p.pbox[i][x], p.qbox[i][y]),
                                   "out": (v >> i) & 1})
        return a, b, transcript
    if isinstance(p, OtProtocol):
        a, b, _received, calls = _run_ot(p, x, y, _draw(p.r_weights, rng),
                                         with_view=True)
        for i, pair, c, o in calls:
            transcript.append({"kind": "ot", "index": i, "in": (pair, c), "out": o})
        return a, b, transcript
    raise ProtocolError(f"cannot sample {type(p).__name__}")


# --- error profile ---


@dataclass(frozen=True)
class ErrorProfile:
    table: dict[tuple[int, int], Fraction]
    worst: Fraction

    @property
    def exact(self) -> bool:
        return self.worst == 0


def _parity_error(p: Protocol, f: TruthTable, x: int, y: int) -> Fraction:
    if isinstance(p, ProtocolMixture):
        return sum((w * _parity_error(c, f, x, y) for w, c in p.components),
                   Fraction(0))
    if isinstance(p, ParallelXorProtocol):
        # parity is deterministic: locals XOR the box products
        par = p.local_a[x] ^ p.local_b[y] ^ _parity(_xor_shift(p, x, y))
        return Fraction(0) if par == f.entry(x, y) else Fraction(1)
    return exec_exact(p, x, y).parity_prob(f.entry(x, y) ^ 1)


def error_profile(p: Protocol, f: TruthTable) -> ErrorProfile:
    """Exact probability of output parity differing from f, per input."""
    table = {}
    worst = Fraction(0)
    for x in range(f.n_rows):
        for y in range(f.n_cols):
            e = _parity_error(p, f, x, y)
            table[(x, y)] = e
            worst = max(worst, e)
    return ErrorProfile(table, worst)


# --- audits ---


@dataclass(frozen=True)
class AuditViolation:
    check: str
    detail: str
    witness: tuple

    def __str__(self):
        return f"{self.check}: {self.detail} (witness {self.witness})"


def _alice_view(p, x: int, y: int) -> dict[tuple, Fraction]:
    """Distribution of (Alice box outcomes, Alice output) on (x, y)."""
    return _enumerate(p, x, y, lambda u, branch: (u, branch[0]))


def _bob_view(p, x: int, y: int) -> dict[tuple, Fraction]:
    """Distribution of (Bob box outcomes, Bob output) on (x, y)."""
    return _enumerate(p, x, y, lambda _u, branch: (branch[2], branch[1]))


def nonsignaling_audit(p) -> AuditViolation | None:
    """Check each player's full-view distribution ignores the other's input."""
    xs, ys = 1 << p.nx, 1 << p.ny
    for x in range(xs):
        ref = _alice_view(p, x, 0)
        for y in range(1, ys):
            v = _alice_view(p, x, y)
            if v != ref:
                return AuditViolation("nonsignaling", "Alice view depends on y",
                                      (x, 0, y))
    for y in range(ys):
        ref = _bob_view(p, 0, y)
        for x in range(1, xs):
            v = _bob_view(p, x, y)
            if v != ref:
                return AuditViolation("nonsignaling", "Bob view depends on x",
                                      (y, 0, x))
    return None


def privacy_audit_and(p: AndProtocol, f: TruthTable) -> AuditViolation | None:
    """Correctness plus perfect Alice-side privacy of a secure-AND protocol.

    Alice's received gate vector may depend on (x, f(x,y)) only; Bob
    receives nothing, so his side is private by construction.
    """
    if (p.nx, p.ny) != (f.nx, f.ny):
        raise ProtocolError("domain mismatch")
    for x in range(f.n_rows):
        by_value: dict[int, int] = {}
        for y in range(f.n_cols):
            v = p.gate_vector(x, y)
            if p.out_a[x][v] != f.entry(x, y):
                return AuditViolation("and-correctness",
                                      "Alice output differs from f", (x, y))
            fv = f.entry(x, y)
            if fv in by_value and by_value[fv] != v:
                y0 = next(y2 for y2 in range(f.n_cols)
                          if p.gate_vector(x, y2) == by_value[fv]
                          and f.entry(x, y2) == fv)
                return AuditViolation("and-privacy",
                                      "gate vector not determined by (x, f)",
                                      (x, y0, y))
            by_value[fv] = v
        if len(set(by_value.values())) > 2:
            return AuditViolation("and-privacy", ">2 gate vectors for one x", (x,))
    return None


def privacy_audit_ot(p: OtProtocol) -> AuditViolation | None:
    """Bob's received bits must be exactly uniform and independent of x."""
    uniform = Fraction(1, 1 << p.t)
    for y in range(1 << p.ny):
        for x in range(1 << p.nx):
            dist = ot_received_distribution(p, x, y)
            if len(dist) != 1 << p.t or any(v != uniform for v in dist.values()):
                return AuditViolation("ot-privacy",
                                      "received bits not uniform", (x, y, dist))
    return None


__all__ = [
    "OutcomeDistribution", "ErrorProfile", "AuditViolation",
    "ResourceLimitError", "ProtocolError",
    "exec_exact", "exec_sample", "error_profile", "validate",
    "nonsignaling_audit", "privacy_audit_and", "privacy_audit_ot",
    "exec_exact_ordered_sweep", "ot_received_distribution", "derive_seed",
]
