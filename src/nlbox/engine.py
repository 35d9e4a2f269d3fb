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
order, and ``_kernel(p)`` is that function for each of the four box
kinds, on a numpy array of u: (x, y, u) -> (a, b, bvec, pin, qin), the
two outputs, Bob's outcomes and each side's box inputs, all packed in
label order; ``_ot_kernel(p)`` runs an OT protocol on Alice's
randomness indices r.  Exact laws count branches in integers, then
make one Fraction per outcome; the sampler draws a batch of runs'
randomness first, then evaluates the kernel once on it.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain
from operator import lshift

import numpy as np

from .protocols import (NLB_KINDS, AndProtocol, GeneralNlbProtocol,
                        OneWayProtocol, OrderedNlbProtocol, OtProtocol,
                        ParallelProtocol, ParallelXorProtocol,
                        ProtocolMixture, Protocol, TwoWayTree, validate)
from .truthtable import TruthTable

DEFAULT_LIMIT_T = 20
# runs the sampler evaluates at once, so its arrays stay bounded
_SAMPLE_BATCH = 1 << 16


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
        return {v: sum((p for (a, _b), p in self.probs.items() if a == v), Fraction(0))
                for v in (0, 1)}

    def marginal_b(self) -> dict[int, Fraction]:
        return {v: sum((p for (_a, b), p in self.probs.items() if b == v), Fraction(0))
                for v in (0, 1)}


def _mask(bits) -> int:
    """A table of bits packed with entry k at bit k."""
    return sum(map(lshift, bits, range(len(bits))))


def _packed(tables, v: int) -> int:
    """Entry v of each per-box table, packed with box i at bit i."""
    return _mask([tab[v] for tab in tables])


def _ints(row) -> np.ndarray:
    return np.asarray(row, dtype=np.int64)


def _parities(v: np.ndarray, t: int) -> np.ndarray:
    """Parity of each entry of v, all below 2^t."""
    for k in reversed(range(max(t - 1, 0).bit_length())):
        v = v ^ (v >> (1 << k))
    return v & 1


def _kernel(p):
    """The runs of a box protocol as one array function
    (x, y, u) -> (a, b, bvec, pin, qin) of an array u of Alice's
    outcomes, where Bob's outcomes are bvec = u ^ (pin & qin).  u is
    int64, or of Python ints for parallel XOR from t = 63 on.  Each
    input's table rows become arrays once, on first use."""
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol)):
        out_a = cache(lambda x: _ints(p.out_a[x]))
        out_b = cache(lambda y: _ints(p.out_b[y]))

        def run_parallel(x, y, u):
            pin, qin = _packed(p.pbox, x), _packed(p.qbox, y)
            bvec = u ^ (pin & qin)
            if isinstance(p, ParallelXorProtocol):
                # parity(bvec) = parity(u) ^ parity(pin & qin)
                par = _parities(u, p.t)
                a, b = p.local_a[x] ^ par, p.local_b[y] ^ ((pin & qin).bit_count() & 1) ^ par
            else:
                a, b = out_a(x)[u], out_b(y)[bvec]
            return a, b, bvec, np.full_like(u, pin), np.full_like(u, qin)
        return run_parallel
    if not isinstance(p, (OrderedNlbProtocol, GeneralNlbProtocol)):
        raise ProtocolError(f"{type(p).__name__} is not a non-local-box protocol")
    side_a = cache(lambda x: ([_ints(s[x]) for s in p.step_a], _ints(p.out_a[x])))
    side_b = cache(lambda y: ([_ints(s[y]) for s in p.step_b], _ints(p.out_b[y])))
    if isinstance(p, OrderedNlbProtocol):
        def run_ordered(x, y, u):
            # step i reads the first i outcomes of its own side: one
            # gather per box and side
            (sa, oa), (sb, ob) = side_a(x), side_b(y)
            pin, qin = np.zeros_like(u), np.zeros_like(u)
            for i in range(p.t):
                mask = (1 << i) - 1
                pin |= sa[i][u & mask] << i
                qin |= sb[i][(u ^ (pin & qin)) & mask] << i
            bvec = u ^ (pin & qin)
            return oa[u], ob[bvec], bvec, pin, qin
        return run_ordered

    def run_general(x, y, u):
        # each side reads its outcomes so far in its own touch order;
        # Alice's inputs depend on u alone, so hers come first
        (sa, oa), (sb, ob) = side_a(x), side_b(y)
        pin, obs = np.zeros_like(u), np.zeros_like(u)
        for pos, label in enumerate(p.sched_a):
            pin |= sa[pos][obs] << label
            obs |= ((u >> label) & 1) << pos
        qin, obs = np.zeros_like(u), np.zeros_like(u)
        for pos, label in enumerate(p.sched_b):
            q = sb[pos][obs]
            qin |= q << label
            obs |= (((u >> label) & 1) ^ ((pin >> label) & q)) << pos
        bvec = u ^ (pin & qin)
        return oa[u], ob[bvec], bvec, pin, qin
    return run_general


def _ot_kernel(p: OtProtocol):
    """The runs of an OT protocol as one array function
    (x, y, r) -> (a, b, received, s0, s1, c) of an int64 array r of
    Alice's randomness indices: the outputs, Bob's received bits, and
    Alice's pairs and Bob's choices, each packed with call i at bit i."""
    def rows_a(x):
        # s0 and s1 of each call (2, t, nr), and both packed over the calls
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(s[x] for s in p.in_a)),
                            np.int64, 2 * p.t * len(p.r_weights))
        pairs = pairs.reshape(p.t, len(p.r_weights), 2).transpose(2, 0, 1).copy()
        return pairs, (pairs << np.arange(p.t)[:, None]).sum(1), _ints(p.out_a[x])
    side_a = cache(rows_a)
    side_b = cache(lambda y: ([_ints(s[y]) for s in p.in_b], _ints(p.out_b[y])))

    def run_ot(x, y, r):
        ((s0, s1), packed, oa), (choices, ob) = side_a(x), side_b(y)
        received, c = np.zeros_like(r), np.zeros_like(r)
        for i in range(p.t):
            ci = choices[i][received & ((1 << i) - 1)]
            received |= np.where(ci, s1[i][r], s0[i][r]) << i
            c |= ci << i
        return oa[r], ob[received], received, packed[0][r], packed[1][r], c
    return run_ot


def _leaves(p, w=Fraction(1)) -> list:
    """(weight, protocol) for each protocol a mixture draws, nested
    mixtures flattened; [(1, p)] for any other protocol."""
    if isinstance(p, ProtocolMixture):
        return [leaf for v, c in p.components for leaf in _leaves(c, w * v)]
    return [(w, p)]


def _numerators(weights, sizes=None) -> tuple[np.ndarray, int]:
    """The weights over the lcm of their denominators, weight k repeated
    sizes[k] times (once by default) as one integer array, of Python
    ints where int64 could overflow, and that lcm."""
    sizes = sizes or [1] * len(weights)
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    big = sum(abs(n) * k for n, k in zip(nums, sizes)) >= 1 << 63
    return np.repeat(np.array(nums, dtype=object if big else np.int64), sizes), den


def _tally(keys, nums):
    """The distinct keys, sorted, and each one's total of nums."""
    uniq, inv = np.unique(keys, return_inverse=True)
    total = np.zeros(len(uniq), dtype=nums.dtype)
    np.add.at(total, inv, nums)
    return uniq, total


def exec_exact(p: Protocol, x: int, y: int) -> OutcomeDistribution:
    """Exact joint output distribution of the protocol on inputs (x, y)."""
    if isinstance(p, ProtocolMixture):
        probs: Counter = Counter()
        for w, c in _leaves(p):
            probs.update({k: w * q for k, q in exec_exact(c, x, y).probs.items()})
        return OutcomeDistribution(dict(probs))
    if isinstance(p, ParallelXorProtocol):
        # closed form, O(t): the output parity is deterministic
        d = (_packed(p.pbox, x) & _packed(p.qbox, y)).bit_count() & 1
        la, lb = p.local_a[x], p.local_b[y]
        if p.t == 0:
            return OutcomeDistribution({(la, lb): Fraction(1)})
        half = Fraction(1, 2)
        return OutcomeDistribution({(la, lb ^ d): half, (la ^ 1, lb ^ d ^ 1): half})
    if isinstance(p, OneWayProtocol):
        return OutcomeDistribution({(p.out_a[x], p.out_b[p.msg[x]][y]): Fraction(1)})
    if isinstance(p, TwoWayTree):
        return OutcomeDistribution({p.evaluate(x, y): Fraction(1)})
    if isinstance(p, AndProtocol):
        return OutcomeDistribution({(p.out_a[x][p.gate_vector(x, y)], 0): Fraction(1)})
    if isinstance(p, OtProtocol):
        nums, den = _numerators(p.r_weights)
        a, b = _ot_kernel(p)(x, y, np.arange(len(nums)))[:2]
        keys, total = _tally(a << 1 | b, nums)
    else:
        _check_limit(p.t)
        a, b = _kernel(p)(x, y, np.arange(1 << p.t))[:2]
        (keys, total), den = np.unique(a << 1 | b, return_counts=True), 1 << p.t
    return OutcomeDistribution({(k >> 1, k & 1): Fraction(n, den)
                                for k, n in zip(keys.tolist(), total.tolist())})


def ot_received_distribution(p: OtProtocol, x: int, y: int) -> dict[int, Fraction]:
    """Exact distribution of Bob's received OT bits over Alice's coins,
    keyed in order of first receipt."""
    nums, den = _numerators(p.r_weights)
    received = _ot_kernel(p)(x, y, np.arange(len(nums)))[2]
    total = dict(zip(*(v.tolist() for v in _tally(received, nums))))
    return {k: Fraction(total[k], den) for k in dict.fromkeys(received.tolist())}


# --- sampling ---


def derive_seed(master: int, index: int) -> int:
    h = hashlib.blake2b(f"{master}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _sampler(p):
    """The draw of one run's randomness, rng -> (path, leaf, v), in the
    sampler's order of RNG calls: the shared-randomness components
    drawn, the protocol they select, and its u (box kinds), r (OT) or 0
    (deterministic kinds).  A component or r is drawn by one float roll:
    the first running float sum of the weights above it, or the last
    index when rounding leaves the roll past them all."""
    if isinstance(p, (ProtocolMixture, OtProtocol)):
        weights = p.r_weights if isinstance(p, OtProtocol) else [w for w, _c in p.components]
        cum = list(accumulate(float(w) for w in weights))

        def pick(rng):
            return min(bisect_right(cum, rng.random()), len(cum) - 1)
    if isinstance(p, ProtocolMixture):
        subs = [_sampler(c) for _w, c in p.components]

        def draw_mixture(rng):
            i = pick(rng)
            path, leaf, v = subs[i](rng)
            return [i, *path], leaf, v
        return draw_mixture
    if isinstance(p, OtProtocol):
        return lambda rng: ([], p, pick(rng))
    if isinstance(p, OrderedNlbProtocol):  # one coin per box, drawn in label order
        return lambda rng: ([], p, sum(rng.getrandbits(1) << i for i in range(p.t)))
    if isinstance(p, NLB_KINDS):  # 0, with no state consumed, when t = 0
        return lambda rng: ([], p, rng.getrandbits(p.t))
    if isinstance(p, (OneWayProtocol, TwoWayTree, AndProtocol)):
        return lambda rng: ([], p, 0)
    raise ProtocolError(f"cannot sample {type(p).__name__}")


def exec_sample(p: Protocol, x: int, y: int, seed: int):
    """One run, deterministic given the seed; returns (a, b, transcript)."""
    path, p, v = _sampler(p)(random.Random(derive_seed(seed, 0)))
    a, b, *run = (int(z[0]) for z in _runs(p, x, y, [v]))
    transcript = [{"kind": "shared-randomness", "component": i} for i in path]
    if isinstance(p, NLB_KINDS):
        bvec, pin, qin = run
        transcript += [{"kind": "box", "index": i,
                        "in": ((pin >> i) & 1, (qin >> i) & 1),
                        "out": ((v >> i) & 1, (bvec >> i) & 1)} for i in range(p.t)]
    elif isinstance(p, OtProtocol):
        got, s0, s1, c = run
        transcript += [{"kind": "ot", "index": i,
                        "in": (((s0 >> i) & 1, (s1 >> i) & 1), (c >> i) & 1),
                        "out": (got >> i) & 1} for i in range(p.t)]
    elif isinstance(p, OneWayProtocol):
        transcript.append({"kind": "message", "from": "A", "value": p.msg[x]})
    elif isinstance(p, AndProtocol):
        g = p.gate_vector(x, y)
        transcript += [{"kind": "and", "index": i, "in": (p.pbox[i][x], p.qbox[i][y]),
                        "out": (g >> i) & 1} for i in range(p.t)]
    return a, b, transcript


def _runs(p, x: int, y: int, vs: list):
    """The kernel's arrays of p's runs on the drawn values vs; only both
    outputs for the deterministic kinds.  Box outcomes from 63 boxes on,
    which only parallel XOR reaches, stay Python ints."""
    if isinstance(p, NLB_KINDS):
        return _kernel(p)(x, y, np.array(vs, dtype=np.int64 if p.t < 63 else object))
    if isinstance(p, OtProtocol):
        return _ot_kernel(p)(x, y, np.array(vs, dtype=np.int64))
    (a, b), = exec_exact(p, x, y).probs
    return np.full(len(vs), a), np.full(len(vs), b)


def sample_counts(p: Protocol, x: int, y: int, seed: int, n: int) -> dict[tuple[int, int], int]:
    """Output counts of the runs exec_sample(p, x, y, derive_seed(seed, i))
    for i < n.  The randomness of a batch of runs is drawn first, with
    the same RNG calls, and each protocol a mixture selects then runs
    once on its part of the batch."""
    draw, counts = _sampler(p), Counter()
    for lo in range(0, n, _SAMPLE_BATCH):
        drawn: dict = {}
        for i in range(lo, min(n, lo + _SAMPLE_BATCH)):
            _path, leaf, v = draw(random.Random(derive_seed(derive_seed(seed, i), 0)))
            drawn.setdefault(id(leaf), (leaf, []))[1].append(v)
        for leaf, vs in drawn.values():
            a, b = _runs(leaf, x, y, vs)[:2]
            counts.update(zip(a.tolist(), b.tolist()))
    return dict(counts)


# --- error profile ---


@dataclass(frozen=True)
class ErrorProfile:
    table: dict[tuple[int, int], Fraction]
    worst: Fraction

    @property
    def exact(self) -> bool:
        return self.worst == 0


_BITS = (Fraction(0), Fraction(1))


@cache
def _inputs(nx: int, ny: int) -> list:
    return [(x, y) for x in range(1 << nx) for y in range(1 << ny)]


def _leaf_errors(p, f: TruthTable) -> tuple[list, int]:
    """A protocol's error on every input, row-major, as integers over one
    denominator; parallel XOR's by packed rows, as Gf2Factorization.reconstruct."""
    if isinstance(p, ParallelXorProtocol):
        qs, lb, full = [_mask(q) for q in p.qbox], _mask(p.local_b), (1 << f.n_cols) - 1
        err = 0
        for x, row in enumerate(f.rows):
            r = row ^ lb ^ (full if p.local_a[x] else 0)
            for px, q in zip(p.pbox, qs):
                if px[x]:
                    r ^= q
            err |= r << (x << f.ny)
        return [(err >> k) & 1 for k in range(f.n_rows << f.ny)], 1
    errs = [exec_exact(p, x, y).parity_prob(f.entry(x, y) ^ 1) for x, y in _inputs(f.nx, f.ny)]
    den = math.lcm(*(e.denominator for e in errs))
    return [e.numerator * (den // e.denominator) for e in errs], den


def error_profile(p: Protocol, f: TruthTable) -> ErrorProfile:
    """Exact probability of output parity differing from f, per input: the
    tables of the protocols a mixture draws, summed in integers."""
    if (p.nx, p.ny) != (f.nx, f.ny):
        raise ProtocolError("domain mismatch")
    leaves = [(w, *_leaf_errors(c, f)) for w, c in _leaves(p)]
    den = math.lcm(*(w.denominator * d for w, _errs, d in leaves))
    total = [0] * len(leaves[0][1])
    for w, errs, d in leaves:
        k = w.numerator * (den // (w.denominator * d))
        total = [s + k * e for s, e in zip(total, errs)]
    # den 1: one leaf of weight 1 with 0/1 errors, so the shared constants
    frac = _BITS if den == 1 else {n: Fraction(n, den) for n in set(total)}
    return ErrorProfile(dict(zip(_inputs(f.nx, f.ny), map(frac.__getitem__, total))),
                        frac[max(total)])


# --- audits ---


@dataclass(frozen=True)
class AuditViolation:
    check: str
    detail: str
    witness: tuple

    def __str__(self):
        return f"{self.check}: {self.detail} (witness {self.witness})"


def _views(p):
    """Each player's full view of a box protocol or mixture on (x, y) as
    view(x, y, bob) -> (keys, weights): keys u << 1 | a for Alice and
    bvec << 1 | b for Bob, integer weights over one denominator."""
    leaves = [(w, _kernel(c), c.t) for w, c in _leaves(p)]
    for _w, _run, t in leaves:
        _check_limit(t)
    nums, _den = _numerators([w / (1 << t) for w, _run, t in leaves],
                             [1 << t for _w, _run, t in leaves])

    def view(x, y, bob):
        keys = []
        for _w, run, t in leaves:
            u = np.arange(1 << t)
            a, b, bvec = run(x, y, u)[:3]
            keys.append(bvec << 1 | b if bob else u << 1 | a)
        return _tally(np.concatenate(keys), nums)
    return view


def nonsignaling_audit(p) -> AuditViolation | None:
    """Check each player's full-view distribution ignores the other's input.

    No protocol that passes validate fails it: for every (x, y), Bob's
    outcomes are a bijection of Alice's (each bit her bit XOR a term of
    earlier bits), and each output reads its own input and outcomes."""
    view = _views(p)
    xs, ys = 1 << p.nx, 1 << p.ny
    for x in range(xs):
        ref = view(x, 0, False)
        for y in range(1, ys):
            if not all(map(np.array_equal, view(x, y, False), ref)):
                return AuditViolation("nonsignaling", "Alice view depends on y",
                                      (x, 0, y))
    for y in range(ys):
        ref = view(0, y, True)
        for x in range(1, xs):
            if not all(map(np.array_equal, view(x, y, True), ref)):
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
    return None


def privacy_audit_ot(p: OtProtocol) -> AuditViolation | None:
    """Bob's received bits must be exactly uniform and independent of x."""
    run, r = _ot_kernel(p), np.arange(len(p.r_weights))
    nums, den = _numerators(p.r_weights)
    for y in range(1 << p.ny):
        for x in range(1 << p.nx):
            _keys, total = _tally(run(x, y, r)[2], nums)
            if len(total) != 1 << p.t or (total * (1 << p.t) != den).any():
                return AuditViolation("ot-privacy", "received bits not uniform",
                                      (x, y, ot_received_distribution(p, x, y)))
    return None


__all__ = [
    "OutcomeDistribution", "ErrorProfile", "AuditViolation",
    "ResourceLimitError", "ProtocolError",
    "exec_exact", "exec_sample", "error_profile", "validate",
    "nonsignaling_audit", "privacy_audit_and", "privacy_audit_ot",
    "ot_received_distribution", "sample_counts", "derive_seed",
]
