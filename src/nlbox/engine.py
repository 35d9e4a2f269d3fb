"""Exact and sampled execution of protocols, plus auditors.

The exact engine enumerates shared randomness, Alice-private
randomness, and box-outcome branches with rational probabilities, so
every distributional claim can be asserted as an equality.  Sampling
draws exact uniform integers from one Philox stream per call.

Box semantics: each box outcome pair satisfies a XOR b = p AND q with
the first-touched side's outcome a fresh unbiased bit.  Taking Alice's
outcomes as the free uniform bits and forcing Bob's realizes the same
joint law for every interleaving of the two schedules, because the XOR
constraint is symmetric.  So a run on (x, y) is a function of one
integer v: Alice's outcomes u packed in box-label order (box kinds), her
randomness index r (OT), or 0 (deterministic kinds).  ``_kernel(p)`` is
that function for each kind, on same-length numpy arrays (x, y, v) or on
the grid of inputs (a column) by branches (a row).  Exact laws
(``exact_laws`` over many input pairs, ``exec_exact`` on one), error
tables and the OT audit read one ``_tally``: a key's law over every input
and branch they need, in integers, then one Fraction per outcome; the
sampler draws a batch of runs' randomness and runs it.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .protocols import (KIND_NAMES, NLB_KINDS, AndProtocol, GeneralNlbProtocol,
                        OneWayProtocol, OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                        ParallelXorProtocol, ProtocolError, ProtocolMixture, Protocol,
                        TwoWayTree, _over_lcm, validate)
from .truthtable import TruthTable

DEFAULT_LIMIT_T = 20
# runs evaluated at once, so the arrays stay small and in cache
_BATCH_T = 14
_BATCH = 1 << _BATCH_T


class ResourceLimitError(RuntimeError):
    pass


def _limit_t() -> int:
    """NLBOX_LIMIT_T, the largest t whose 2^t branches are enumerated: a
    nonnegative decimal integer, else a ValueError naming it."""
    value = os.environ.get("NLBOX_LIMIT_T")
    if value is None:
        return DEFAULT_LIMIT_T
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"NLBOX_LIMIT_T={value!r} is not a nonnegative decimal integer")
    return int(value)


def _check_limit(t: int) -> None:
    if t > (limit := _limit_t()):
        raise ResourceLimitError(f"2^{t} branch enumeration exceeds the t<={limit} limit")


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


def _parities(v: np.ndarray, t: int) -> np.ndarray:
    """Parity of each entry of v, all below 2^t."""
    for k in reversed(range(max(t - 1, 0).bit_length())):
        v = v ^ (v >> (1 << k))
    return v & 1


def _boxes(tables, n: int, dtype=np.int64) -> np.ndarray:
    """A field of per-box tables of n entries as a (boxes, n) array."""
    return np.asarray(tables).reshape(len(tables), n).astype(dtype)


def _packed(tables, n: int) -> np.ndarray:
    """Entry k of each per-box table of n entries, packed with box i at
    bit i, for every k < n: int64, or Python ints from 63 tables on."""
    dtype = np.int64 if len(tables) < 63 else object
    bits = _boxes(tables, n, dtype)
    return np.bitwise_or.reduce(bits << np.arange(len(tables)).astype(dtype)[:, None],
                                axis=0, initial=0)


def _at(tab, *index) -> np.ndarray:
    """tab[index] for same-length arrays, one per axis, as one gather from
    the flat table: numpy's indexing by several arrays is slower."""
    flat = index[0]
    for n, i in zip(tab.shape[1:], index[1:]):
        flat = flat * n + i
    return tab.reshape(-1)[flat]


def _kernel(p):
    """The runs of a protocol, called two ways: the sampler passes
    same-length 1-D arrays (x, y, v), one run per entry; the exact tally
    passes the grid, x and y as columns of inputs and v as a row of every
    branch value in order (every u < 2^t for box kinds, 0 and 1 for
    parallel XOR, every r for OT, 0 for the rest), and the outputs
    broadcast to (inputs, branches).  Box kinds give (a, b, bvec, pin,
    qin) for Alice's outcomes u = v, Bob's being bvec = u ^ (pin & qin),
    but the ordered kernel gives (a, b, bvec) on the grid, where no key
    reads the boxes' inputs; u is int64, or of Python ints for parallel
    XOR from t = 63 on.  OT gives (a, b, received) for r = v, the bits
    Bob received packed by call; AND gives (a, b, gates); one-way and
    tree protocols give (a, b).  The kernel indexes the tables directly,
    through _at; a and b are uint8 bits read off them, and any bit it
    shifts is first widened, since a uint8 shift wraps at 8 bits."""
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol, AndProtocol)):
        pins, qins = _packed(p.pbox, 1 << p.nx), _packed(p.qbox, 1 << p.ny)
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol)):
        def run_parallel(x, y, u):
            pin, qin = pins[x], qins[y]
            bvec = u ^ (pin & qin)
            if isinstance(p, ParallelXorProtocol):
                # parity(bvec) = parity(u) ^ parity(pin & qin)
                par = _parities(u, p.t)
                a = _at(p.local_a, x) ^ par
                b = _at(p.local_b, y) ^ _parities(pin & qin, p.t) ^ par
            else:
                a, b = _at(p.out_a, x, u), _at(p.out_b, y, bvec)
            return a, b, bvec, pin, qin
        return run_parallel
    if isinstance(p, (OrderedNlbProtocol, GeneralNlbProtocol)):
        def run_steps(x, y, u):
            if u.ndim == 2 and isinstance(p, OrderedNlbProtocol):
                return run_prefixes(x[:, 0], y)
            # each side reads its outcomes so far in its own touch order;
            # Alice's inputs depend on u alone, so hers come first
            shape = np.broadcast_shapes(x.shape, y.shape, u.shape)
            pin, qin, obs = np.zeros(shape, np.int64), np.zeros(shape, np.int64), np.zeros_like(u)
            for pos, (label, sa) in enumerate(zip(p.sched_a.tolist(), p.step_a)):
                pin |= _at(sa, x, obs).astype(np.int64) << label
                obs |= ((u >> label) & 1) << pos
            obs = np.zeros(shape, np.int64)
            for pos, (label, sb) in enumerate(zip(p.sched_b.tolist(), p.step_b)):
                q = _at(sb, y, obs).astype(np.int64)
                qin |= q << label
                obs |= (((u >> label) & 1) ^ ((pin >> label) & q)) << pos
            bvec = u ^ (pin & qin)
            return _at(p.out_a, x, u), _at(p.out_b, y, bvec), bvec, pin, qin

        def run_prefixes(x, y):
            """(a, b, bvec) for every u < 2^t: step i runs on the 2^i
            prefixes of u alone, Alice's inputs being row x of step_a[i].
            Bob's outcomes on the prefixes are the only state, and they
            double after each step: u and u + 2^i share their prefix, and
            Bob's bit i is u's XOR the box's AND."""
            bvec = np.zeros((len(x), 1 << p.t), np.int64)
            for i, (sa, sb) in enumerate(zip(p.step_a, p.step_b)):
                pre = bvec[:, :1 << i]
                pre |= np.left_shift(sa[x] & _at(sb, y, pre), i, dtype=np.int64)
                np.bitwise_xor(pre, 1 << i, out=bvec[:, 1 << i:2 << i])
            return p.out_a[x], _at(p.out_b, y, bvec), bvec
        return run_steps
    if isinstance(p, OtProtocol):
        def run_ot(x, y, r):
            # Alice's pair for (x, r) at the same cell of every call's table
            base = (x * len(p.r_weights) + r) * 2
            received = np.zeros_like(base)
            for i, (pairs, choices) in enumerate(zip(p.in_a, p.in_b)):
                # received holds the bits of calls before i alone
                bit = pairs.reshape(-1)[base + _at(choices, y, received)]
                received |= np.left_shift(bit, i, dtype=np.int64)
            return _at(p.out_a, x, r), _at(p.out_b, y, received), received
        return run_ot
    if isinstance(p, OneWayProtocol):
        def run_oneway(x, y, _v):
            return _at(p.out_a, x), _at(p.out_b, _at(p.msg, x), y)
        return run_oneway
    if isinstance(p, TwoWayTree):
        def run_tree(x, y, _v):
            tr = np.zeros_like(x)
            for r, (speaker, rows) in enumerate(zip(p.direction, p.bit)):
                # round r's rows end to end, each prefix's row from start
                start = np.cumsum([0, *map(len, rows[:-1])])
                own = np.where(_at(speaker, tr) == 1, x, y)
                bits = _at(np.concatenate(rows), start[tr] + own)
                tr |= bits.astype(np.int64) << r
            return _at(p.out_a, tr, x), _at(p.out_b, tr, y)
        return run_tree
    if isinstance(p, AndProtocol):
        def run_and(x, y, _v):
            gates = pins[x] & qins[y]
            return _at(p.out_a, x, gates), np.zeros_like(gates), gates
        return run_and
    raise ProtocolError(f"cannot run {type(p).__name__}")


def _leaves(p) -> tuple:
    """A mixture's (weight, protocol) components as they are, each of a
    kind, never a mixture; ((1, p),) for a protocol of any other kind."""
    if isinstance(p, ProtocolMixture):
        return p.components
    if type(p) not in KIND_NAMES:
        raise ProtocolError(f"{type(p).__name__} is not a protocol kind")
    return ((Fraction(1), p),)


def _check_inputs(leaves, x, y) -> None:
    """A ProtocolError unless 0 <= x < 2^nx and 0 <= y < 2^ny, the widths
    that every leaf (w, p) of a protocol shares."""
    c = leaves[0][1]
    if int(min(x.min(), y.min())) < 0 or int(x.max()) >> c.nx or int(y.max()) >> c.ny:
        raise ProtocolError(f"input outside 0 <= x < 2^{c.nx}, 0 <= y < 2^{c.ny}")


def _tally(leaves, x, y, key):
    """The law of key(j, *outs) over the branches of each input (x[j], y[j])
    run through the kernel of each leaf (w, protocol) on the grid, drawing
    v with weight w times v's: OT's r by its weights, box kinds' u uniform
    (parallel XOR's in {0, 1}: no key reads its bvec, pin or qin, and its
    outputs only u's parity), else 0.  key gets j as a column and the
    outputs as (inputs, branches) arrays, and gives one value per run.
    Returns the weights' denominator and, per chunk of whole inputs in
    order (one, or as many as fit 2^NLBOX_LIMIT_T and _BATCH runs), the
    distinct keys, sorted, and row i of their integer weights on its
    input i.  A leaf whose runs all carry one weight is counted by
    np.bincount times that weight, any other by np.add.at.  Keys in
    [0, k), at most 4 cells per run (all but Python-int keys, from t = 63
    on, and OT receipts of sparse randomness), index their own columns,
    empty ones dropped; np.unique sorts any others, which at 8 cells per
    run is already faster."""
    _check_inputs(leaves, x, y)
    specs = []  # (protocol, branches, numerators: one, or one per branch, denominator)
    for w, c in leaves:
        if isinstance(c, OtProtocol):
            nums, den = c.r_ints
            one = nums.count(nums[0]) == len(nums)
            specs.append((c, len(nums), [w.numerator * n for n in (nums[:1] if one else nums)],
                          w.denominator * den))
            continue
        t = (min(c.t, 1) if isinstance(c, ParallelXorProtocol)
             else c.t if isinstance(c, NLB_KINDS) else 0)
        _check_limit(t)
        specs.append((c, 1 << t, [w.numerator], w.denominator << t))
    den = math.lcm(*(d for *_c, d in specs))
    ints = [[n * (den // d) for n in nums] for _c, _n, nums, d in specs]
    # each input's weights sum to total, and every cell holds part of it:
    # Python ints where int64 could overflow
    total = sum(ns[0] * n if len(ns) == 1 else sum(ns) for ns, (_c, n, *_) in zip(ints, specs))
    dtype = object if total >= 1 << 63 else np.int64
    runs = [(_kernel(c), np.arange(n)[None], ns[0] if len(ns) == 1 else np.array(ns, dtype))
            for ns, (c, n, *_) in zip(ints, specs)]
    step = max(1, (1 << min(_limit_t(), _BATCH_T)) // sum(v.size for _run, v, _ns in runs))

    def chunks():
        for lo in range(0, len(x), step):
            hi = min(lo + step, len(x))
            j, parts = np.arange(lo, hi)[:, None], []
            for run, v, weight in runs:
                # outs lives to the end of the chunk, or its freed pages
                # fault back in
                outs = run(x[lo:hi, None], y[lo:hi, None], v)
                parts.append((key(j, *outs), weight, outs))
            cols = [ks for ks, *_ in parts]
            k = (max(int(ks.max()) for ks in cols) + 1
                 if all(ks.dtype != object for ks in cols) else None)
            if (k is not None and (hi - lo) * k <= 4 * sum(ks.size for ks in cols)
                    and min(int(ks.min()) for ks in cols) >= 0):
                labels = None
            else:
                labels, col = np.unique(np.concatenate([ks.ravel() for ks in cols]),
                                        return_inverse=True)
                ends = np.cumsum([ks.size for ks in cols])
                cols = [c.reshape(ks.shape) for c, ks in zip(np.split(col, ends[:-1]), cols)]
                k = len(labels)
            size, laws = (hi - lo) * k, None
            for c, (_ks, weight, _outs) in zip(cols, parts):
                cells = np.arange(0, size, k)[:, None] + c  # each run's flat cell
                if isinstance(weight, np.ndarray):
                    part = np.zeros(size, dtype)
                    # broadcast here: numpy 2.4's ufunc.at reads past a
                    # 1-D array of values that it broadcasts itself
                    np.add.at(part, cells, np.broadcast_to(weight, cells.shape))
                else:
                    part = np.bincount(cells.ravel(), minlength=size).astype(dtype, copy=False)
                    if weight != 1:
                        part *= weight
                laws = part if laws is None else laws + part
            laws = laws.reshape(hi - lo, k)
            if labels is None:
                used = np.flatnonzero((laws != 0).any(0))
                # laws lives to the next chunk, or its freed pages fault back in
                yield used, laws if len(used) == k else laws[:, used]
            else:
                yield labels, laws
    return den, chunks()


def exact_laws(p: Protocol, x=None, y=None) -> list[OutcomeDistribution]:
    """Exact joint output distribution of the protocol on each input pair
    (x[j], y[j]) of same-length integer sequences x and y, or on every
    input, x outer, when both are None: one integer tally over the
    branches of every protocol a mixture draws."""
    leaves = _leaves(p)
    if x is None and y is None:
        x, y = np.divmod(np.arange(1 << (p.nx + p.ny)), 1 << p.ny)
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape or len(x) and {x.dtype.kind, y.dtype.kind} - {*"iuO"}:
        raise ProtocolError("x and y must be integer sequences of one length")
    if not len(x):
        return []
    den, chunks = _tally(leaves, x, y, lambda _j, a, b, *_: a << 1 | b)
    laws = []
    for keys, rows in chunks:
        outcomes = [(k >> 1, k & 1) for k in keys.tolist()]
        laws += [OutcomeDistribution({ab: Fraction(n, den) for ab, n in zip(outcomes, row) if n})
                 for row in rows.tolist()]
    return laws


def exec_exact(p: Protocol, x: int, y: int) -> OutcomeDistribution:
    """Exact joint output distribution of the protocol on inputs (x, y):
    exact_laws on that one pair."""
    return exact_laws(p, [x], [y])[0]


def ot_received_distribution(p: OtProtocol, x: int, y: int) -> dict[int, Fraction]:
    """Exact distribution of Bob's received OT bits over Alice's coins,
    keyed in order of first receipt."""
    _require(p, OtProtocol, "an OT")
    got = []  # the one input's receipts, r in order
    den, ((keys, (total,)),) = _tally([(Fraction(1), p)], np.array([x]), np.array([y]),
                                      lambda _j, _a, _b, received: got.append(received) or received)
    total = dict(zip(keys.tolist(), total.tolist()))
    return {k: Fraction(total[k], den) for k in dict.fromkeys(got[0].ravel().tolist())}


# --- sampling ---

_MAX_SAMPLES = 1 << 24  # runs per sample_counts call; memory stays one batch


def derive_seed(master: int, index: int) -> int:
    h = hashlib.blake2b(f"{master}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _below(gen, n: int, m: int) -> np.ndarray:
    """The next m integers uniform in [0, n) of gen's stream, each taking
    the words its own draw needs: numpy's bounded draw below 2^63, then
    whole 64-bit words masked to n's width, drawn again while at least n."""
    if n < 1 << 63:
        return gen.integers(n, size=m)
    bits, out = (n - 1).bit_length(), []
    while len(out) < m:
        raw = gen.bit_generator.random_raw((m - len(out), -(-bits // 64)))
        out += [v for w in raw if (v := int.from_bytes(w.tobytes(), "little") % (1 << bits)) < n]
    return np.array(out, dtype=object)


def _sampler(p, key: int):
    """A batch of runs' randomness, m -> [(path, leaf, sel, v)]: path [] for
    p, or [i] for a mixture's component i, the m runs selecting it, and its
    u (box kinds), r (OT) or 0 per run.  Node 0, p, and node i + 1, component
    i, draw run j's value as the j-th of their Philox stream keyed (key, node)."""
    def stream(node, q):
        gen = np.random.Generator(np.random.Philox(key=node << 64 | key))
        if not isinstance(q, (ProtocolMixture, OtProtocol)):
            return lambda m: _below(gen, 1 << q.t if isinstance(q, NLB_KINDS) else 1, m)
        # index k takes L * w_k of the values, L the lcm of the denominators
        nums, n = q.r_ints if isinstance(q, OtProtocol) else _over_lcm(
            [w for w, _c in q.components])
        bounds = np.array(list(accumulate(nums))[:-1], dtype=np.int64 if n < 1 << 63 else object)
        return lambda m: np.searchsorted(bounds, _below(gen, n, m), side="right")
    draw = stream(0, p)
    if not isinstance(p, ProtocolMixture):
        return lambda m: [([], p, np.ones(m, bool), draw(m))]
    subs = [(c, stream(i + 1, c)) for i, (_w, c) in enumerate(p.components)]

    def draw_mixture(m):
        comp = draw(m)
        return [([i], c, comp == i, sub(m)) for i, (c, sub) in enumerate(subs)]
    return draw_mixture


def _draws(p, x: int, y: int, seed: int):
    """_sampler's streams for seed, for runs of p on the input (x, y)."""
    _check_inputs(_leaves(p), np.array([x]), np.array([y]))
    return _sampler(p, derive_seed(seed, 0))


def exec_sample(p: Protocol, x: int, y: int, seed: int):
    """Run 0 of sample_counts(p, x, y, seed, n); returns (a, b, transcript)."""
    (path, p, v), = [(path, leaf, v[:1]) for path, leaf, sel, v
                     in _draws(p, x, y, seed)(1) if sel[0]]
    a, b, *run = (int(z[0]) for z in _kernel(p)(np.array([x]), np.array([y]), v))
    v = int(v[0])
    transcript = [{"kind": "shared-randomness", "component": i} for i in path]
    if isinstance(p, NLB_KINDS):
        bvec, pin, qin = run
        transcript += [{"kind": "box", "index": i,
                        "in": ((pin >> i) & 1, (qin >> i) & 1),
                        "out": ((v >> i) & 1, (bvec >> i) & 1)} for i in range(p.t)]
    elif isinstance(p, OtProtocol):
        got, = run
        transcript += [{"kind": "ot", "index": i,
                        "in": (tuple(p.in_a[i][x, v].tolist()),
                               int(p.in_b[i][y, got & ((1 << i) - 1)])),
                        "out": (got >> i) & 1} for i in range(p.t)]
    elif isinstance(p, OneWayProtocol):
        transcript.append({"kind": "message", "from": "A", "value": int(p.msg[x])})
    elif isinstance(p, AndProtocol):
        g, = run
        transcript += [{"kind": "and", "index": i, "in": (int(p.pbox[i][x]), int(p.qbox[i][y])),
                        "out": (g >> i) & 1} for i in range(p.t)]
    return a, b, transcript


def sample_counts(p: Protocol, x: int, y: int, seed: int, n: int) -> dict[tuple[int, int], int]:
    """Output counts of runs 0 to n - 1 of p on (x, y) from _sampler's
    streams for seed: each batch's randomness is drawn as arrays, then
    each protocol a mixture selects runs once on its part of the batch."""
    if n > _MAX_SAMPLES:
        raise ResourceLimitError(f"{n} samples exceed the {_MAX_SAMPLES} cap")
    draw, counts = _draws(p, x, y, seed), Counter()
    for lo in range(0, n, _BATCH):
        for _path, leaf, sel, v in draw(min(_BATCH, n - lo)):
            if sel.any():
                a, b = _kernel(leaf)(np.full(sel.sum(), x), np.full(sel.sum(), y), v[sel])[:2]
                counts.update(zip(a.tolist(), b.tolist()))
    return dict(counts)


# --- error profile ---


@dataclass(frozen=True, eq=False)
class ErrorProfile:
    """The probability that the output parity differs from f on input
    (x, y) is ``errors[x, y] / den``, in integers."""

    errors: np.ndarray
    den: int

    @property
    def worst(self) -> Fraction:
        return Fraction(int(self.errors.max()), self.den)

    @property
    def exact(self) -> bool:
        return self.worst == 0

    @cached_property
    def table(self) -> dict[tuple[int, int], Fraction]:
        """{(x, y): error} for every input, built on first use."""
        total = self.errors.ravel().tolist()
        frac = {n: Fraction(n, self.den) for n in set(total)}
        return dict(zip(product(*map(range, self.errors.shape)), map(frac.__getitem__, total)))

    def __eq__(self, other):
        if not isinstance(other, ErrorProfile):
            return NotImplemented
        return self.table == other.table


def _xor_errors(p: ParallelXorProtocol, f: TruthTable) -> np.ndarray:
    """A parallel-XOR protocol's error on every input, row-major: f XOR
    its deterministic parity, the local terms and the box products
    p_i(x) q_i(y) summed mod 2."""
    products = (_boxes(p.pbox, f.n_rows).T @ _boxes(p.qbox, f.n_cols)) & 1
    return (f.bits() ^ p.local_a[:, None] ^ p.local_b ^ products).ravel()


def _errors(p: Protocol, f: TruthTable) -> tuple[np.ndarray, int]:
    """The probability that the output parity differs from f on every
    input, row-major, in integers over one denominator: parallel XOR's
    by packed rows, the other leaves' by their kernels."""
    leaves = _leaves(p)
    if (p.nx, p.ny) != (f.nx, f.ny):
        raise ProtocolError("domain mismatch")
    n = f.n_rows << f.ny
    parts = [(w, _xor_errors(c, f), 1) for w, c in leaves if isinstance(c, ParallelXorProtocol)]
    rest = [(w, c) for w, c in leaves if not isinstance(c, ParallelXorProtocol)]
    if rest:
        x, y = np.divmod(np.arange(n), f.n_cols)
        want = f.bits().ravel()
        den, chunks = _tally(rest, x, y, lambda j, a, b, *_: a ^ b ^ want[j])
        errs = np.concatenate([laws[:, keys == 1].sum(1) for keys, laws in chunks])
        parts.append((Fraction(1), errs, den))
    den = math.lcm(*(w.denominator * d for w, _e, d in parts))
    dtype = object if den >= 1 << 63 else np.int64
    return sum(e.astype(dtype) * (w.numerator * (den // (w.denominator * d)))
               for w, e, d in parts), den


def error_profile(p: Protocol, f: TruthTable) -> ErrorProfile:
    """Exact probability of output parity differing from f, per input."""
    errs, den = _errors(p, f)
    return ErrorProfile(errs.reshape(f.n_rows, f.n_cols), den)


# --- audits ---


@dataclass(frozen=True)
class AuditViolation:
    check: str
    detail: str
    witness: tuple

    def __str__(self):
        return f"{self.check}: {self.detail} (witness {self.witness})"


def _require(p, kind, name: str) -> None:
    """A ProtocolError naming p's kind unless it is the kind an audit reads."""
    if not isinstance(p, kind):
        raise ProtocolError(f"{type(p).__name__} is not {name} protocol")


def nonsignaling_audit(p) -> None:
    """Check that each player's view (own box outcomes and output) has a
    law that ignores the other's input.  Every box protocol passes, since
    a protocol is valid once built, so no branch is run: a leaf of no box
    kind is a ProtocolError.  The lemma: on every (x, y) of all four kinds,
    Bob's outcome at box i is Alice's XOR the AND of both inputs to it,
    each input read off its own side's input and earlier outcomes, so his
    outcomes are a bijection of her uniform ones (solved for hers box by
    box in her touch order), and each output reads only its own input
    and outcomes; a mixture's laws are sums of its leaves'.  The tests'
    oracle runs the branches."""
    for _w, c in _leaves(p):
        _require(c, NLB_KINDS, "a non-local-box")


def privacy_audit_and(p: AndProtocol, f: TruthTable) -> AuditViolation | None:
    """Correctness plus perfect Alice-side privacy of a secure-AND protocol.

    Alice's received gate vector may depend on (x, f(x,y)) only; Bob
    receives nothing, so his side is private by construction.  The
    witness is the first input, x outer, where her output differs from
    f, or her gate vector from the one at y0, the first y of her row with
    the same value of f.
    """
    _require(p, AndProtocol, "a secure-AND")
    if (p.nx, p.ny) != (f.nx, f.ny):
        raise ProtocolError("domain mismatch")
    x, y = np.divmod(np.arange(f.n_rows << f.ny), f.n_cols)
    want = f.bits().ravel()
    a, _b, gates = _kernel(p)(x, y, np.zeros_like(x))
    rows = want.reshape(f.n_rows, f.n_cols)
    y0 = np.where(rows, rows.argmax(1)[:, None], (1 - rows).argmax(1)[:, None]).ravel()
    wrong = a != want
    bad = wrong | (gates != gates[(x << f.ny) + y0])
    if not bad.any():
        return None
    i = bad.argmax()
    if wrong[i]:
        return AuditViolation("and-correctness", "Alice output differs from f",
                              (int(x[i]), int(y[i])))
    return AuditViolation("and-privacy", "gate vector not determined by (x, f)",
                          (int(x[i]), int(y0[i]), int(y[i])))


def privacy_audit_ot(p: OtProtocol) -> AuditViolation | None:
    """Bob's received bits must be exactly uniform and independent of x:
    on every input, 2^t values of weight 2^-t each.  The witness is the
    first failure, y outer; the runs go x outer, so that a chunk reads
    few of Alice's rows, the wide ones."""
    _require(p, OtProtocol, "an OT")
    x, y = np.divmod(np.arange(1 << (p.nx + p.ny)), 1 << p.ny)
    den, chunks = _tally([(Fraction(1), p)], x, y, lambda _j, _a, _b, received: received)
    share, rem = divmod(den, 1 << p.t)
    uniform = np.concatenate([(laws == share).sum(1) == 1 << p.t for _keys, laws in chunks])
    bad = np.flatnonzero(~(uniform & (rem == 0)).reshape(1 << p.nx, -1).T)
    if not len(bad):
        return None
    y0, x0 = divmod(int(bad[0]), 1 << p.nx)
    return AuditViolation("ot-privacy", "received bits not uniform",
                          (x0, y0, ot_received_distribution(p, x0, y0)))


__all__ = [
    "OutcomeDistribution", "ErrorProfile", "AuditViolation",
    "ResourceLimitError", "ProtocolError",
    "exact_laws", "exec_exact", "exec_sample", "error_profile", "validate",
    "nonsignaling_audit", "privacy_audit_and", "privacy_audit_ot",
    "ot_received_distribution", "sample_counts", "derive_seed",
]
