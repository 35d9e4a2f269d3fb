"""Constructive transformations between protocol models.

Synthesis from truth tables, communication-to-box compilers, box-count
reduction and XOR normalization, distributed circuit evaluation, and
the bridges between ordered box protocols, oblivious transfer, and
secure-AND protocols.  Every compiler is a pure function emitting a new
protocol object whose behavior can be checked with the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from operator import xor

import numpy as np

from . import gf2
from .engine import (ProtocolError, _check_limit, _errors, _kernel, _parities,
                     privacy_audit_and)
from .protocols import (AndProtocol, GeneralNlbProtocol, OneWayProtocol,
                        OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                        ParallelXorProtocol, TwoWayTree)
from .protocols import validate  # noqa: F401  (importable from here too)
from .truthtable import TruthTable, from_entries, unpack_bits

MAX_TREE_DEPTH = 8


# --- synthesis from truth tables ---


def synth_rank(f: TruthTable) -> ParallelXorProtocol:
    """Strict XOR protocol with exactly rank(M_f) boxes.

    Box i's inputs are the factors of the rank-revealing decomposition,
    so the XOR of the box outcome parities reproduces f entrywise.
    """
    fac = gf2.gf2_factorize(f)
    return _strict(f, unpack_bits(fac.row_factors, f.n_rows),
                   unpack_bits(fac.col_factors, f.n_cols), (), ())


def synth_vandam(f: TruthTable) -> ParallelXorProtocol:
    """One box per nonzero row: Alice selects her row, Bob inputs its value."""
    rows = [z for z in range(f.n_rows) if f.rows[z]]
    return _strict(f, np.eye(f.n_rows, dtype=np.uint8)[rows], f.bits()[rows], (), ())


# --- communication to boxes ---


def oneway_to_parallel(p: OneWayProtocol) -> ParallelXorProtocol:
    """Replace a t-bit one-way message by 2^t - 1 parallel boxes.

    One box per message m != 0: Alice inputs whether she would have sent
    m, Bob inputs how receiving m would change his answer relative to
    message 0.  Sources never sending 0 are relabeled first.
    """
    msg, out_b = p.msg, p.out_b
    if not (msg == 0).any():
        shift = msg[0]
        msg, out_b = msg ^ shift, out_b[np.arange(1 << p.t) ^ shift]
    pbox = (msg == np.arange(1, 1 << p.t)[:, None]).astype(np.uint8)
    return ParallelXorProtocol(p.nx, p.ny, (1 << p.t) - 1, pbox, out_b[1:] ^ out_b[0],
                               p.out_a, out_b[0])


def twoway_to_parallel(p: TwoWayTree) -> ParallelXorProtocol:
    """Replace a depth-t two-way protocol tree by at most 2^t - 1 boxes.

    Downward recursion removing the last communicated bit at each step:
    the per-prefix output families are doubled, with the speaker's new
    entries carrying the communicated bit and the listener's carrying
    the difference between their two possible continuations.
    """
    if p.t > MAX_TREE_DEPTH:
        raise ProtocolError(f"tree depth {p.t} exceeds the {MAX_TREE_DEPTH} limit")
    # per side, fam[i][prefix][input]; prefixes are k-bit transcripts
    fams = [p.out_a[None], p.out_b[None]]
    for k in range(p.t, 0, -1):
        half = 1 << (k - 1)
        alice = np.array(p.direction[k - 1], bool)
        for s, speaks in enumerate((alice, ~alice)):
            fam = fams[s]
            lo, hi = fam[:, :half], fam[:, half:]
            # this side's bit at each prefix where it speaks (0 elsewhere)
            c = np.array([bit if sp else (0,) * fam.shape[2]
                          for bit, sp in zip(p.bit[k - 1], speaks)], fam.dtype)
            taken = np.where(c, hi, lo)
            fams[s] = np.where(speaks[:, None],
                               np.concatenate([taken, c[None], taken[1:] & c]),
                               np.concatenate([lo, lo ^ hi]))
    fam_a, fam_b = (f[:, 0] for f in fams)
    return ParallelXorProtocol(p.nx, p.ny, len(fam_a) - 1, fam_a[1:], fam_b[1:],
                               fam_a[0], fam_b[0])


# --- box-count reduction and XOR normalization ---


def parallel_exact_function(p: ParallelProtocol) -> TruthTable | None:
    """The function computed in parity when the parity is deterministic:
    the error table against the zero function, if each entry is 0 or 1."""
    errs, den = _errors(p, TruthTable(p.nx, p.ny, (0,) * (1 << p.nx)))
    if ((errs != 0) & (errs != den)).any():
        return None
    return from_entries(p.nx, p.ny, (errs == den).reshape(1 << p.nx, -1))


def _mask(bits) -> int:
    """A table of bits packed row-major, entry k at bit k."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _find_dependency(p: ParallelProtocol) -> tuple[int, int] | None:
    """Coefficients C (bitmask over boxes) and the separable remainder s
    with XOR_{C_i=1} p_i q_i = s, or None when the products are
    independent modulo separable functions; entry (x, y) is bit x * |Y| +
    y, and each basis vector and its boxes are keyed by its lowest bit."""
    xs, ys = 1 << p.nx, 1 << p.ny
    col = sum(1 << (x * ys) for x in range(xs))
    separable = [((1 << ys) - 1) << (x * ys) for x in range(xs)] + [col << y for y in range(ys)]
    products = [_mask(np.outer(pb, q)) for pb, q in zip(p.pbox, p.qbox)]
    basis: dict[int, tuple[int, int]] = {}
    for v, c in [(s, 0) for s in separable] + [(v, 1 << i) for i, v in enumerate(products)]:
        while v and v & -v in basis:
            bv, bc = basis[v & -v]
            v, c = v ^ bv, c ^ bc
        if v:
            basis[v & -v] = (v, c)
        elif c:
            return c, reduce(xor, (v for i, v in enumerate(products) if c >> i & 1))
    return None


def independence_reduce(p: ParallelProtocol) -> ParallelProtocol:
    """Drop boxes whose input products are separable-dependent on others.

    Whenever XOR of some box products equals alpha(x) XOR beta(y), one of
    those boxes is redundant: each player substitutes their locally
    computable expression for its outcome.  The computed parity is
    preserved for every branch; the reduced protocol's products are
    linearly independent modulo separable functions.
    """
    if parallel_exact_function(p) is None:
        raise ProtocolError("independence reduction requires a deterministic parity")
    return _drop_dependent(p)


def _drop_dependent(p: ParallelProtocol) -> ParallelProtocol:
    """independence_reduce of a protocol whose parity is deterministic."""
    while True:
        dep = _find_dependency(p)
        if dep is None:
            return p
        coeff, rem = dep
        k = coeff.bit_length() - 1  # highest box in the dependency
        ys = 1 << p.ny
        # split the separable remainder rem(x,y) = alpha(x) XOR beta(y)
        alpha = [(rem >> (x * ys)) & 1 for x in range(1 << p.nx)]
        beta = [((rem >> y) & 1) ^ alpha[0] for y in range(ys)]
        c_rest = coeff & ~(1 << k)
        # each (t-1)-outcome vector with a 0 inserted at bit k, and the
        # parity of the other boxes in the dependency there: box k's
        # outcome is that parity XOR the player's own alpha or beta term
        v = np.arange(1 << (p.t - 1))
        u = (v & ((1 << k) - 1)) | ((v >> k) << (k + 1))
        par = _parities(u & c_rest, p.t)
        out_a, out_b = (np.take_along_axis(out, u | ((np.array(sep)[:, None] ^ par) << k), 1)
                        for out, sep in ((p.out_a, alpha), (p.out_b, beta)))
        p = ParallelProtocol(p.nx, p.ny, p.t - 1, p.pbox[:k] + p.pbox[k + 1:],
                             p.qbox[:k] + p.qbox[k + 1:], out_a, out_b)


def _affine_constants(rows, lin: int | None, varies: str) -> tuple[int, tuple[int, ...]]:
    """The linear part and each row's constant term of the outputs'
    algebraic normal forms in the box outcomes; raises unless every form
    is affine with the linear part lin (the first row's when None).

    After _drop_dependent no exact protocol raises here; the checks guard
    the reduction.  Exactness says b_y(v) = a_x(v ^ s(x, y)) ^ f(x, y)
    for all v, s_i = p_i(x) q_i(y).  Comparing x with x' and y with y',
    b_y has a constant derivative in the direction whose bit i is the
    mixed difference of p_i q_i over {x, x'} x {y, y'}.  Such directions
    form a subspace, and these span GF(2)^t: a c orthogonal to all of
    them would make the XOR of c_i p_i q_i separable, which the reduction
    rules out.  So every b_y, and with it every a_x, is affine, and a
    parity constant in v forces one linear part on both sides."""
    consts = []
    for row in rows:
        mono = gf2.anf(row)
        if any(m & (m - 1) for m in mono):
            raise ProtocolError("claims violated: nonlinear output term")
        linear = sum(mono)
        if lin is None:
            lin = linear
        elif lin != linear:
            raise ProtocolError(f"claims violated: {varies}")
        consts.append(1 if 0 in mono else 0)
    return lin, tuple(consts)


def _strict(p, pbox, qbox, const_a, const_b) -> ParallelXorProtocol:
    """The boxes given (an input row each, as sequences of rows), plus one
    box per side that carries that side's constant terms (paired with a
    constant-1 input) if any, as a strict XOR protocol of p's input
    widths."""
    xs, ys = 1 << p.nx, 1 << p.ny
    if any(const_a):
        pbox, qbox = (*pbox, const_a), (*qbox, np.ones(ys, np.uint8))
    if any(const_b):
        pbox, qbox = (*pbox, np.ones(xs, np.uint8)), (*qbox, const_b)
    return ParallelXorProtocol(p.nx, p.ny, len(pbox), pbox, qbox,
                               np.zeros(xs, np.uint8), np.zeros(ys, np.uint8))


def xor_normalize_parallel(p: ParallelProtocol | ParallelXorProtocol
                           ) -> ParallelXorProtocol:
    """Turn an exact parallel protocol into a strict XOR one, +2 boxes max.

    After independence reduction, each output's algebraic normal form in
    its own box outcomes must be affine with matching linear parts on
    both sides; the affine constants are folded into two extra boxes
    paired with a constant-1 input on the other side.  A parallel XOR
    protocol's local terms are such constants already.
    """
    if isinstance(p, ParallelXorProtocol):
        return _strict(p, p.pbox, p.qbox, p.local_a, p.local_b)
    if parallel_exact_function(p) is None:
        raise ProtocolError("claims violated: protocol parity is not deterministic")
    p = _drop_dependent(p)
    lin, const_a = _affine_constants(p.out_a, None, "output linear part varies")
    _, const_b = _affine_constants(p.out_b, lin, "the two linear parts differ")
    keep = [i for i in range(p.t) if (lin >> i) & 1]
    return _strict(p, [p.pbox[i] for i in keep], [p.qbox[i] for i in keep],
                   const_a, const_b)


def xor_normalize_general(p):
    """Append two boxes folding each side's output into a pure outcome XOR.

    Works for ordered and general-schedule protocols, exact or not; the
    output parity distribution is preserved branch-by-branch.  An ordered
    protocol is a general one whose two touch orders are the identity:
    box t carries Alice's output XOR the parity of her t outcomes (Bob
    inputs 1), box t + 1 Bob's (Alice inputs 1), and both outputs become
    the parity of all t + 2 outcomes.  Each table is 2^(max(nx, ny) + t
    + 2) cells at most, checked against ``NLBOX_LIMIT_T`` before any is
    built (``ResourceLimitError``).
    """
    if not isinstance(p, (OrderedNlbProtocol, GeneralNlbProtocol)):
        raise ProtocolError("XOR normalization applies to ordered or general protocols")
    t = p.t
    _check_limit(max(p.nx, p.ny) + t + 2)
    parity = _parities(np.arange(4 << t), t + 2)[None].astype(np.uint8)

    def fold(out, sched) -> np.ndarray:
        """The output table read at the outcomes observed in touch order,
        XOR their parity."""
        obs = np.arange(1 << t)
        label = np.zeros_like(obs)
        for pos, box in enumerate(sched):
            label |= ((obs >> pos) & 1) << box
        return out[:, label] ^ parity[:, :1 << t]

    fold_a, fold_b = fold(p.out_a, p.sched_a), fold(p.out_b, p.sched_b)
    one = np.ones((1, 1), np.uint8)
    xs, ys = 1 << p.nx, 1 << p.ny
    fields = dict(t=t + 2,
                  step_a=p.step_a + (_widen(fold_a, 1 << t, xs), _widen(one, 2 << t, xs)),
                  step_b=p.step_b + (_widen(one, 1 << t, ys), _widen(fold_b, 2 << t, ys)),
                  out_a=_widen(parity, 4 << t, xs), out_b=_widen(parity, 4 << t, ys))
    if isinstance(p, GeneralNlbProtocol):
        fields.update(sched_a=(*p.sched_a, t, t + 1), sched_b=(*p.sched_b, t, t + 1))
    return replace(p, **fields)


# --- distributed circuits ---


@dataclass(frozen=True)
class InputWire:
    """Distributed input bit: Alice's share is bit a_bit of x (0 when
    None), Bob's share is bit b_bit of y."""

    a_bit: int | None
    b_bit: int | None


_GATE_ARITY = {"not": 1, "xor": 2, "and": 2, "or": 2}


@dataclass(frozen=True)
class DistributedCircuit:
    """Topologically ordered circuit over distributed bits.

    Gate k's output is wire ``len(inputs) + k``; gates are
    ("not", w), ("xor", w1, w2), ("and", w1, w2), ("or", w1, w2), and
    read only earlier wires.  Construction raises ``ProtocolError`` on a
    negative width, any other gate, an operand or output wire out of
    range, or an input bit outside x's or y's width.
    """

    nx: int
    ny: int
    inputs: tuple[InputWire, ...]
    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        for name in ("nx", "ny"):
            if getattr(self, name) < 0:
                raise ProtocolError(f"negative input width {name}={getattr(self, name)}")
        for w in self.inputs:
            for side, bit, n in (("a", w.a_bit, self.nx), ("b", w.b_bit, self.ny)):
                if bit is not None and not 0 <= bit < n:
                    raise ProtocolError(f"input bit {side} {bit} is outside [0, {n})")
        for k, gate in enumerate(self.gates):
            wire = len(self.inputs) + k
            if not gate or _GATE_ARITY.get(gate[0]) != len(gate) - 1:
                raise ProtocolError(f"unknown gate or wrong operand count: {gate!r}")
            for w in gate[1:]:
                if not 0 <= w < wire:
                    raise ProtocolError(
                        f"gate {gate!r} (wire {wire}) reads wire {w}, "
                        f"not an earlier one")
        if not 0 <= self.output < self.n_wires():
            raise ProtocolError(
                f"output wire {self.output} is outside [0, {self.n_wires()})")

    def n_wires(self) -> int:
        return len(self.inputs) + len(self.gates)


def _widen(tab: np.ndarray, width: int, rows: int | None = None) -> np.ndarray:
    """A share table over (input, outcome prefix) read at a wider prefix:
    it ignores the new outcome bits, so its columns repeat.  With rows, a
    table of one row is read at every input too, as a protocol table."""
    tab = np.tile(tab, (1, width // tab.shape[1]))
    return tab if rows is None else np.broadcast_to(tab, (rows, width))


def _input_share(bit: int | None, n: int) -> np.ndarray:
    if bit is None:
        return np.zeros((1, 1), np.uint8)
    return ((np.arange(n) >> bit) & 1).astype(np.uint8)[:, None]


def circuit_to_nlb(c: DistributedCircuit) -> OrderedNlbProtocol:
    """Evaluate the circuit in parity: XOR/NOT are free, AND/OR cost two
    boxes each (their cross terms), and boxes whose input product is
    identically zero are elided (leaf products cost one box).

    Each wire's share is a uint8 table over (own input, own outcome
    prefix): one row per input (a single row when it does not depend on
    it) and 2^i columns once it reads box i - 1's outcome.  A gate is one
    bitwise operation on its operands' tables, so compilation takes time
    linear in the gates times the table sizes, at most
    2^(max(nx, ny) + t) cells, whatever the circuit's depth.  A table is
    dropped after the last gate that reads it.  The input width, and each
    box's table width before the box is added, are checked against the
    engine's ``NLBOX_LIMIT_T`` cap before any table is allocated
    (``ResourceLimitError``)."""
    _check_limit(max(c.nx, c.ny))
    xs, ys = 1 << c.nx, 1 << c.ny
    a_sh = [_input_share(w.a_bit, xs) for w in c.inputs]
    b_sh = [_input_share(w.b_bit, ys) for w in c.inputs]
    step_a: list[np.ndarray] = []
    step_b: list[np.ndarray] = []

    def add_box(pf: np.ndarray, qf: np.ndarray) -> np.ndarray | None:
        """Box i's outcome as a share table, or None when the product is 0."""
        i = len(step_a)
        _check_limit(max(c.nx, c.ny) + i)
        if not (pf.any() and qf.any()):
            return None
        step_a.append(_widen(pf, 1 << i))
        step_b.append(_widen(qf, 1 << i))
        return np.repeat(np.array([[0, 1]], np.uint8), 1 << i, axis=1)

    def apply(op, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        width = max(f.shape[1], g.shape[1])
        return op(_widen(f, width), _widen(g, width))

    last_read = {w: k for k, gate in enumerate(c.gates) for w in gate[1:]}
    for k, gate in enumerate(c.gates):
        op = gate[0]
        if op == "not":
            (_, w) = gate
            a_sh.append(a_sh[w] ^ 1)
            b_sh.append(b_sh[w])
        elif op == "xor":
            _, w1, w2 = gate
            a_sh.append(apply(np.bitwise_xor, a_sh[w1], a_sh[w2]))
            b_sh.append(apply(np.bitwise_xor, b_sh[w1], b_sh[w2]))
        else:  # "and" / "or"
            _, w1, w2 = gate
            a1, a2, b1, b2 = a_sh[w1], a_sh[w2], b_sh[w1], b_sh[w2]
            # u op v = (a1 op a2) XOR (b1 op b2) XOR a1 b2 XOR a2 b1 holds
            # for both AND and OR, so either gate costs the two cross boxes
            cross = [add_box(a1, b2), add_box(a2, b1)]
            local = np.bitwise_and if op == "and" else np.bitwise_or
            fa, fb = apply(local, a1, a2), apply(local, b1, b2)
            for acc in cross:
                if acc is not None:
                    fa = apply(np.bitwise_xor, fa, acc)
                    fb = apply(np.bitwise_xor, fb, acc)
            a_sh.append(fa)
            b_sh.append(fb)
        for w in gate[1:]:
            if last_read[w] == k and w != c.output:
                a_sh[w] = b_sh[w] = None

    t = len(step_a)
    _check_limit(max(c.nx, c.ny) + t)
    return OrderedNlbProtocol(
        c.nx, c.ny, t,
        tuple(_widen(tab, 1 << i, xs) for i, tab in enumerate(step_a)),
        tuple(_widen(tab, 1 << i, ys) for i, tab in enumerate(step_b)),
        _widen(a_sh[c.output], 1 << t, xs), _widen(b_sh[c.output], 1 << t, ys))


# --- oblivious transfer and secure AND ---


# Alice's OT input pair (r_i, r_i ^ p_i) at [r_i, p_i]
_OT_PAIRS = np.array((((0, 0), (0, 1)), ((1, 1), (1, 0))), np.uint8)


def ordered_to_ot(p) -> OtProtocol:
    """One OT per box: Alice masks her box input with a fresh private bit
    and the OT hands Bob exactly the outcome his box would have shown.

    Alice's randomness r is t uniform bits, so her outputs and Bob's
    choice bits (over the i bits received before call i) are the source's
    own tables.  Her pair for call i depends on r only through r_i and
    the box input at prefix r mod 2^i, so each row is one block of
    2^(i+1) pairs repeated."""
    if not isinstance(p, OrderedNlbProtocol):
        raise ProtocolError("OT compilation requires an ordered protocol")
    nr = 1 << p.t
    lo, hi = _OT_PAIRS
    in_a = tuple(np.tile(np.concatenate((lo[step], hi[step]), axis=1), (1, nr >> (i + 1), 1))
                 for i, step in enumerate(p.step_a))
    return OtProtocol(p.nx, p.ny, p.t, (Fraction(1, nr),) * nr, in_a,
                      p.step_b, p.out_a, p.out_b)


def and_from_oneway(p: OneWayProtocol) -> AndProtocol:
    """Secure-AND protocol with one gate per possible message.

    Alice raises the gate matching her message; Bob inputs his answer to
    that message, so exactly one gate output carries his contribution.
    """
    n_gates = 1 << p.t
    pbox = (p.msg == np.arange(n_gates)[:, None]).astype(np.uint8)
    out_a = p.out_a[:, None] ^ ((np.arange(1 << n_gates) >> p.msg[:, None]) & 1)
    return AndProtocol(p.nx, p.ny, n_gates, pbox, p.out_b, out_a)


def oneway_from_and(p: AndProtocol, f: TruthTable) -> OneWayProtocol:
    """Extract a one-way protocol from a perfectly private secure-AND one.

    Per input x there are at most two possible gate-output vectors,
    split by the value of f; the first position where they differ is a
    message Bob can answer from his own gate input.  For constant rows
    the unseen vector is chosen as the seen one flipped at the first
    gate whose Bob input is constant (and raised by Alice when that
    constant is 1), which keeps the formula an XOR of one-sided terms.
    """
    bad = privacy_audit_and(p, f)
    if bad is not None:
        raise ProtocolError(f"not private: {bad}")
    xs, ys = 1 << p.nx, 1 << p.ny
    runs = np.arange(xs << p.ny)
    gates = _kernel(p)(runs >> p.ny, runs & (ys - 1), 0 * runs)[2].reshape(xs, ys)
    msg, out_a = [], []
    for x, (row, want) in enumerate(zip(gates.tolist(), f.bits().tolist())):
        vec = [dict(zip(want, row)).get(c) for c in (0, 1)]
        if vec[0] is None or vec[1] is None:
            c = 0 if vec[1] is None else 1
            m = next((i for i in range(p.t)
                      if len(set(p.qbox[i])) == 1
                      and (p.qbox[i][0] == 0 or p.pbox[i][x] == 1)), None)
            if m is None:
                raise ProtocolError(
                    "not private: no constant-answer gate for a constant row")
            vec[1 - c] = vec[c] ^ (1 << m)
        else:
            m = ((vec[0] ^ vec[1]) & -(vec[0] ^ vec[1])).bit_length() - 1
        msg.append(m)
        out_a.append((vec[0] >> m) & 1)
    bits = max(1, p.t - 1).bit_length() if p.t > 1 else 0
    out_b = tuple(tuple(p.qbox[m][y] if m < p.t else 0 for y in range(ys))
                  for m in range(1 << bits))
    return OneWayProtocol(p.nx, p.ny, bits, tuple(msg), tuple(out_a), out_b)


# --- one-way communication measure ---


def d_oneway(f: TruthTable, parity: bool = True) -> int:
    """One-way deterministic communication of f, optionally in parity
    (rows counted up to complementation)."""
    full = (1 << f.n_cols) - 1
    classes = {min(r, r ^ full) for r in f.rows} if parity else set(f.rows)
    return max(0, (len(classes) - 1)).bit_length()


def oneway_optimal(f: TruthTable) -> OneWayProtocol:
    """A d_oneway-optimal one-way protocol computing f in parity."""
    full = (1 << f.n_cols) - 1
    # each row's key is its class up to complementation; message m names
    # the m-th key met, and Alice flips her output on a complemented row
    keys = [min(row, row ^ full) for row in f.rows]
    reps = {key: m for m, key in enumerate(dict.fromkeys(keys))}
    t = max(0, (len(reps) - 1)).bit_length()
    # Bob answers message m with its key row, and unused messages with 0s
    out_b = TruthTable(t, f.ny, (*reps, *(0,) * ((1 << t) - len(reps))))
    return OneWayProtocol(f.nx, f.ny, t, tuple(map(reps.get, keys)),
                          tuple(int(row != key) for row, key in zip(f.rows, keys)), out_b.bits())
