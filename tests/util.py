"""Shared generators and independent oracles for the test suite.

Oracles here are deliberately implemented differently from the library
code (dense lists instead of bit-packing, brute-force enumeration
instead of closed forms) so agreement is meaningful.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from hypothesis import strategies as st

from nlbox.protocols import (AndProtocol, GeneralNlbProtocol, OneWayProtocol,
                             OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                             ParallelXorProtocol, ProtocolMixture, TwoWayTree)
from nlbox.truthtable import TruthTable


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def random_table(nx: int, ny: int, rng: random.Random) -> TruthTable:
    return TruthTable(nx, ny,
                      tuple(rng.randrange(1 << (1 << ny))
                            for _ in range(1 << nx)))


def random_tree(nx: int, ny: int, t: int, rng: random.Random) -> TwoWayTree:
    direction, bit = [], []
    for r in range(t):
        d = tuple(rng.randrange(2) for _ in range(1 << r))
        direction.append(d)
        bit.append(tuple(
            tuple(rng.randrange(2) for _ in range(1 << (nx if d[pre] else ny)))
            for pre in range(1 << r)))
    out_a = tuple(tuple(rng.randrange(2) for _ in range(1 << nx))
                  for _ in range(1 << t))
    out_b = tuple(tuple(rng.randrange(2) for _ in range(1 << ny))
                  for _ in range(1 << t))
    return TwoWayTree(nx, ny, t, tuple(direction), tuple(bit), out_a, out_b)


def random_ordered(nx: int, ny: int, t: int,
                   rng: random.Random) -> OrderedNlbProtocol:
    return OrderedNlbProtocol(
        nx, ny, t,
        tuple(tuple(tuple(rng.randrange(2) for _ in range(1 << i))
                    for _ in range(1 << nx)) for i in range(t)),
        tuple(tuple(tuple(rng.randrange(2) for _ in range(1 << i))
                    for _ in range(1 << ny)) for i in range(t)),
        tuple(tuple(rng.randrange(2) for _ in range(1 << t))
              for _ in range(1 << nx)),
        tuple(tuple(rng.randrange(2) for _ in range(1 << t))
              for _ in range(1 << ny)))


def random_general(nx: int, ny: int, t: int,
                   rng: random.Random) -> GeneralNlbProtocol:
    """Random tables of ``random_ordered`` under shuffled touch orders, so
    each side's steps read its outcomes in its own order."""
    o = random_ordered(nx, ny, t, rng)
    sched_a, sched_b = list(range(t)), list(range(t))
    rng.shuffle(sched_a)
    rng.shuffle(sched_b)
    return GeneralNlbProtocol(nx, ny, t, tuple(sched_a), o.step_a,
                              tuple(sched_b), o.step_b, o.out_a, o.out_b)


KINDS = ("parallel-xor", "parallel", "ordered", "general", "oneway",
         "twoway", "and", "ot", "mix")


def _bits(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(n))


def _weights(k: int, rng: random.Random) -> tuple[Fraction, ...]:
    """k positive rational weights summing to 1."""
    cuts = sorted(rng.sample(range(1, 12), k - 1))
    return tuple(Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12]))


def random_protocol(kind: str, nx: int, ny: int, t: int, rng: random.Random):
    """A random well-formed protocol of one of ``KINDS`` (the text-format
    kind names, plus "mix" for a mixture of one to three components)."""
    xs, ys, ts = 1 << nx, 1 << ny, 1 << t
    pbox = tuple(_bits(xs, rng) for _ in range(t))
    qbox = tuple(_bits(ys, rng) for _ in range(t))
    if kind == "parallel-xor":
        return ParallelXorProtocol(nx, ny, t, pbox, qbox, _bits(xs, rng),
                                   _bits(ys, rng))
    if kind == "parallel":
        return ParallelProtocol(nx, ny, t, pbox, qbox,
                                tuple(_bits(ts, rng) for _ in range(xs)),
                                tuple(_bits(ts, rng) for _ in range(ys)))
    if kind == "and":
        return AndProtocol(nx, ny, t, pbox, qbox,
                           tuple(_bits(ts, rng) for _ in range(xs)))
    if kind == "ordered":
        return random_ordered(nx, ny, t, rng)
    if kind == "general":
        return random_general(nx, ny, t, rng)
    if kind == "oneway":
        return OneWayProtocol(nx, ny, t,
                              tuple(rng.randrange(ts) for _ in range(xs)),
                              _bits(xs, rng),
                              tuple(_bits(ys, rng) for _ in range(ts)))
    if kind == "twoway":
        return random_tree(nx, ny, t, rng)
    if kind == "ot":
        nr = rng.randint(1, 3)
        in_a = tuple(tuple(tuple((rng.randrange(2), rng.randrange(2))
                                 for _ in range(nr)) for _ in range(xs))
                     for _ in range(t))
        in_b = tuple(tuple(_bits(1 << i, rng) for _ in range(ys))
                     for i in range(t))
        return OtProtocol(nx, ny, t, _weights(nr, rng), in_a, in_b,
                          tuple(_bits(nr, rng) for _ in range(xs)),
                          tuple(_bits(ts, rng) for _ in range(ys)))
    inner = rng.choice(KINDS[:-1])
    weights = _weights(rng.randint(1, 3), rng)
    return ProtocolMixture(tuple((w, random_protocol(inner, nx, ny, t, rng))
                                 for w in weights))


_FUZZ_TOKENS = st.sampled_from(
    ["", " ", "\n", "#", "/", "=", "x", "0", "1", "-1", "2", "9", "1/0",
     "0/0", "-1/0", "0/1", "1/2", "a", "b", "ab", "input", "and", "xor",
     "not", "output", "mix", "protocol", "corr", "nx=1", "ny=", "t=2"])


@st.composite
def mutated(draw, text: str) -> str:
    """Valid text with up to three of its tokens or separators replaced,
    deleted (replaced by "") or followed by an inserted token."""
    parts = re.split(r"(\s+)", text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        tok = draw(_FUZZ_TOKENS)
        parts[i] = parts[i] + tok if draw(st.booleans()) else tok
    return "".join(parts)


def xor_as_parallel(p: ParallelXorProtocol) -> ParallelProtocol:
    """Embed a parallel XOR protocol as a general parallel protocol."""
    xs, ys = 1 << p.nx, 1 << p.ny
    return ParallelProtocol(
        p.nx, p.ny, p.t, p.pbox, p.qbox,
        tuple(tuple(p.local_a[x] ^ parity(u) for u in range(1 << p.t))
              for x in range(xs)),
        tuple(tuple(p.local_b[y] ^ parity(u) for u in range(1 << p.t))
              for y in range(ys)))


def xor_as_ordered(p: ParallelXorProtocol) -> OrderedNlbProtocol:
    """Embed a parallel XOR protocol as an ordered protocol."""
    xs, ys = 1 << p.nx, 1 << p.ny
    step_a = tuple(tuple(tuple(p.pbox[i][x] for _ in range(1 << i))
                         for x in range(xs)) for i in range(p.t))
    step_b = tuple(tuple(tuple(p.qbox[i][y] for _ in range(1 << i))
                         for y in range(ys)) for i in range(p.t))
    out_a = tuple(tuple(p.local_a[x] ^ parity(u) for u in range(1 << p.t))
                  for x in range(xs))
    out_b = tuple(tuple(p.local_b[y] ^ parity(u) for u in range(1 << p.t))
                  for y in range(ys))
    return OrderedNlbProtocol(p.nx, p.ny, p.t, step_a, step_b, out_a, out_b)


def obfuscate(p: ParallelProtocol, rng: random.Random) -> ParallelProtocol:
    """Add a duplicated box and fold its outcome (plus another box's)
    into both output tables; the parity is unchanged but the protocol is
    no longer in XOR form."""
    if p.t == 0:
        return p
    k = rng.randrange(p.t)
    xs, ys = 1 << p.nx, 1 << p.ny
    mask_t = (1 << p.t) - 1
    out_a = tuple(tuple(p.out_a[x][u & mask_t] ^ ((u >> p.t) & 1) ^ ((u >> k) & 1)
                        for u in range(1 << (p.t + 1))) for x in range(xs))
    out_b = tuple(tuple(p.out_b[y][u & mask_t] ^ ((u >> p.t) & 1) ^ ((u >> k) & 1)
                        for u in range(1 << (p.t + 1))) for y in range(ys))
    return ParallelProtocol(p.nx, p.ny, p.t + 1, p.pbox + (p.pbox[k],),
                            p.qbox + (p.qbox[k],), out_a, out_b)


def oracle_parallel_dist(p: ParallelProtocol, x: int, y: int):
    """Joint output distribution by brute force over box outcome pairs.

    Enumerates each box's two legal (a_i, b_i) pairs directly, without
    the engine's one-sided-uniform shortcut.
    """
    dists: dict[tuple[int, int], Fraction] = {}
    w = Fraction(1, 1 << p.t)
    for avec in range(1 << p.t):
        bvec = 0
        for i in range(p.t):
            ai = (avec >> i) & 1
            bvec |= (ai ^ (p.pbox[i][x] & p.qbox[i][y])) << i
        key = (p.out_a[x][avec], p.out_b[y][bvec])
        dists[key] = dists.get(key, Fraction(0)) + w
    return dists


def oracle_rank(rows: list[list[int]]) -> int:
    """Dense-list Gaussian elimination, independent of the bit-packed one."""
    m = [row[:] for row in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_phase1(columns, b):
    """Phase-1 simplex on a ``Fraction`` tableau with Bland's rule: the
    rational reference for ``nlbox._simplex.solve_phase1``, which must
    take the same pivots and return the same ``(opt, x, y)``."""
    zero, one = Fraction(0), Fraction(1)
    m, n = len(b), len(columns)
    tab = [[Fraction(columns[j][i]) for j in range(n)]
           + [one if k == i else zero for k in range(m)] + [Fraction(b[i])]
           for i in range(m)]
    ncols = n + m
    basis = [n + i for i in range(m)]
    obj = [(one if j >= n else zero) - sum((tab[i][j] for i in range(m)), zero)
           for j in range(ncols)] + [-sum((Fraction(v) for v in b), zero)]
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        row = tab[leave] = [v / tab[leave][enter] for v in tab[leave]]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], row)]
        f = obj[enter]
        obj = [v - f * w for v, w in zip(obj, row)]
        basis[leave] = enter
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][ncols]
    return -obj[ncols], x, [one - obj[n + i] for i in range(m)]
