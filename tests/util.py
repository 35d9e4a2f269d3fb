"""Shared generators and independent oracles for the test suite.

Oracles here are deliberately implemented differently from the library
code (dense lists instead of bit-packing, brute-force enumeration
instead of closed forms) so agreement is meaningful.  Protocol tables
are numpy arrays: the oracles take each value they shift with ``int``,
since a uint8 shift wraps at 8 bits.
"""

from __future__ import annotations

import dataclasses
import random
import re
import zlib
from collections import Counter
from fractions import Fraction
from itertools import count, product
from math import lcm
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from nlbox.engine import AuditViolation, derive_seed, exact_laws, exec_exact
from nlbox.gf2 import SpectrumReport
from nlbox.protocols import (FRACS, INTS, KIND_NAMES, PAIRS, AndProtocol, GeneralNlbProtocol,
                             OneWayProtocol, OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                             ParallelXorProtocol, ProtocolMixture, TwoWayTree, layout)
from nlbox.serialize import ParseError, serialize
from nlbox.truthtable import TruthTable, parse_decimal, parse_fraction


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def input_laws(p) -> list:
    """(x, y, law) for every input of p, x outer, from one exact_laws
    call.  One input, picked by the CRC of p's text so that protocols
    spread over their inputs, also runs alone through exec_exact, which
    must give the same law."""
    pairs = list(product(range(1 << p.nx), range(1 << p.ny)))
    laws = exact_laws(p)
    x, y = pairs[zlib.crc32(serialize(p).encode()) % len(pairs)]
    assert laws[x << p.ny | y] == exec_exact(p, x, y)
    return [(x, y, law) for (x, y), law in zip(pairs, laws)]


# truth-table headers that name no table of a one-row, one-cell body: huge
# widths (2^width must not be built), negative ones, and widths that int()
# alone would accept (sign, underscore, non-ASCII digits)
TRUTH_TABLE_BAD_HEADERS = ("10000000000000 0", "4000000000 0", "9" * 5000 + " 0",
                           "0 10000000000000", "-1 0", "0 -3", "+1 0", "0 +0",
                           "1_0 0", "\u0661 0", "0 \u0660", "0", "0 0 0")


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


# the fields of one table per box, each a tuple of tables
_PER_BOX = {"pbox", "qbox", "step_a", "step_b", "in_a", "in_b"}


def unchecked(kind, **fields):
    """A protocol of kind holding fields, built without the constructor's
    checks (object.__new__): each table a read-only uint8 array, as is
    each table of a field of one per box; widths, OT weights (and their
    integer form ``r_ints``) and mixture components as given.  Tables
    and mixtures no valid protocol holds (cells of 2 or 255, components
    of mixed kinds or widths) reach the engine and the oracles this way."""
    def frozen(tab):
        a = np.array(tab, np.uint8)
        a.setflags(write=False)
        return a
    p = object.__new__(kind)
    for name, value in fields.items():
        if name in _PER_BOX:
            value = tuple(map(frozen, value))
        elif name not in ("nx", "ny", "t", "r_weights", "r_ints", "components"):
            value = frozen(value)
        object.__setattr__(p, name, value)
    return p


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
    return ParallelProtocol(p.nx, p.ny, p.t + 1, (*p.pbox, p.pbox[k]),
                            (*p.qbox, p.qbox[k]), out_a, out_b)


def sampled_kinds() -> dict:
    """One protocol of each box kind, a mixture and an OT form, then a
    weighted OT form, mixtures of ordered, OT and one-way protocols and
    a parallel-XOR protocol whose 100 boxes leave int64, each built from
    a fixed seed so that sampled runs can be pinned."""
    from nlbox.compilers import ordered_to_ot, synth_rank
    from nlbox.library import disj_det_protocol, disj_rand_parallel, ip_protocol
    rng = random.Random(2024)
    return {
        "parallel-xor": ip_protocol(2),
        "parallel": obfuscate(xor_as_parallel(synth_rank(random_table(2, 2, rng))),
                              rng),
        "ordered": disj_det_protocol(2),
        "general": random_general(2, 2, 3, rng),
        "mixture": disj_rand_parallel(2, Fraction(1, 3)),
        "ot": ordered_to_ot(disj_det_protocol(2)),
        "ot-weighted": random_protocol("ot", 2, 2, 3, random.Random(8)),
        "mix-ordered": random_protocol("mix", 2, 2, 3, random.Random(10)),
        "mix-ot": random_protocol("mix", 2, 2, 3, random.Random(3)),
        "mix-oneway": random_protocol("mix", 2, 2, 3, random.Random(4)),
        "parallel-xor-100": random_protocol("parallel-xor", 2, 2, 100, random.Random(100)),
    }


def leaky_ot() -> OtProtocol:
    """The OT form of an ordered protocol with two of Alice's pairs
    replaced, one for x = 2 by (0, 0) and one for x = 1 by (1, 1), so
    that Bob's received bits are uniform except on (x, y) = (2, 1) and
    (1, 2): the audit's loop order (y outer) decides the witness."""
    from nlbox.compilers import ordered_to_ot
    ot = ordered_to_ot(random_ordered(2, 2, 2, random.Random(6)))
    in_a = [call.copy() for call in ot.in_a]
    in_a[0][2, 0] = (0, 0)
    in_a[1][1, 0] = (1, 1)
    return OtProtocol(ot.nx, ot.ny, ot.t, ot.r_weights,
                      tuple(in_a), ot.in_b, ot.out_a, ot.out_b)


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
            bvec |= (ai ^ int(p.pbox[i][x] & p.qbox[i][y])) << i
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


def oracle_fourier_l1(m: TruthTable) -> SpectrumReport:
    """The Walsh-Hadamard transform entry by entry and block by block: the
    same float additions, in the same order, as gf2.fourier_l1's butterflies."""
    n = m.nx + m.ny
    size = 1 << n
    signs = np.empty(size, dtype=np.float64)
    for x in range(m.n_rows):
        base = x << m.ny
        row = m.rows[x]
        for y in range(m.n_cols):
            signs[base | y] = -1.0 if (row >> y) & 1 else 1.0
    h = 1
    while h < size:
        for i in range(0, size, h * 2):
            a = signs[i:i + h].copy()
            b = signs[i + h:i + 2 * h].copy()
            signs[i:i + h] = a + b
            signs[i + h:i + 2 * h] = a - b
        h *= 2
    coeffs = signs / size
    report = {s: float(coeffs[s]) for s in range(size)}
    return SpectrumReport(n, report, float(np.abs(coeffs).sum()))


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


_PAIR_CELLS = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}


def oracle_parse(text):
    """The protocol text format read line by line, with tables as lists of
    ints: the reference for ``nlbox.serialize.parse``, which must return
    an equal protocol or raise the same exception type with the same
    message.  Bytes are UTF-8.  Every line is stripped, with lines split
    where ``str.splitlines`` splits them (CR, CRLF and the other Unicode
    line breaks included), and blank and '#' lines are dropped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    todo = [ln for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")][::-1]

    def take() -> str:
        if not todo:
            raise ParseError("unexpected end of input")
        return todo.pop()

    def mix_header(line: str):
        head = line.split()
        try:
            if head[0] != "mix" or len(head) != 3:
                raise ValueError
            k = parse_decimal(head[1], "component count")
            if k < 1:
                raise ValueError
            return k, parse_fraction(head[2], "weight")
        except ValueError:
            raise ParseError(f"bad mixture header {line!r}") from None

    def bit_row(width: int) -> list[int]:
        ln = take()
        if len(ln) != width or set(ln) - {"0", "1"}:
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return [int(c) for c in ln]

    def pair_row(width: int) -> list[tuple[int, int]]:
        cells = [_PAIR_CELLS.get(tok) for tok in take().split()]
        if len(cells) != width or None in cells:
            raise ParseError("bad OT pair row")
        return cells

    def body():
        line = take()
        head = line.split()
        dims = {}
        for kv in head[2:]:
            key, *value = kv.split("=")
            if len(value) != 1:
                raise ParseError(f"bad header {line!r}")
            dims[key] = value[0]
        try:
            nx, ny, t = (parse_decimal(dims[key], key) for key in ("nx", "ny", "t"))
        except (KeyError, ValueError):
            raise ParseError(f"bad header {line!r}") from None
        if head[0] != "protocol" or len(head) < 2:
            raise ParseError(f"bad header {line!r}")
        kind = next((k for k, name in KIND_NAMES.items() if name == head[1]), None)
        if kind is None:
            raise ParseError(f"unknown protocol kind {head[1]!r}")
        got = SimpleNamespace(**{f.name: [] for f in dataclasses.fields(kind)[3:]})
        for label, field, index, cells, rows, width in layout(kind, nx, ny, t, got):
            line = take()
            if not line.startswith(f"{label}:"):
                raise ParseError(f"expected {label + ':'!r}, found {line!r}")
            if cells in (INTS, FRACS):
                read = parse_decimal if cells == INTS else parse_fraction
                try:
                    tab = [read(tok, label) for tok in line.split()[1:]]
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
            elif isinstance(width, tuple):
                tab = [bit_row(w) for w in width]
            else:
                row = pair_row if cells == PAIRS else bit_row
                tab = row(width) if rows is None else [row(width) for _ in range(rows)]
            if index is None:
                setattr(got, field, tab)
            else:
                getattr(got, field).append(tab)
        return kind(nx, ny, t, **vars(got))

    if not (todo[-1] if todo else "").startswith("mix"):
        p = body()
    else:
        k, w = mix_header(take())
        comps = [(w, body())]
        for _ in range(k - 1):
            k2, w = mix_header(take())
            if k2 != k:
                raise ParseError("inconsistent mixture headers")
            comps.append((w, body()))
        p = ProtocolMixture(tuple(comps))
    if todo:
        raise ParseError(f"trailing content: {todo[-1]!r}")
    return p


# --- scalar reference engine ---
# The engine's former per-branch execution: one Python closure per box
# kind, the OT call loop and the Bob-first sweep, with laws summed in
# Fractions.  The array kernels and integer counts of ``nlbox.engine``
# must reproduce these exactly, down to the audits' witnesses.


def _packed(tables, v: int) -> int:
    s = 0
    for i, tab in enumerate(tables):
        s |= int(tab[v]) << i
    return s


def oracle_kernel(p, x: int, y: int):
    """u -> (a, b, bvec, pin, qin) for one run of a box protocol."""
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol)):
        pin, qin = _packed(p.pbox, x), _packed(p.qbox, y)
        shift = pin & qin
        if isinstance(p, ParallelXorProtocol):
            la, lb = p.local_a[x], p.local_b[y]
            return lambda u: (la ^ parity(u), lb ^ parity(u ^ shift),
                              u ^ shift, pin, qin)
        oa, ob = p.out_a[x], p.out_b[y]
        return lambda u: (oa[u], ob[u ^ shift], u ^ shift, pin, qin)
    if isinstance(p, OrderedNlbProtocol):
        sa = [step[x] for step in p.step_a]
        sb = [step[y] for step in p.step_b]
        oa, ob = p.out_a[x], p.out_b[y]

        def run_ordered(u):
            pin = qin = 0
            for i in range(p.t):
                mask = (1 << i) - 1
                pin |= int(sa[i][u & mask]) << i
                qin |= int(sb[i][(u ^ (pin & qin)) & mask]) << i
            bvec = u ^ (pin & qin)
            return oa[u], ob[bvec], bvec, pin, qin
        return run_ordered
    if isinstance(p, GeneralNlbProtocol):
        oa, ob = p.out_a[x], p.out_b[y]

        def run_general(u):
            pin = obs = 0
            for pos, label in enumerate(p.sched_a):
                pin |= int(p.step_a[pos][x][obs]) << label
                obs |= ((u >> label) & 1) << pos
            qin = obs = 0
            for pos, label in enumerate(p.sched_b):
                q = int(p.step_b[pos][y][obs])
                qin |= q << label
                bit = ((u >> label) & 1) ^ ((pin >> label) & q)
                obs |= bit << pos
            bvec = u ^ (pin & qin)
            return oa[u], ob[bvec], bvec, pin, qin
        return run_general
    raise ValueError(f"{type(p).__name__} is not a non-local-box protocol")


def oracle_run_ot(p: OtProtocol, x: int, y: int, r: int):
    """(a, b, received, calls) of one OT run on Alice's randomness r."""
    received = 0
    calls = []
    for i in range(p.t):
        s0, s1 = map(int, p.in_a[i][x][r])
        c = int(p.in_b[i][y][received & ((1 << i) - 1)])
        o = s1 if c else s0
        calls.append((i, (s0, s1), c, o))
        received |= o << i
    return p.out_a[x][r], p.out_b[y][received], received, calls


def oracle_law(p, x: int, y: int, key) -> dict:
    """Exact law of key(u, kernel(u)) over Alice's outcomes u and over
    the shared randomness of a mixture."""
    if isinstance(p, ProtocolMixture):
        acc: dict = {}
        for w, comp in p.components:
            for k, q in oracle_law(comp, x, y, key).items():
                acc[k] = acc.get(k, Fraction(0)) + w * q
        return acc
    run = oracle_kernel(p, x, y)
    counts: dict = {}
    for u in range(1 << p.t):
        k = key(u, run(u))
        counts[k] = counts.get(k, 0) + 1
    return {k: Fraction(n, 1 << p.t) for k, n in counts.items()}


def oracle_exec(p, x: int, y: int) -> dict:
    """Joint output law on (x, y): every box kind (parallel XOR
    included) by its branch closure, OT by its call loop."""
    if isinstance(p, ProtocolMixture):
        acc: dict = {}
        for w, comp in p.components:
            for k, q in oracle_exec(comp, x, y).items():
                acc[k] = acc.get(k, Fraction(0)) + w * q
        return acc
    if isinstance(p, OtProtocol):
        acc = {}
        for r, w in enumerate(p.r_weights):
            k = oracle_run_ot(p, x, y, r)[:2]
            acc[k] = acc.get(k, Fraction(0)) + w
        return acc
    if isinstance(p, OneWayProtocol):
        return {(p.out_a[x], p.out_b[p.msg[x]][y]): Fraction(1)}
    if isinstance(p, TwoWayTree):
        return {p.evaluate(x, y): Fraction(1)}
    if isinstance(p, AndProtocol):
        return {(p.out_a[x][_packed(p.pbox, x) & _packed(p.qbox, y)], 0): Fraction(1)}
    return oracle_law(p, x, y, lambda _u, branch: branch[:2])


def oracle_alice_view(p, x: int, y: int) -> dict:
    """Law of (Alice's box outcomes, Alice's output) on (x, y)."""
    return oracle_law(p, x, y, lambda u, branch: (u, branch[0]))


def oracle_bob_view(p, x: int, y: int) -> dict:
    """Law of (Bob's box outcomes, Bob's output) on (x, y)."""
    return oracle_law(p, x, y, lambda _u, branch: (branch[2], branch[1]))


def oracle_bob_first(p: OrderedNlbProtocol, x: int, y: int) -> dict:
    """Ordered execution with Bob's outcomes as the free uniform bits and
    Alice's forced by the box constraint; it must agree exactly with the
    Alice-first law (evaluation-order invariance)."""
    counts: dict = {}
    for v in range(1 << p.t):
        avec = 0
        for i in range(p.t):
            qi = int(p.step_b[i][y][v & ((1 << i) - 1)])
            pi = int(p.step_a[i][x][avec & ((1 << i) - 1)])
            avec |= (((v >> i) & 1) ^ (pi & qi)) << i
        k = (p.out_a[x][avec], p.out_b[y][v])
        counts[k] = counts.get(k, 0) + 1
    return {k: Fraction(n, 1 << p.t) for k, n in counts.items()}


def oracle_ot_received(p: OtProtocol, x: int, y: int) -> dict:
    """Law of Bob's received bits, keyed in order of first receipt."""
    out: dict = {}
    for r, w in enumerate(p.r_weights):
        received = oracle_run_ot(p, x, y, r)[2]
        out[received] = out.get(received, Fraction(0)) + w
    return out


def oracle_error(p, f: TruthTable, x: int, y: int) -> Fraction:
    """Probability that the output parity differs from f(x, y).  A
    parallel-XOR protocol too wide to enumerate its 2^t branches has the
    parity of its locals and its sum of box products p_i(x) q_i(y)."""
    if isinstance(p, ParallelXorProtocol) and p.t > 16:
        par = int(p.local_a[x]) + int(p.local_b[y]) + sum(
            int(p.pbox[i][x]) * int(p.qbox[i][y]) for i in range(p.t))
        return Fraction(int(par % 2 != f.entry(x, y)))
    return sum((q for (a, b), q in oracle_exec(p, x, y).items()
                if a ^ b != f.entry(x, y)), Fraction(0))


def oracle_nonsignaling_audit(p):
    """The audit loop: Alice's side first, then Bob's, first failure wins."""
    xs, ys = 1 << p.nx, 1 << p.ny
    for x in range(xs):
        ref = oracle_alice_view(p, x, 0)
        for y in range(1, ys):
            if oracle_alice_view(p, x, y) != ref:
                return AuditViolation("nonsignaling", "Alice view depends on y",
                                      (x, 0, y))
    for y in range(ys):
        ref = oracle_bob_view(p, 0, y)
        for x in range(1, xs):
            if oracle_bob_view(p, x, y) != ref:
                return AuditViolation("nonsignaling", "Bob view depends on x",
                                      (y, 0, x))
    return None


def oracle_privacy_audit_ot(p: OtProtocol):
    """The OT privacy loop: y outer, x inner, first non-uniform law wins."""
    uniform = Fraction(1, 1 << p.t)
    for y in range(1 << p.ny):
        for x in range(1 << p.nx):
            dist = oracle_ot_received(p, x, y)
            if len(dist) != 1 << p.t or any(v != uniform for v in dist.values()):
                return AuditViolation("ot-privacy",
                                      "received bits not uniform", (x, y, dist))
    return None


def _oracle_below(gen, n: int, m: int) -> list:
    """m integers uniform in [0, n), in stream order: numpy's bounded
    draw below 2^63; from there one value at a time, whole 64-bit words
    low word first, masked to n's width and drawn again while at least n."""
    if n < 1 << 63:
        return gen.integers(n, size=m).tolist()
    bits, out = (n - 1).bit_length(), []
    while len(out) < m:
        v = 0
        for i, w in enumerate(gen.bit_generator.random_raw(-(-bits // 64)).tolist()):
            v |= w << (64 * i)
        v &= (1 << bits) - 1
        if v < n:
            out.append(v)
    return out


def _oracle_index(weights, den: int, r: int) -> int:
    """The index whose run of den * w consecutive values in [0, den) holds r."""
    acc = 0
    for i, w in enumerate(weights):
        acc += int(w * den)
        if r < acc:
            return i
    raise AssertionError(f"{r} is outside [0, {den})")


def _oracle_streams(p, seed: int, n: int):
    """The draws of runs 0 to n - 1 as a tree (protocol, values,
    components).  Node k of p in preorder, a mixture before its
    components, draws one value per run, all n in one call, from the
    Philox stream keyed (derive_seed(seed, 0), k): an integer uniform in
    [0, L) mapped to a component or OT index, L the lcm of the weights'
    denominators, or a box protocol's t outcome bits."""
    key, nodes = derive_seed(seed, 0), count()

    def draw(q):
        gen = np.random.Generator(np.random.Philox(key=np.array([key, next(nodes)], np.uint64)))
        if isinstance(q, (ProtocolMixture, OtProtocol)):
            weights = q.r_weights if isinstance(q, OtProtocol) else [w for w, _c in q.components]
            den = lcm(*(w.denominator for w in weights))
            picks = [_oracle_index(weights, den, r) for r in _oracle_below(gen, den, n)]
            if isinstance(q, OtProtocol):
                return q, picks, []
            return q, picks, [draw(c) for _w, c in q.components]
        if isinstance(q, (ParallelXorProtocol, ParallelProtocol, OrderedNlbProtocol,
                          GeneralNlbProtocol)):
            return q, _oracle_below(gen, 1 << q.t, n), []
        return q, [0] * n, []
    return draw(p)


def oracle_sample(p, x: int, y: int, seed: int, n: int = 1) -> list:
    """Runs 0 to n - 1 (a, b, transcript) of the seeded stream, drawn and
    executed branch by branch."""
    tree = _oracle_streams(p, seed, n)
    return [_oracle_run(tree, x, y, i, True) for i in range(n)]


def oracle_counts(p, x: int, y: int, seed: int, n: int) -> Counter:
    """The output counts of oracle_sample's runs, without transcripts."""
    tree = _oracle_streams(p, seed, n)
    return Counter(_oracle_run(tree, x, y, i, False)[:2] for i in range(n))


def _oracle_run(node, x: int, y: int, i: int, events: bool):
    """(a, b, transcript) of run i of a tree of draws; the transcript is
    None without events."""
    transcript: list[dict] = []
    while isinstance(node[0], ProtocolMixture):
        c = node[1][i]
        transcript.append({"kind": "shared-randomness", "component": c})
        node = node[2][c]
    p, v = node[0], node[1][i]
    if isinstance(p, OtProtocol):
        a, b, _received, calls = oracle_run_ot(p, x, y, v)
        transcript += [{"kind": "ot", "index": k, "in": (pair, c), "out": o}
                       for k, pair, c, o in calls]
    elif isinstance(p, (OneWayProtocol, TwoWayTree, AndProtocol)):
        (a, b), = oracle_exec(p, x, y)
        if isinstance(p, OneWayProtocol):
            transcript.append({"kind": "message", "from": "A", "value": p.msg[x]})
        if isinstance(p, AndProtocol):
            g = _packed(p.pbox, x) & _packed(p.qbox, y)
            transcript += [{"kind": "and", "index": k,
                            "in": (p.pbox[k][x], p.qbox[k][y]),
                            "out": (g >> k) & 1} for k in range(p.t)]
    else:
        a, b, bvec, pin, qin = oracle_kernel(p, x, y)(v)
        if events:
            transcript += [{"kind": "box", "index": k,
                            "in": ((pin >> k) & 1, (qin >> k) & 1),
                            "out": ((v >> k) & 1, (bvec >> k) & 1)} for k in range(p.t)]
    return a, b, transcript if events else None


# The compilers' former closure and loop forms.  ``circuit_to_nlb``'s bit
# tables and ``ordered_to_ot``'s repeated rows must build equal protocols,
# and ``parallel_exact_function``'s kernel pass the same parity table.


def oracle_circuit_to_nlb(c) -> OrderedNlbProtocol:
    """Each share a Python closure (input, own outcome vector) -> bit,
    evaluated entry by entry: time grows with the circuit's depth."""
    xs, ys = 1 << c.nx, 1 << c.ny
    a_sh = [(lambda ab: lambda x, av: (x >> ab) & 1 if ab is not None else 0)(w.a_bit)
            for w in c.inputs]
    b_sh = [(lambda bb: lambda y, bv: (y >> bb) & 1 if bb is not None else 0)(w.b_bit)
            for w in c.inputs]
    boxes = []

    def add_box(pf, qf):
        i = len(boxes)
        if all(pf(x, av) == 0 for x in range(xs) for av in range(1 << i)) \
                or all(qf(y, bv) == 0 for y in range(ys) for bv in range(1 << i)):
            return None
        boxes.append((pf, qf))
        return lambda _inp, vec, i=i: (vec >> i) & 1

    def xor_funcs(f, g):
        return lambda inp, vec: f(inp, vec) ^ g(inp, vec)

    for gate in c.gates:
        if gate[0] == "not":
            a_sh.append((lambda f: lambda x, av: f(x, av) ^ 1)(a_sh[gate[1]]))
            b_sh.append(b_sh[gate[1]])
        elif gate[0] == "xor":
            a_sh.append(xor_funcs(a_sh[gate[1]], a_sh[gate[2]]))
            b_sh.append(xor_funcs(b_sh[gate[1]], b_sh[gate[2]]))
        else:
            _, w1, w2 = gate
            a1, a2, b1, b2 = a_sh[w1], a_sh[w2], b_sh[w1], b_sh[w2]
            cross = [add_box(a1, b2), add_box(a2, b1)]
            if gate[0] == "and":
                fa = lambda x, av, a1=a1, a2=a2: a1(x, av) & a2(x, av)
                fb = lambda y, bv, b1=b1, b2=b2: b1(y, bv) & b2(y, bv)
            else:
                fa = lambda x, av, a1=a1, a2=a2: a1(x, av) | a2(x, av)
                fb = lambda y, bv, b1=b1, b2=b2: b1(y, bv) | b2(y, bv)
            for acc in cross:
                if acc is not None:
                    fa, fb = xor_funcs(fa, acc), xor_funcs(fb, acc)
            a_sh.append(fa)
            b_sh.append(fb)
    t = len(boxes)
    return OrderedNlbProtocol(
        c.nx, c.ny, t,
        tuple(tuple(tuple(pf(x, pre) for pre in range(1 << i)) for x in range(xs))
              for i, (pf, _qf) in enumerate(boxes)),
        tuple(tuple(tuple(qf(y, pre) for pre in range(1 << i)) for y in range(ys))
              for i, (_pf, qf) in enumerate(boxes)),
        tuple(tuple(a_sh[c.output](x, av) for av in range(1 << t)) for x in range(xs)),
        tuple(tuple(b_sh[c.output](y, bv) for bv in range(1 << t)) for y in range(ys)))


def oracle_ordered_to_ot(p: OrderedNlbProtocol) -> OtProtocol:
    """One OT per box, every pair (r_i, r_i ^ p_i) built in a loop over r."""
    xs, ys = 1 << p.nx, 1 << p.ny
    nr = 1 << p.t
    in_a = tuple(tuple(tuple(((r >> i) & 1,
                              ((r >> i) & 1) ^ p.step_a[i][x][r & ((1 << i) - 1)])
                             for r in range(nr))
                       for x in range(xs))
                 for i in range(p.t))
    in_b = tuple(tuple(tuple(p.step_b[i][y][pre] for pre in range(1 << i))
                       for y in range(ys)) for i in range(p.t))
    return OtProtocol(p.nx, p.ny, p.t, (Fraction(1, nr),) * nr, in_a, in_b,
                      tuple(tuple(p.out_a[x][r] for r in range(nr)) for x in range(xs)),
                      tuple(tuple(p.out_b[y][rec] for rec in range(nr)) for y in range(ys)))


def oracle_parallel_exact_function(p: ParallelProtocol):
    """The parity table of a parallel protocol by a loop over every
    input and outcome vector, or None when some input's parity varies."""
    rows = []
    for x in range(1 << p.nx):
        r = 0
        for y in range(1 << p.ny):
            shift = 0
            for i in range(p.t):
                shift |= int(p.pbox[i][x] & p.qbox[i][y]) << i
            vals = {p.out_a[x][a] ^ p.out_b[y][a ^ shift] for a in range(1 << p.t)}
            if len(vals) != 1:
                return None
            r |= int(vals.pop()) << y
        rows.append(r)
    return TruthTable(p.nx, p.ny, tuple(rows))
