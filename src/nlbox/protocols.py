"""Protocol representations for every resource model.

All tables are tuples indexed by integer-encoded inputs: Alice's input
x in [0, 2^nx), Bob's y in [0, 2^ny), box-outcome vectors packed
little-endian (bit i is box i).  Values are immutable after
construction.  ``layout`` describes the tables of each kind once; the
text format and the shape checks of ``validate`` both follow it.
``validate`` reports violations instead of raising so that malformed
protocols can be diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
from typing import Union


@dataclass(frozen=True)
class ParallelXorProtocol:
    """Parallel boxes, outputs = local term XOR all own box outcomes.

    The "strict" form (local terms identically zero) is the model whose
    optimal box count equals the GF(2) rank of the target matrix.
    """

    nx: int
    ny: int
    t: int
    pbox: tuple[tuple[int, ...], ...]  # t tables over X
    qbox: tuple[tuple[int, ...], ...]  # t tables over Y
    local_a: tuple[int, ...]
    local_b: tuple[int, ...]

    @property
    def strict(self) -> bool:
        return not any(self.local_a) and not any(self.local_b)


@dataclass(frozen=True)
class ParallelProtocol:
    """Parallel boxes with arbitrary output tables over (input, outcomes)."""

    nx: int
    ny: int
    t: int
    pbox: tuple[tuple[int, ...], ...]
    qbox: tuple[tuple[int, ...], ...]
    out_a: tuple[tuple[int, ...], ...]  # out_a[x][avec]
    out_b: tuple[tuple[int, ...], ...]  # out_b[y][bvec]


@dataclass(frozen=True)
class OrderedNlbProtocol:
    """Boxes used in label order; step i sees outcomes of boxes 0..i-1 only.

    ``step_a[i][x][prefix]`` is Alice's input to box i given her first i
    outcomes packed in ``prefix`` (so the table width 2^i enforces the
    ordering structurally).
    """

    nx: int
    ny: int
    t: int
    step_a: tuple[tuple[tuple[int, ...], ...], ...]
    step_b: tuple[tuple[tuple[int, ...], ...], ...]
    out_a: tuple[tuple[int, ...], ...]  # out_a[x][avec]
    out_b: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneralNlbProtocol:
    """Each side uses the boxes in its own order.

    ``sched_a`` is the label order in which Alice touches the boxes;
    ``step_a[pos][x][obs]`` her input at position pos given the outcomes
    she has observed so far (packed in touch order).  Output tables are
    indexed by outcomes in label order.
    """

    nx: int
    ny: int
    t: int
    sched_a: tuple[int, ...]
    step_a: tuple[tuple[tuple[int, ...], ...], ...]
    sched_b: tuple[int, ...]
    step_b: tuple[tuple[tuple[int, ...], ...], ...]
    out_a: tuple[tuple[int, ...], ...]
    out_b: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OneWayProtocol:
    """One t-bit message from Alice; parity of the two outputs is the value."""

    nx: int
    ny: int
    t: int
    msg: tuple[int, ...]  # msg[x] in [0, 2^t)
    out_a: tuple[int, ...]
    out_b: tuple[tuple[int, ...], ...]  # out_b[m][y]


@dataclass(frozen=True)
class TwoWayTree:
    """Depth-t deterministic two-way protocol tree.

    Transcripts are packed little-endian (round r bit at position r).
    ``direction[r][prefix]`` is 1 when Alice speaks, and
    ``bit[r][prefix]`` is then a table over X (over Y otherwise).
    """

    nx: int
    ny: int
    t: int
    direction: tuple[tuple[int, ...], ...]
    bit: tuple[tuple[tuple[int, ...], ...], ...]
    out_a: tuple[tuple[int, ...], ...]  # out_a[transcript][x]
    out_b: tuple[tuple[int, ...], ...]  # out_b[transcript][y]

    def transcript(self, x: int, y: int) -> int:
        tr = 0
        for r in range(self.t):
            if self.direction[r][tr]:
                c = self.bit[r][tr][x]
            else:
                c = self.bit[r][tr][y]
            tr |= c << r
        return tr

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        tr = self.transcript(x, y)
        return self.out_a[tr][x], self.out_b[tr][y]


@dataclass(frozen=True)
class AndProtocol:
    """Parallel secure-AND gates; only Alice receives gate outputs."""

    nx: int
    ny: int
    t: int
    pbox: tuple[tuple[int, ...], ...]
    qbox: tuple[tuple[int, ...], ...]
    out_a: tuple[tuple[int, ...], ...]  # out_a[x][gate-output vector]

    def gate_vector(self, x: int, y: int) -> int:
        v = 0
        for i in range(self.t):
            v |= (self.pbox[i][x] & self.qbox[i][y]) << i
        return v


@dataclass(frozen=True)
class OtProtocol:
    """Sequence of 2-1 oblivious transfers; only Bob receives outputs.

    Alice's private randomness ranges over ``len(r_weights)`` values.
    Call i: Alice supplies the pair ``in_a[i][x][r]``, Bob supplies the
    choice bit ``in_b[i][y][received]`` from the bits received so far.
    """

    nx: int
    ny: int
    t: int
    r_weights: tuple[Fraction, ...]
    in_a: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    in_b: tuple[tuple[tuple[int, ...], ...], ...]
    out_a: tuple[tuple[int, ...], ...]  # out_a[x][r]
    out_b: tuple[tuple[int, ...], ...]  # out_b[y][received]


@dataclass(frozen=True)
class ProtocolMixture:
    """Shared randomness as a finite weighted set of deterministic protocols."""

    components: tuple[tuple[Fraction, "Protocol"], ...]

    @property
    def nx(self) -> int:
        return self.components[0][1].nx

    @property
    def ny(self) -> int:
        return self.components[0][1].ny

    @property
    def t(self) -> int:
        return self.components[0][1].t


Protocol = Union[ParallelXorProtocol, ParallelProtocol, OrderedNlbProtocol,
                 GeneralNlbProtocol, OneWayProtocol, TwoWayTree, AndProtocol,
                 OtProtocol, ProtocolMixture]

NLB_KINDS = (ParallelXorProtocol, ParallelProtocol, OrderedNlbProtocol,
             GeneralNlbProtocol)


KIND_NAMES = {
    ParallelXorProtocol: "parallel-xor",
    ParallelProtocol: "parallel",
    OrderedNlbProtocol: "ordered",
    GeneralNlbProtocol: "general",
    OneWayProtocol: "oneway",
    TwoWayTree: "twoway",
    AndProtocol: "and",
    OtProtocol: "ot",
}

# cell types of a table: bits, integers, fractions, OT input pairs
BITS, INTS, FRACS, PAIRS = "bits", "ints", "fracs", "pairs"


def _entry(tab, i):
    """``tab[i]``, or None when tab is not a table or has no entry i."""
    return tab[i] if isinstance(tab, (tuple, list)) and i < len(tab) else None


def layout(kind, nx: int, ny: int, t: int, p):
    """Every table of a protocol kind as (label, field, index, cells,
    rows, width), in text-format order.

    The table is ``getattr(p, field)``, or entry ``index`` of it.  It has
    ``rows`` rows of ``width`` cells (an int, or one int per row), or is
    one line of ``width`` cells (any number if None) when ``rows`` is
    None.  Widths that depend on earlier tables (tree directions, the
    size of OT randomness) are read from ``p`` only after those tables
    are yielded, so a parser can fill ``p`` as it goes.
    """
    xs, ys = 1 << nx, 1 << ny
    if kind in (ParallelXorProtocol, ParallelProtocol, AndProtocol):
        for field, dom in (("pbox", xs), ("qbox", ys)):
            for i in range(t):
                yield f"{field} {i}", field, i, BITS, None, dom
    if kind is ParallelXorProtocol:
        yield "localA", "local_a", None, BITS, None, xs
        yield "localB", "local_b", None, BITS, None, ys
    elif kind is OneWayProtocol:
        yield "msg", "msg", None, INTS, None, xs
        yield "outA", "out_a", None, BITS, None, xs
        yield "outB", "out_b", None, BITS, 1 << t, ys
    elif kind is TwoWayTree:
        for r in range(t):
            yield f"dir {r}", "direction", r, BITS, None, 1 << r
            d = _entry(p.direction, r)
            d = d if isinstance(d, (tuple, list)) else ()
            yield f"bit {r}", "bit", r, BITS, 1 << r, tuple(xs if v == 1 else ys for v in d)
        yield "outA", "out_a", None, BITS, 1 << t, xs
        yield "outB", "out_b", None, BITS, 1 << t, ys
    elif kind is OtProtocol:
        yield "rweights", "r_weights", None, FRACS, None, None
        nr = len(p.r_weights)
        for i in range(t):
            yield f"inA {i}", "in_a", i, PAIRS, xs, nr
            yield f"inB {i}", "in_b", i, BITS, ys, 1 << i
        yield "outA", "out_a", None, BITS, xs, nr
        yield "outB", "out_b", None, BITS, ys, 1 << t
    else:
        yield "outA", "out_a", None, BITS, xs, 1 << t
        if kind is not AndProtocol:
            yield "outB", "out_b", None, BITS, ys, 1 << t
    if kind is GeneralNlbProtocol:
        yield "schedA", "sched_a", None, INTS, None, t
        yield "schedB", "sched_b", None, INTS, None, t
    if kind in (OrderedNlbProtocol, GeneralNlbProtocol):
        for label, field, dom in (("stepA", "step_a", xs), ("stepB", "step_b", ys)):
            for i in range(t):
                yield f"{label} {i}", field, i, BITS, dom, 1 << i


# the cell types whose every entry validate checks
_CELL_CHECKS = {
    BITS: frozenset((0, 1)).issuperset,
    PAIRS: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}).issuperset,
}


def _shape_error(tab, n, cells) -> str | None:
    """What keeps tab from being a line of n cells (any number if n is
    None) of type cells, or None if nothing does."""
    if not isinstance(tab, (tuple, list)):
        return "not a table"
    if n is not None and len(tab) != n:
        return f"{len(tab)} entries, expected {n}" + (
            ": reads future or absent inputs" if len(tab) > n else ": not total")
    try:
        if cells not in _CELL_CHECKS or _CELL_CHECKS[cells](tab):
            return None
    except TypeError:  # an unhashable entry
        pass
    return f"entry not of type {cells}"


def validate(p) -> list[str]:
    """Structural audit: every table of ``layout`` has its shape and cell
    type, plus mixture weights, schedules, message range and OT weights.

    Returns a list of human-readable violations; empty means ok.
    """
    out: list[str] = []
    if isinstance(p, ProtocolMixture):
        if not p.components:
            return ["mixture: no components"]
        total = sum((w for w, _ in p.components), Fraction(0))
        if total != 1:
            out.append(f"mixture: weights sum to {total}, not 1")
        if any(w <= 0 for w, _ in p.components):
            out.append("mixture: nonpositive weight")
        if len({type(c) for _, c in p.components}) > 1:
            out.append("mixture: components of mixed kinds")
        if len({(c.nx, c.ny, c.t) for _, c in p.components}) > 1:
            out.append("mixture: components disagree on dimensions or box count")
        for _, c in p.components:
            out.extend(validate(c))
        return out
    if type(p) not in KIND_NAMES:
        return [f"{type(p).__name__} is not a protocol kind"]
    if min(p.nx, p.ny, p.t) < 0:
        return ["negative input width or box count"]

    # tables expected per indexed field; None for a field that is one table
    counts = {f.name: 0 for f in fields(p)[3:]}
    for label, field, index, cells, rows, width in layout(type(p), p.nx, p.ny, p.t, p):
        tab = getattr(p, field)
        if index is None:
            counts[field] = None
        else:
            counts[field] += 1
            tab = _entry(tab, index)
        if rows is None:
            err = _shape_error(tab, width, cells)
        else:
            err = _shape_error(tab, rows, None)
            widths = width if isinstance(width, tuple) else repeat(width)
            for k, (row, w) in enumerate(zip(tab if err is None else (), widths)):
                if row_err := _shape_error(row, w, cells):
                    err = f"row {k}: {row_err}"
                    break
        if err:
            out.append(f"{label}: {err}")
    for field, n in counts.items():
        tabs = getattr(p, field)
        if n is not None and (not isinstance(tabs, (tuple, list)) or len(tabs) != n):
            out.append(f"{field}: expected {n} tables")

    if isinstance(p, GeneralNlbProtocol):
        for side, sched in (("A", p.sched_a), ("B", p.sched_b)):
            if sorted(sched) != list(range(p.t)):
                out.append(f"sched{side}: not a permutation of box labels")
    if isinstance(p, OneWayProtocol):
        if any(not 0 <= m < 1 << p.t for m in p.msg):
            out.append("msg value outside the t-bit message space")
    if isinstance(p, OtProtocol):
        if not p.r_weights:
            out.append("empty private-randomness domain")
        elif sum(p.r_weights, Fraction(0)) != 1:
            out.append("private-randomness weights do not sum to 1")
        if any(w <= 0 for w in p.r_weights):
            out.append("nonpositive private-randomness weight")
    return out
