"""Protocol representations for every resource model.

Tables are indexed by integer-encoded inputs: Alice's input x in
[0, 2^nx), Bob's y in [0, 2^ny), box-outcome vectors packed
little-endian (bit i is box i).  ``layout`` describes the tables of each
kind once, with each table's array shape; the text format, the shape
checks of ``validate`` and the arrays below all follow it.

Each table is one read-only numpy array of its shape (uint8 bits and OT
pairs, int64 integers).  A field of one table per box or round is a
tuple of them (``pbox[i]`` is box i's table over X).  A tree round,
whose rows have their speakers' widths, is a tuple of 1-D rows; OT
weights are a tuple.  A protocol is valid once built: each constructor
converts its tables with ``_array`` and checks ``validate``'s rules, and
raises ``ProtocolError`` on any violation, so every protocol that exists
can be written and run.  Protocols compare and hash by kind, shapes and
bytes.

A value read off a table is a numpy scalar: convert it with ``int``
before it is printed or shifted, since numpy prints ``np.uint8(1)`` and
a uint8 shift wraps at 8 bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import lcm
from numbers import Integral, Rational
from operator import is_
from types import SimpleNamespace
from typing import Union

import numpy as np


class ProtocolError(ValueError):
    pass


class _Tables:
    """The checked conversion, equality and hash of every protocol kind."""

    def __post_init__(self):
        for field, (label, cells, ndim, indexed) in _SPECS[type(self)].items():
            tab = getattr(self, field)
            if not indexed:
                tab = _array(tab, ndim, cells, label)
            elif isinstance(tab, np.ndarray) and ndim is not None and tab.ndim:
                # the tables are its rows: one conversion, read as views
                tab = tuple(_array(tab, ndim + 1, cells, label))
            else:
                tab = tuple([_array(t, ndim, cells, label, i)
                             for i, t in enumerate(_rows(tab, label))])
            object.__setattr__(self, field, tab)
        _check(self)

    def _state(self):
        return tuple(_key(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self):
        return hash((type(self), self._state()))


def _key(v):
    """A table's shape and bytes (tuples of them for tuples of tables)."""
    if isinstance(v, np.ndarray):
        return v.shape, v.tobytes()
    return tuple(map(_key, v)) if isinstance(v, tuple) else v


@dataclass(frozen=True, eq=False)
class ParallelXorProtocol(_Tables):
    """Parallel boxes, outputs = local term XOR all own box outcomes.

    The "strict" form (local terms identically zero) is the model whose
    optimal box count equals the GF(2) rank of the target matrix.
    """

    nx: int
    ny: int
    t: int
    pbox: tuple[np.ndarray, ...]  # t tables over X, one per box
    qbox: tuple[np.ndarray, ...]  # t tables over Y
    local_a: np.ndarray
    local_b: np.ndarray

    @property
    def strict(self) -> bool:
        return not (np.any(self.local_a) or np.any(self.local_b))


@dataclass(frozen=True, eq=False)
class ParallelProtocol(_Tables):
    """Parallel boxes with arbitrary output tables over (input, outcomes)."""

    nx: int
    ny: int
    t: int
    pbox: tuple[np.ndarray, ...]
    qbox: tuple[np.ndarray, ...]
    out_a: np.ndarray  # out_a[x, avec]
    out_b: np.ndarray  # out_b[y, bvec]


@dataclass(frozen=True, eq=False)
class OrderedNlbProtocol(_Tables):
    """Boxes used in label order; step i sees outcomes of boxes 0..i-1 only.

    ``step_a[i][x, prefix]`` is Alice's input to box i given her first i
    outcomes packed in ``prefix`` (so the table width 2^i enforces the
    ordering structurally).  It reads as a general protocol whose touch
    orders ``sched_a`` and ``sched_b`` are the identity; they are not
    fields, so the text, equality and hash hold only the tables.
    """

    nx: int
    ny: int
    t: int
    step_a: tuple[np.ndarray, ...]
    step_b: tuple[np.ndarray, ...]
    out_a: np.ndarray  # out_a[x, avec]
    out_b: np.ndarray

    sched_a = sched_b = property(lambda self: np.arange(self.t))


@dataclass(frozen=True, eq=False)
class GeneralNlbProtocol(_Tables):
    """Each side uses the boxes in its own order.

    ``sched_a`` is the label order in which Alice touches the boxes;
    ``step_a[pos][x, obs]`` her input at position pos given the outcomes
    she has observed so far (packed in touch order).  Output tables are
    indexed by outcomes in label order.
    """

    nx: int
    ny: int
    t: int
    sched_a: np.ndarray
    step_a: tuple[np.ndarray, ...]
    sched_b: np.ndarray
    step_b: tuple[np.ndarray, ...]
    out_a: np.ndarray
    out_b: np.ndarray


@dataclass(frozen=True, eq=False)
class OneWayProtocol(_Tables):
    """One t-bit message from Alice; parity of the two outputs is the value."""

    nx: int
    ny: int
    t: int
    msg: np.ndarray  # msg[x] in [0, 2^t)
    out_a: np.ndarray
    out_b: np.ndarray  # out_b[m, y]


@dataclass(frozen=True, eq=False)
class TwoWayTree(_Tables):
    """Depth-t deterministic two-way protocol tree.

    Transcripts are packed little-endian (round r bit at position r).
    ``direction[r][prefix]`` is 1 when Alice speaks, and
    ``bit[r][prefix]`` is then a table over X (over Y otherwise).
    """

    nx: int
    ny: int
    t: int
    direction: tuple[np.ndarray, ...]
    bit: tuple[tuple[np.ndarray, ...], ...]
    out_a: np.ndarray  # out_a[transcript, x]
    out_b: np.ndarray  # out_b[transcript, y]

    def transcript(self, x: int, y: int) -> int:
        if not (0 <= x < 1 << self.nx and 0 <= y < 1 << self.ny):
            raise ProtocolError(f"input outside 0 <= x < 2^{self.nx}, 0 <= y < 2^{self.ny}")
        tr = 0
        for r in range(self.t):
            tr |= int(self.bit[r][tr][x if self.direction[r][tr] else y]) << r
        return tr

    def evaluate(self, x: int, y: int) -> tuple[int, int]:
        tr = self.transcript(x, y)
        return int(self.out_a[tr][x]), int(self.out_b[tr][y])


@dataclass(frozen=True, eq=False)
class AndProtocol(_Tables):
    """Parallel secure-AND gates; only Alice receives gate outputs."""

    nx: int
    ny: int
    t: int
    pbox: tuple[np.ndarray, ...]
    qbox: tuple[np.ndarray, ...]
    out_a: np.ndarray  # out_a[x, gate-output vector]


@dataclass(frozen=True, eq=False)
class OtProtocol(_Tables):
    """Sequence of 2-1 oblivious transfers; only Bob receives outputs.

    Alice's private randomness ranges over ``len(r_weights)`` values.
    Call i: Alice supplies the pair ``in_a[i][x, r]``, Bob supplies the
    choice bit ``in_b[i][y, received]`` from the bits received so far.
    """

    nx: int
    ny: int
    t: int
    r_weights: tuple[Fraction, ...]
    in_a: tuple[np.ndarray, ...]
    in_b: tuple[np.ndarray, ...]
    out_a: np.ndarray  # out_a[x, r]
    out_b: np.ndarray  # out_b[y, received]

    @cached_property
    def r_ints(self) -> tuple[tuple[int, ...], int]:
        """The weights as _over_lcm's integer numerators and denominator."""
        return _over_lcm(self.r_weights)


@dataclass(frozen=True)
class ProtocolMixture:
    """Shared randomness as a finite weighted set of deterministic protocols."""

    components: tuple[tuple[Fraction, "Protocol"], ...]

    def __post_init__(self):
        # a list of pairs is held as the tuples the parser builds, so the
        # mixture hashes and equals what it writes; its components were
        # checked when they were built
        comps = self.components
        if isinstance(comps, (tuple, list)):
            object.__setattr__(self, "components", tuple(
                tuple(c) if isinstance(c, list) else c for c in comps))
        _check(self)

    # the dimensions of its first component
    nx = property(lambda self: self.components[0][1].nx)
    ny = property(lambda self: self.components[0][1].ny)
    t = property(lambda self: self.components[0][1].t)


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


def _refuse(label: str, why: str):
    raise ProtocolError(f"invalid protocol: {label}: {why}")


def _rows(tab, label: str):
    """tab if it is a table (of rows or of tables): a tuple, a list or a
    numpy array of one or more axes; else a ProtocolError."""
    if isinstance(tab, (tuple, list)) or isinstance(tab, np.ndarray) and tab.ndim:
        return tab
    _refuse(label, "not a table")


def layout(kind, nx: int, ny: int, t: int, p):
    """Every table of a protocol kind as (label, field, index, cells,
    shape), in text-format order.

    The table is ``getattr(p, field)``, or entry ``index`` of it, and
    ``shape`` is its array shape: ``(width,)`` for one line, ``(rows,
    width)`` for rows of bits, ``(rows, width, 2)`` for OT pairs.  A tree
    round's shape is a tuple of its 2^r rows' shapes, None for a row that
    a short direction table gives no speaker; OT weights, any number of
    them, have shape None.  Shapes that depend on earlier tables (tree
    directions, the size of OT randomness) are read from ``p`` only after
    those tables are yielded, so a parser can fill ``p`` as it goes.
    """
    xs, ys = 1 << nx, 1 << ny
    if kind in (ParallelXorProtocol, ParallelProtocol, AndProtocol):
        for field, dom in (("pbox", xs), ("qbox", ys)):
            for i in range(t):
                yield f"{field} {i}", field, i, BITS, (dom,)
    if kind is ParallelXorProtocol:
        yield "localA", "local_a", None, BITS, (xs,)
        yield "localB", "local_b", None, BITS, (ys,)
    elif kind is OneWayProtocol:
        yield "msg", "msg", None, INTS, (xs,)
        yield "outA", "out_a", None, BITS, (xs,)
        yield "outB", "out_b", None, BITS, (1 << t, ys)
    elif kind is TwoWayTree:
        for r in range(t):
            yield f"dir {r}", "direction", r, BITS, (1 << r,)
            rows = [(xs,) if v == 1 else (ys,) for v in p.direction[r]] + [None] * (1 << r)
            yield f"bit {r}", "bit", r, BITS, tuple(rows[:1 << r])
        yield "outA", "out_a", None, BITS, (1 << t, xs)
        yield "outB", "out_b", None, BITS, (1 << t, ys)
    elif kind is OtProtocol:
        yield "rweights", "r_weights", None, FRACS, None
        nr = len(p.r_weights)
        for i in range(t):
            yield f"inA {i}", "in_a", i, PAIRS, (xs, nr, 2)
            yield f"inB {i}", "in_b", i, BITS, (ys, 1 << i)
        yield "outA", "out_a", None, BITS, (xs, nr)
        yield "outB", "out_b", None, BITS, (ys, 1 << t)
    else:
        yield "outA", "out_a", None, BITS, (xs, 1 << t)
        if kind is not AndProtocol:
            yield "outB", "out_b", None, BITS, (ys, 1 << t)
    if kind is GeneralNlbProtocol:
        yield "schedA", "sched_a", None, INTS, (t,)
        yield "schedB", "sched_b", None, INTS, (t,)
    if kind in (OrderedNlbProtocol, GeneralNlbProtocol):
        for label, field, dom in (("stepA", "step_a", xs), ("stepB", "step_b", ys)):
            for i in range(t):
                yield f"{label} {i}", field, i, BITS, (dom, 1 << i)


def _specs(kind) -> dict:
    """{field: (label, cells, ndim, indexed)} for each table field of a
    kind: its label (without the index of a field of one table per box),
    the cell type, the dimensions of its array (None for a tree round, a
    tuple of 1-D rows of their own widths, and for OT weights) and
    whether the field is a tuple of tables."""
    probe = SimpleNamespace(direction=((1,),), r_weights=())
    specs = {}
    for label, field, index, cells, shape in layout(kind, 0, 0, 1, probe):
        ndim = None if shape is None or isinstance(shape[0], tuple) else len(shape)
        specs[field] = (label.rsplit(" ", 1)[0] if index is not None else label,
                        cells, ndim, index is not None)
    return specs


# each array cell type's dtype, and the largest value it holds
_DTYPES = {BITS: (np.dtype(np.uint8), 1), PAIRS: (np.dtype(np.uint8), 1),
           INTS: (np.dtype(np.int64), (1 << 63) - 1)}


def _array(tab, ndim: int | None, cells, label: str, index: int | None = None):
    """tab as a read-only C-contiguous array of ndim dimensions and the
    cells' dtype: a tuple of 1-D rows for ndim None, and a tuple for OT
    weights.  A ProtocolError naming label (``label index`` for entry
    index of a field of one table per box) if tab is ragged, not a table
    of ndim dimensions, or needs a cast to that dtype and has a cell that
    is no integer in [0, largest value], checked before the cast, which
    would wrap.  Cells already of the dtype are kept; validate checks
    that bits are 0 or 1."""
    if cells == FRACS:
        return tuple(_rows(tab, label))
    dtype, top = _DTYPES[cells]
    if isinstance(tab, np.ndarray) and tab.dtype == dtype and tab.ndim == ndim:
        flags = tab.flags
        if not flags.writeable and flags.c_contiguous:
            return tab
        a = tab.copy()
    else:
        if index is not None:
            label = f"{label} {index}"
        if ndim is None:
            return tuple(_array(row, 1, cells, f"{label}: row {k}")
                         for k, row in enumerate(_rows(tab, label)))
        tab = _rows(tab, label)
        try:
            a = np.array(tab)
        except (ValueError, TypeError):
            _refuse(label, "ragged table")
        if a.ndim != ndim:
            _refuse(label, f"not a table of {ndim} dimensions")
        if a.dtype != dtype:
            if a.size and (a.dtype.kind not in "biu" or a.min() < 0 or a.max() > top):
                _refuse(label, f"entry not of type {cells}")
            a = a.astype(dtype) if a.size else np.empty(a.shape, dtype)  # complex would warn
    a.setflags(write=False)
    return a


_SPECS = {kind: _specs(kind) for kind in KIND_NAMES}


def _binary(tabs) -> bool:
    """Whether uint8 arrays hold only 0 and 1: one max over their bytes
    joined."""
    cells = b"".join(tabs)
    return not cells or np.frombuffer(cells, np.uint8).max() <= 1


def _size_error(shape: tuple, want: tuple) -> str | None:
    """What keeps an array of shape from shape want, or None."""
    if shape == want:
        return None
    what = (f"{shape[0]} entries, expected {want[0]}" if len(want) == 1
            else f"shape {shape}, expected {want}")
    return what + (": reads future or absent inputs" if any(s > w for s, w in zip(shape, want))
                   else ": not total")


def _table_error(tab, shape, cells) -> str | None:
    """What keeps a converted table from layout's shape with cells of
    type cells, or None if nothing does."""
    if shape is None:
        return None
    if isinstance(tab, tuple):  # a tree round: rows of their own shapes
        return _size_error((len(tab),), (len(shape),)) or next(
            (f"row {k}: {err}" for k, (row, s) in enumerate(zip(tab, shape))
             if (err := _table_error(row, s, cells))), None)
    if err := _size_error(tab.shape, shape):
        return err
    return None if cells == INTS or _binary((tab,)) else f"entry not of type {cells}"


def _shapes(kind, nx: int, ny: int, t: int, p) -> tuple:
    """The shape of each array table of p, in the order _table_errors
    lists them: field by field, a tree round as a tuple of row shapes."""
    shapes = {field: [] for field in _SPECS[kind]}
    for _label, field, _index, _cells, shape in layout(kind, nx, ny, t, p):
        if shape is not None:
            shapes[field].append(shape)
    return tuple(s for field in shapes.values() for s in field)


@lru_cache(maxsize=256)
def _plan_shapes(kind, nx: int, ny: int, t: int, nr: int) -> tuple:
    """_shapes of a kind whose shapes follow from its dimensions and its
    OT weight count nr: every kind but the tree."""
    return _shapes(kind, nx, ny, t, SimpleNamespace(r_weights=range(nr)))


def _table_errors(p) -> list[str]:
    """What keeps p's tables from layout's shapes and 0/1 bits: one shape
    check and one _binary over all of them, and only when that fails a
    walk that names each bad table."""
    kind, shapes, bits = type(p), [], []
    for field, (_label, cells, ndim, indexed) in _SPECS[kind].items():
        if cells == FRACS:
            continue
        tabs = getattr(p, field) if indexed else (getattr(p, field),)
        if ndim is None:  # tree rounds: rows of their own widths
            shapes += [tuple(row.shape for row in tab) for tab in tabs]
            tabs = [row for tab in tabs for row in tab]
        else:
            shapes += [tab.shape for tab in tabs]
        if cells != INTS:
            bits += tabs
    want = (_shapes(kind, p.nx, p.ny, p.t, p) if kind is TwoWayTree else
            _plan_shapes(kind, p.nx, p.ny, p.t, len(p.r_weights) if kind is OtProtocol else 0))
    if tuple(shapes) == want and _binary(bits):
        return []
    out = []
    for label, field, index, cells, shape in layout(kind, p.nx, p.ny, p.t, p):
        tab = getattr(p, field)
        if err := _table_error(tab if index is None else tab[index], shape, cells):
            out.append(f"{label}: {err}")
    return out


def _rational(weights) -> bool:
    """Whether every weight is a rational number, checked once per type."""
    return all(issubclass(kind, Rational) for kind in set(map(type, weights)))


def _over_lcm(weights) -> tuple[tuple[int, ...], int]:
    """One or more rational weights as integer numerators over the lcm
    of their denominators, and that lcm.  One weight object repeated, as
    the OT compiler and the parser give uniform randomness, is read once."""
    if weights and all(map(is_, weights, repeat(weights[0]))):
        return (weights[0].numerator,) * len(weights), weights[0].denominator
    dens = [w.denominator for w in weights]
    den = lcm(*set(dens))
    return tuple(w.numerator * (den // d) for w, d in zip(weights, dens)), den


def _weight_errors(nums, den: int, bad_sum: str, nonpositive: str) -> list[str]:
    """The violations of one or more rational weights, as _over_lcm's
    integer numerators over den, that must be positive and sum to 1;
    bad_sum is formatted with the sum, a Fraction, if not 1."""
    total = sum(nums)
    return ([bad_sum.format(Fraction(total, den))] if total != den else []) + (
        [nonpositive] if min(nums) <= 0 else [])


def validate(p) -> list[str]:
    """The rules a protocol's converted tables keep, as human-readable
    violations; empty means it keeps them.  They are: integer,
    nonnegative widths and box count, one table per box, each table of
    ``layout`` of its shape and of 0/1 bits, schedules that permute the
    box labels, messages in range and OT weights; for a mixture,
    (rational weight, protocol) pairs with positive weights summing to 1,
    of one kind, not a mixture, and one set of dimensions.  Constructors
    raise on any violation, so every protocol that exists keeps them all.
    """
    if isinstance(p, ProtocolMixture):
        comps = p.components
        if not isinstance(comps, tuple) or not all(
                isinstance(c, tuple) and len(c) == 2 for c in comps):
            return ["mixture: components not (weight, protocol) pairs"]
        if not comps:
            return ["mixture: no components"]
        if bad := [f"{type(c).__name__} is not a protocol kind" for _w, c in comps
                   if type(c) not in KIND_NAMES]:
            return bad
        if not _rational([w for w, _ in comps]):
            return ["mixture: weight not a rational number"]
        out = _weight_errors(*_over_lcm([w for w, _ in comps]),
                             "mixture: weights sum to {}, not 1", "mixture: nonpositive weight")
        if len({type(c) for _, c in comps}) > 1:
            out.append("mixture: components of mixed kinds")
        if len({(c.nx, c.ny, c.t) for _, c in comps}) > 1:
            out.append("mixture: components disagree on dimensions or box count")
        return out
    dims = (p.nx, p.ny, p.t)
    # int first: the Integral check alone costs about 1 us a call
    if not all(type(v) is int or isinstance(v, Integral) for v in dims):
        return ["input width or box count not an integer"]
    if min(dims) < 0:
        return ["negative input width or box count"]
    # layout reads a table of each box; so do the rules past it
    if out := [f"{label}: expected {p.t} tables"
               for field, (label, _cells, _ndim, indexed) in _SPECS[type(p)].items()
               if indexed and len(getattr(p, field)) != p.t]:
        return out
    out = _table_errors(p)
    if isinstance(p, GeneralNlbProtocol):
        for side, sched in (("A", p.sched_a), ("B", p.sched_b)):
            if sorted(sched.tolist()) != list(range(p.t)):
                out.append(f"sched{side}: not a permutation of box labels")
    elif isinstance(p, OneWayProtocol):
        if not all(0 <= m < 1 << p.t for m in p.msg.tolist()):
            out.append("msg value outside the t-bit message space")
    elif isinstance(p, OtProtocol):
        if not p.r_weights:
            out.append("empty private-randomness domain")
        elif not _rational(p.r_weights):
            out.append("private-randomness weight not a rational number")
        else:
            out += _weight_errors(*p.r_ints, "private-randomness weights do not sum to 1",
                                  "nonpositive private-randomness weight")
    return out


def _check(p) -> None:
    """A ProtocolError listing what validate finds wrong with p, if anything."""
    if errs := validate(p):
        raise ProtocolError("invalid protocol: " + "; ".join(errs))
