"""Protocol representations for every resource model.

Tables are indexed by integer-encoded inputs: Alice's input x in
[0, 2^nx), Bob's y in [0, 2^ny), box-outcome vectors packed
little-endian (bit i is box i).  ``layout`` describes the tables of each
kind once; the text format, the shape checks of ``validate`` and the
arrays below all follow it.

Each table is one read-only numpy array: a bit table of rows is
``(rows, width)`` uint8, OT input pairs are ``(rows, width, 2)`` uint8
and a one-line table is 1-D (uint8 bits, int64 integers).  A field of
one table per box or round is a tuple of them (``pbox[i]`` is box i's
table over X).  A tree round, whose rows have their speakers' widths,
is a tuple of 1-D rows; OT weights are a tuple.  A table is
well-formed exactly when ``_array``, the constructors' conversion,
holds it as such an array, of only 0s and 1s for bits and pairs;
``validate`` asks the same, so every protocol it accepts can be
written and run.  ``_array`` keeps as given a table that is ragged, not
a table, or needs a cast from a float, complex, Fraction or out-of-range
cell.  Protocols compare and hash by kind, shapes and bytes.

A value read off a table is a numpy scalar: convert it with ``int``
before it is printed or shifted, since numpy prints ``np.uint8(1)`` and
a uint8 shift wraps at 8 bits.  ``validate`` reports violations instead
of raising so that malformed protocols can be diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
from math import lcm
from numbers import Rational
from types import SimpleNamespace
from typing import Union

import numpy as np


class _Tables:
    """The array conversion, equality and hash of every protocol kind."""

    def __post_init__(self):
        for field, (cells, ndim, indexed) in _SPECS[type(self)].items():
            tab = getattr(self, field)
            convert = _round if ndim is None else _array
            if not indexed:
                tab = convert(tab, ndim, cells)
            elif isinstance(tab, np.ndarray) and ndim is not None and tab.ndim:
                # the tables are its rows: one conversion, read as views
                tab = tuple(_array(tab, ndim + 1, cells))
            elif _is_table(tab):
                tab = tuple(convert(t, ndim, cells) for t in tab)
            object.__setattr__(self, field, tab)

    def _state(self):
        return tuple(_key(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self):
        return hash((type(self), self._state()))


def _key(v):
    """A table's shape and bytes (tuples of them for tuples of tables); a
    field of no tables is () however it was given."""
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes()) if v.size else ()
    if isinstance(v, (tuple, list)):
        return tuple(map(_key, v))
    return v


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
    ordering structurally).
    """

    nx: int
    ny: int
    t: int
    step_a: tuple[np.ndarray, ...]
    step_b: tuple[np.ndarray, ...]
    out_a: np.ndarray  # out_a[x, avec]
    out_b: np.ndarray


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


@dataclass(frozen=True)
class ProtocolMixture:
    """Shared randomness as a finite weighted set of deterministic protocols."""

    components: tuple[tuple[Fraction, "Protocol"], ...]

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


def _is_table(tab) -> bool:
    """Whether tab is a tuple, a list or a numpy array of one or more axes."""
    return isinstance(tab, (tuple, list)) or isinstance(tab, np.ndarray) and tab.ndim > 0


def _entry(tab, i):
    """``tab[i]``, or None when tab is not a table or has no entry i."""
    return tab[i] if _is_table(tab) and i < len(tab) else None


def _ints(tab) -> list:
    """The entries of a line as _array holds it, int64; [-1], in no range
    or permutation, when it holds no such line, and [] for no table."""
    a = _array(tab, 1, INTS)
    if isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 1:
        return a.tolist()
    return [-1] if _is_table(tab) else []


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
            d = _ints(_entry(p.direction, r))
            yield f"bit {r}", "bit", r, BITS, 1 << r, tuple(xs if v == 1 else ys for v in d)
        yield "outA", "out_a", None, BITS, 1 << t, xs
        yield "outB", "out_b", None, BITS, 1 << t, ys
    elif kind is OtProtocol:
        yield "rweights", "r_weights", None, FRACS, None, None
        nr = len(p.r_weights) if _is_table(p.r_weights) else 0
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


def _specs(kind) -> dict:
    """{field: (cells, ndim, indexed)} for each table field of a kind: the
    cell type, the dimensions of its array (None for a tuple of 1-D rows
    of their own widths) and whether the field is a tuple of tables."""
    probe = SimpleNamespace(direction=((1,),), r_weights=())
    specs = {}
    for _label, field, index, cells, rows, width in layout(kind, 0, 0, 1, probe):
        ndim = 1 if rows is None else None if isinstance(width, tuple) else 2 + (cells == PAIRS)
        specs[field] = (cells, ndim, index is not None)
    return specs


# each array cell type's dtype, and the largest value it holds
_DTYPES = {BITS: (np.dtype(np.uint8), 1), PAIRS: (np.dtype(np.uint8), 1),
           INTS: (np.dtype(np.int64), (1 << 63) - 1)}


def _array(tab, ndim: int, cells):
    """tab as a read-only C-contiguous array of ndim dimensions and the
    cells' dtype; tab itself when it is ragged, not a table of ndim
    dimensions, or needs a cast to that dtype and has a cell outside
    [0, largest value], checked before the cast, which would wrap.  Cells
    already of the dtype are kept as they are; validate checks them.  OT
    weights become a tuple."""
    if cells == FRACS:
        return tuple(tab) if _is_table(tab) else tab
    dtype, top = _DTYPES[cells]
    if isinstance(tab, np.ndarray) and tab.dtype == dtype and tab.ndim == ndim:
        flags = tab.flags
        if not flags.writeable and flags.c_contiguous:
            return tab
        a = tab.copy()
    elif _is_table(tab):
        try:
            a = np.array(tab)
        except (ValueError, TypeError):
            return tab
        if a.ndim != ndim:
            return tab
        if a.dtype != dtype:
            if a.size and (a.dtype.kind not in "biu" or a.min() < 0 or a.max() > top):
                return tab
            a = a.astype(dtype)
    else:
        return tab
    a.setflags(write=False)
    return a


def _round(tab, _ndim, cells):
    """A tree round, a table of 1-D rows of their own widths: each row an
    _array."""
    return tuple(_array(row, 1, cells) for row in tab) if _is_table(tab) else tab


_SPECS = {kind: _specs(kind) for kind in KIND_NAMES}

# the shape of one cell of a table of bits or of OT input pairs, both uint8
_CELL_SHAPES, _UINT8 = {BITS: (), PAIRS: (2,)}, _DTYPES[BITS][0]


def _binary(tab: np.ndarray) -> bool:
    """Whether a uint8 array holds only 0 and 1: deleting those bytes
    leaves none, which on the short lines most tables are costs a fifth
    of a reduction (0.2 against 1.1 us) and on 2^16 cells 31 us."""
    return not tab.tobytes().translate(None, b"\0\1")


def _cells_ok(tab, shape: tuple, cells) -> bool:
    """Whether _array holds tab as a uint8 array of shape (then the
    cell's) that is _binary; a uint8 array is read as it is."""
    shape += _CELL_SHAPES[cells]
    if getattr(tab, "dtype", None) != _UINT8:
        tab = _array(tab, len(shape), cells)
        if getattr(tab, "dtype", None) != _UINT8:
            return False
    return tab.shape == shape and _binary(tab)


def _shape_error(tab, n, cells) -> str | None:
    """What keeps tab from being a line of n cells (any number if n is
    None) of type cells, or None if nothing does."""
    if not _is_table(tab):
        return "not a table"
    if n is not None and len(tab) != n:
        return f"{len(tab)} entries, expected {n}" + (
            ": reads future or absent inputs" if len(tab) > n else ": not total")
    if cells not in _CELL_SHAPES or _cells_ok(tab, (len(tab),), cells):
        return None
    return f"entry not of type {cells}"


def _table_error(tab, rows: int, width, cells) -> str | None:
    """What keeps tab from being ``rows`` rows of ``width`` cells of type
    cells, naming the first bad row, or None if nothing does: one
    _cells_ok, else a walk of its rows."""
    if not isinstance(width, tuple) and _cells_ok(tab, (rows, width), cells):
        return None
    if err := _shape_error(tab, rows, None):
        return err
    widths = width if isinstance(width, tuple) else repeat(width)
    for k, (row, w) in enumerate(zip(tab, widths)):
        if row_err := _shape_error(row, w, cells):
            return f"row {k}: {row_err}"
    return None


def _rational(weights) -> bool:
    """Whether every weight is a rational number, checked once per type."""
    return all(issubclass(kind, Rational) for kind in set(map(type, weights)))


def _weight_errors(weights, bad_sum: str, nonpositive: str) -> list[str]:
    """The violations of one or more rational weights that must be
    positive and sum to 1, summed in integers over the lcm of their
    denominators; bad_sum is formatted with the sum, a Fraction, if not 1."""
    nums, dens = [w.numerator for w in weights], [w.denominator for w in weights]
    den = lcm(*set(dens))
    total = sum(n * (den // d) for n, d in zip(nums, dens))
    return ([bad_sum.format(Fraction(total, den))] if total != den else []) + (
        [nonpositive] if min(nums) <= 0 else [])


def _structure_error(p) -> str | None:
    """What keeps p from being a protocol kind or a mixture of one or
    more (weight, protocol) pairs of rational weights, or None: all the
    engine needs to draw a mixture's leaves."""
    if not isinstance(p, ProtocolMixture):
        return None if type(p) in KIND_NAMES else f"{type(p).__name__} is not a protocol kind"
    comps = p.components
    if not _is_table(comps) or not all(_is_table(c) and len(c) == 2 for c in comps):
        return "mixture: components not (weight, protocol) pairs"
    if not len(comps):
        return "mixture: no components"
    return None if _rational([w for w, _ in comps]) else "mixture: weight not a rational number"


def validate(p) -> list[str]:
    """Structural audit: every table of ``layout`` has its shape and cell
    type, plus mixture weights, schedules, message range and OT weights.

    Returns a list of human-readable violations; empty means ok.
    """
    if err := _structure_error(p):
        return [err]
    out: list[str] = []
    if isinstance(p, ProtocolMixture):
        comps = p.components
        out += _weight_errors([w for w, _ in comps], "mixture: weights sum to {}, not 1",
                              "mixture: nonpositive weight")
        if len({type(c) for _, c in comps}) > 1:
            out.append("mixture: components of mixed kinds")
        errs = [validate(c) for _, c in comps]
        # only a protocol kind or a valid mixture has dimensions to read
        if len({(c.nx, c.ny, c.t) for (_, c), e in zip(comps, errs)
                if type(c) in KIND_NAMES or not e}) > 1:
            out.append("mixture: components disagree on dimensions or box count")
        return out + [e for es in errs for e in es]
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
        if err := (_shape_error(tab, width, cells) if rows is None
                   else _table_error(tab, rows, width, cells)):
            out.append(f"{label}: {err}")
    for field, n in counts.items():
        tabs = getattr(p, field)
        if n is not None and (not _is_table(tabs) or len(tabs) != n):
            out.append(f"{field}: expected {n} tables")

    if isinstance(p, GeneralNlbProtocol):
        for side, sched in (("A", p.sched_a), ("B", p.sched_b)):
            if sorted(_ints(sched)) != list(range(p.t)):
                out.append(f"sched{side}: not a permutation of box labels")
    if isinstance(p, OneWayProtocol):
        if not all(0 <= m < 1 << p.t for m in _ints(p.msg)):
            out.append("msg value outside the t-bit message space")
    if isinstance(p, OtProtocol):
        if not (weights := p.r_weights if _is_table(p.r_weights) else ()):
            out.append("empty private-randomness domain")
        elif not _rational(weights):
            out.append("private-randomness weight not a rational number")
        else:
            out += _weight_errors(weights, "private-randomness weights do not sum to 1",
                                  "nonpositive private-randomness weight")
    return out
