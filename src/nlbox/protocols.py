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
is a tuple of 1-D rows; OT weights stay a tuple of Fractions.  The
constructors convert tuple input.  A table that is ragged or not a
table, or that needs a cast and has a cell outside its range, is kept
as given, so that ``validate`` reports it instead of a uint8 cast
wrapping it.  Protocols compare and hash by kind, shapes and bytes.

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
from numbers import Integral, Rational
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


def _is_table(tab) -> bool:
    """Whether tab is a tuple, a list or a numpy array of one or more axes."""
    return isinstance(tab, (tuple, list)) or isinstance(tab, np.ndarray) and tab.ndim > 0


def _entry(tab, i):
    """``tab[i]``, or None when tab is not a table or has no entry i."""
    return tab[i] if _is_table(tab) and i < len(tab) else None


def _entries(tab) -> list | None:
    """A one-line table's entries as a list, or None when it is not a
    table, which the shape checks report."""
    if isinstance(tab, np.ndarray):
        return tab.tolist() if tab.ndim else None
    return list(tab) if isinstance(tab, (tuple, list)) else None


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
            d = _entries(_entry(p.direction, r)) or ()
            yield f"bit {r}", "bit", r, BITS, 1 << r, tuple(xs if v == 1 else ys for v in d)
        yield "outA", "out_a", None, BITS, 1 << t, xs
        yield "outB", "out_b", None, BITS, 1 << t, ys
    elif kind is OtProtocol:
        yield "rweights", "r_weights", None, FRACS, None, None
        nr = len(_entries(p.r_weights) or ())
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
        if cells != FRACS:
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
    already of the dtype are kept as they are; validate checks them."""
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

# the cell types whose every entry validate checks, and the shape of
# one cell of an array table
_CELL_CHECKS = {
    BITS: frozenset((0, 1)).issuperset,
    PAIRS: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}).issuperset,
}
_CELL_SHAPES = {BITS: (), PAIRS: (2,)}


def _binary(tab: np.ndarray) -> bool:
    """Whether a uint8 array holds only 0 and 1: deleting those bytes
    leaves none, which on the short lines most tables are costs a fifth
    of a reduction (0.2 against 1.1 us) and on 2^16 cells 31 us."""
    return not tab.tobytes().translate(None, b"\0\1")


def _cells_ok(tab, cells) -> bool:
    """Whether every entry of a line has the cell type."""
    if isinstance(tab, np.ndarray):
        if tab.dtype == np.uint8:
            return tab.shape[1:] == _CELL_SHAPES[cells] and _binary(tab)
        tab = tab.tolist()
    try:
        return _CELL_CHECKS[cells](tab)
    except TypeError:  # an unhashable entry
        return False


def _shape_error(tab, n, cells) -> str | None:
    """What keeps tab from being a line of n cells (any number if n is
    None) of type cells, or None if nothing does."""
    if not _is_table(tab):
        return "not a table"
    if n is not None and len(tab) != n:
        return f"{len(tab)} entries, expected {n}" + (
            ": reads future or absent inputs" if len(tab) > n else ": not total")
    if cells not in _CELL_CHECKS or _cells_ok(tab, cells):
        return None
    return f"entry not of type {cells}"


def _table_error(tab, rows: int, width, cells) -> str | None:
    """What keeps tab from being ``rows`` rows of ``width`` cells of type
    cells, naming the first bad row, or None if nothing does: a uint8
    array of that shape passes by one check of its bytes, anything else
    is walked row by row."""
    if (isinstance(tab, np.ndarray) and tab.dtype == np.uint8
            and tab.shape == (rows, width, *_CELL_SHAPES[cells]) and _binary(tab)):
        return None
    if err := _shape_error(tab, rows, None):
        return err
    widths = width if isinstance(width, tuple) else repeat(width)
    for k, (row, w) in enumerate(zip(tab, widths)):
        if row_err := _shape_error(row, w, cells):
            return f"row {k}: {row_err}"
    return None


def _weight_errors(weights, not_rational: str, bad_sum: str, nonpositive: str) -> list[str]:
    """The violations of one or more weights that must be positive
    rationals summing to 1, summed in integers over the lcm of their
    denominators; bad_sum is formatted with the sum, a Fraction, if not 1."""
    if not all(issubclass(kind, Rational) for kind in set(map(type, weights))):
        return [not_rational]
    nums, dens = [w.numerator for w in weights], [w.denominator for w in weights]
    den = lcm(*set(dens))
    total = sum(n * (den // d) for n, d in zip(nums, dens))
    return ([bad_sum.format(Fraction(total, den))] if total != den else []) + (
        [nonpositive] if min(nums) <= 0 else [])


def validate(p) -> list[str]:
    """Structural audit: every table of ``layout`` has its shape and cell
    type, plus mixture weights, schedules, message range and OT weights.

    Returns a list of human-readable violations; empty means ok.
    """
    out: list[str] = []
    if isinstance(p, ProtocolMixture):
        comps = p.components
        if not _is_table(comps) or not all(_is_table(c) and len(c) == 2 for c in comps):
            return ["mixture: components not (weight, protocol) pairs"]
        if not len(comps):
            return ["mixture: no components"]
        out += _weight_errors([w for w, _ in comps], "mixture: weight not a rational number",
                              "mixture: weights sum to {}, not 1", "mixture: nonpositive weight")
        if len({type(c) for _, c in comps}) > 1:
            out.append("mixture: components of mixed kinds")
        errs = [validate(c) for _, c in comps]
        # only a protocol kind or a valid mixture has dimensions to read
        if len({(c.nx, c.ny, c.t) for (_, c), e in zip(comps, errs)
                if type(c) in KIND_NAMES or not e}) > 1:
            out.append("mixture: components disagree on dimensions or box count")
        return out + [e for es in errs for e in es]
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
            err = _table_error(tab, rows, width, cells)
        if err:
            out.append(f"{label}: {err}")
    for field, n in counts.items():
        tabs = getattr(p, field)
        if n is not None and (not _is_table(tabs) or len(tabs) != n):
            out.append(f"{field}: expected {n} tables")

    if isinstance(p, GeneralNlbProtocol):
        for side, sched in (("A", p.sched_a), ("B", p.sched_b)):
            # an entry that is no integer sorts as -1, which no permutation holds
            if sorted(v if isinstance(v, Integral) else -1
                      for v in _entries(sched) or ()) != list(range(p.t)):
                out.append(f"sched{side}: not a permutation of box labels")
    if isinstance(p, OneWayProtocol):
        if not all(isinstance(m, Integral) and 0 <= m < 1 << p.t for m in _entries(p.msg) or ()):
            out.append("msg value outside the t-bit message space")
    if isinstance(p, OtProtocol):
        if not (weights := _entries(p.r_weights)):
            out.append("empty private-randomness domain")
        else:
            out += _weight_errors(weights, "private-randomness weight not a rational number",
                                  "private-randomness weights do not sum to 1",
                                  "nonpositive private-randomness weight")
    return out
