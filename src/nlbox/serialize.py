"""Line-oriented text serialization for protocols.

Header "protocol <kind> nx=<..> ny=<..> t=<..>", then one labelled
section per table of ``protocols.layout``, in its order: integer and
fraction lists inline after the label, other tables one row per line
(bitstrings, or space-separated OT input pairs).  Mixtures are written
as one "mix <k> <num>/<den>" header per component, wrapping the k >= 1
serialized components.  Numbers follow ``truthtable.DECIMAL`` and
``truthtable.RATIONAL``.  Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

from . import truthtable as tt
from .protocols import (BITS, FRACS, INTS, KIND_NAMES, PAIRS, Protocol,
                        ProtocolMixture, layout)

_KINDS = {name: kind for kind, name in KIND_NAMES.items()}


class ParseError(ValueError):
    pass


_PAIR_TOKENS = {f"{a}{b}": (a, b) for a in (0, 1) for b in (0, 1)}
_PAIR_TEXT = {pair: tok for tok, pair in _PAIR_TOKENS.items()}
# byte value -> bit character ("0" for 0, "1" otherwise), and back
_BIT_CHARS = b"0" + b"1" * 255
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

# how one row of each cell type is written
_FORMATS = {
    BITS: lambda row: bytes(row).translate(_BIT_CHARS).decode(),
    PAIRS: lambda row: " ".join(map(_PAIR_TEXT.__getitem__, row)),
    INTS: lambda row: " ".join(map(str, row)),
    FRACS: lambda row: " ".join(map(tt.format_fraction, row)),
}


def serialize(p: Protocol, provenance: str | None = None) -> str:
    lines: list[str] = []
    if provenance:
        lines.append(f"# provenance: {provenance}")
    _emit(p, lines)
    return "\n".join(lines) + "\n"


def _emit(p: Protocol, lines: list[str]) -> None:
    if isinstance(p, ProtocolMixture):
        k = len(p.components)
        for w, comp in p.components:
            lines.append(f"mix {k} {tt.format_fraction(w)}")
            _emit(comp, lines)
        return
    lines.append(f"protocol {KIND_NAMES[type(p)]} nx={p.nx} ny={p.ny} t={p.t}")
    for label, field, index, cells, rows, _width in layout(type(p), p.nx, p.ny, p.t, p):
        tab = getattr(p, field) if index is None else getattr(p, field)[index]
        fmt = _FORMATS[cells]
        if cells in _INLINE:
            lines.append(f"{label}: " + fmt(tab))
        else:
            lines.append(f"{label}:")
            lines.extend(map(fmt, (tab,) if rows is None else tab))


class _Cursor:
    def __init__(self, text: str):
        self.lines = [ln.strip() for ln in text.splitlines()]
        self.lines = [ln for ln in self.lines if ln and not ln.startswith("#")]
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        ln = self.peek()
        if ln is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return ln

    def expect(self, prefix: str) -> str:
        ln = self.take()
        if not ln.startswith(prefix):
            raise ParseError(f"expected {prefix!r}, found {ln!r}")
        return ln

    def row(self, cells: str, width: int) -> tuple:
        ln = self.take()
        if cells == PAIRS:
            pairs = tuple(map(_PAIR_TOKENS.get, ln.split()))
            if len(pairs) != width or None in pairs:
                raise ParseError("bad OT pair row")
            return pairs
        raw = ln.encode()
        if len(raw) != width or raw.translate(None, b"01"):
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return tuple(raw.translate(_BIT_VALUES))


def parse(text: str) -> Protocol:
    cur = _Cursor(text)
    p = _parse_one(cur)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}")
    return p


# cell types listed on their label's line, and how one cell is read
_INLINE = {INTS: tt.parse_decimal, FRACS: tt.parse_fraction}


def _mix_header(line: str) -> tuple[int, Fraction]:
    head = line.split()
    try:
        if head[0] != "mix" or len(head) != 3:
            raise ValueError
        k = tt.parse_decimal(head[1], "component count")
        if k < 1:
            raise ValueError
        return k, tt.parse_fraction(head[2], "weight")
    except ValueError:
        raise ParseError(f"bad mixture header {line!r}") from None


def _parse_one(cur: _Cursor):
    line = cur.take()
    if not line.startswith("mix"):
        cur.pos -= 1
        return _parse_body(cur)
    k, w = _mix_header(line)
    comps = [(w, _parse_body(cur))]
    for _ in range(k - 1):
        k2, w = _mix_header(cur.take())
        if k2 != k:
            raise ParseError("inconsistent mixture headers")
        comps.append((w, _parse_body(cur)))
    return ProtocolMixture(tuple(comps))


def _parse_body(cur: _Cursor):
    line = cur.take()
    head = line.split()
    try:
        header = dict(kv.split("=") for kv in head[2:])
        nx, ny, t = (tt.parse_decimal(header[key], key) for key in ("nx", "ny", "t"))
        if head[0] != "protocol" or len(head) < 2:
            raise ValueError
    except (ValueError, KeyError):
        raise ParseError(f"bad header {line!r}") from None
    kind = _KINDS.get(head[1])
    if kind is None:
        raise ParseError(f"unknown protocol kind {head[1]!r}")
    # indexed fields collect their tables in lists; layout reads the
    # tables parsed so far from here
    got = SimpleNamespace(**{f.name: [] for f in fields(kind)[3:]})
    for label, field, index, cells, rows, width in layout(kind, nx, ny, t, got):
        line = cur.expect(f"{label}:")
        if cells in _INLINE:
            # an OT file repeats one rweights token 2^t times: read each
            # distinct token once
            toks, read = line.split()[1:], _INLINE[cells]
            try:
                value = {tok: read(tok, label) for tok in dict.fromkeys(toks)}
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            tab = tuple(map(value.__getitem__, toks))
        elif rows is None:
            tab = cur.row(cells, width)
        else:
            tab = tuple(cur.row(cells, width if isinstance(width, int) else width[k])
                        for k in range(rows))
        if index is None:
            setattr(got, field, tab)
        else:
            getattr(got, field).append(tab)
    return kind(nx, ny, t, **{name: tuple(tab) for name, tab in vars(got).items()})
