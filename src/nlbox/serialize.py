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

import numpy as np

from . import truthtable as tt
from .protocols import (BITS, FRACS, INTS, KIND_NAMES, PAIRS, Protocol,
                        ProtocolMixture, layout)

_KINDS = {name: kind for kind, name in KIND_NAMES.items()}


class ParseError(ValueError):
    pass


_PAIR_TOKENS = {f"{a}{b}": (a, b) for a in (0, 1) for b in (0, 1)}
# byte value -> bit character ("0" for 0, "1" otherwise), and back
_BIT_CHARS = b"0" + b"1" * 255
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_SPACE, _NEWLINE = ord(" "), ord("\n")

# cell types listed on their label's line: how one cell is read, and how
# a line of them is written
_INLINE = {
    INTS: (tt.parse_decimal, lambda line: " ".join(map(str, line.tolist()))),
    FRACS: (tt.parse_fraction, lambda line: " ".join(map(tt.format_fraction, line))),
}


def _lines(tab, cells) -> list[str]:
    """The rows of a table, one line each (a one-line table's one line):
    bits as one character each, OT pairs as two, space-separated.  A tree
    round is a tuple of rows of their own widths."""
    if isinstance(tab, tuple):
        return [line for row in tab for line in _lines(row, cells)]
    chars = tab.tobytes().translate(_BIT_CHARS)
    if cells == BITS:
        text, width = chars.decode(), tab.shape[-1]
        if tab.ndim == 1:  # a one-line table, such as each box's
            return [text]
        return [text[k:k + width] for k in range(0, len(text), width)]
    # each pair's two characters, then a space, or a newline after a row
    out = np.full((*tab.shape[:-1], 3), _SPACE, np.uint8)
    out[..., :2] = np.frombuffer(chars, np.uint8).reshape(tab.shape)
    out[..., -1, -1] = _NEWLINE
    return out.tobytes()[:-1].decode().split("\n")


def serialize(p: Protocol, provenance: str | None = None) -> str:
    """The text of a valid protocol (tables as the constructors make them)."""
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
    for label, field, index, cells, _rows, _width in layout(type(p), p.nx, p.ny, p.t, p):
        tab = getattr(p, field) if index is None else getattr(p, field)[index]
        if cells in _INLINE:
            lines.append(f"{label}: " + _INLINE[cells][1](tab))
        else:
            lines.append(f"{label}:")
            lines.extend(_lines(tab, cells))


class _Cursor:
    def __init__(self, text: str):
        self.lines = tt.content_lines(text)
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

    def row(self, cells: str, width: int):
        """The next line as a row of width bits (a read-only uint8 array)
        or OT pairs (a tuple of them)."""
        ln = self.take()
        if cells == PAIRS:
            pairs = tuple(map(_PAIR_TOKENS.get, ln.split()))
            if len(pairs) != width or None in pairs:
                raise ParseError("bad OT pair row")
            return pairs
        raw = ln.encode()
        if len(raw) != width or raw.translate(None, b"01"):
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return np.frombuffer(raw.translate(_BIT_VALUES), np.uint8)

    def rows(self, cells: str, n: int, width: int) -> np.ndarray:
        """The next n lines as an (n, width) bit table or (n, width, 2)
        OT pairs: in one read when serialize wrote them, else line by
        line, which also reports the first bad line."""
        tab = _written_rows(self.lines[self.pos:self.pos + n], cells, n, width)
        if tab is None:
            return np.array([self.row(cells, width) for _ in range(n)], np.uint8)
        self.pos += n
        return tab


def _written_rows(block: list[str], cells: str, n: int, width: int) -> np.ndarray | None:
    """n lines of width cells each, as serialize writes them, read with
    one frombuffer; None when they are not all such lines."""
    size = 3 * width - 1 if cells == PAIRS else width
    if len(block) != n or not set(map(len, block)) <= {size}:
        return None
    # the byte count equals the character count only for ASCII text
    if cells == BITS:
        raw = "".join(block).encode()
        if len(raw) != n * width or raw.translate(None, b"01"):
            return None
        return np.frombuffer(raw.translate(_BIT_VALUES), np.uint8).reshape(n, width)
    # each pair's two characters, then a space
    raw = (" ".join(block) + " ").encode()
    if len(raw) != 3 * n * width or raw[2::3].translate(None, b" "):
        return None
    bits = bytearray(2 * n * width)
    bits[0::2], bits[1::2] = raw[0::3], raw[1::3]
    bits = bytes(bits)
    if bits.translate(None, b"01"):
        return None
    return np.frombuffer(bits.translate(_BIT_VALUES), np.uint8).reshape(n, width, 2)


def parse(text: str) -> Protocol:
    cur = _Cursor(text)
    p = _parse_one(cur)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}")
    return p


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
            toks, (read, _write) = line.split()[1:], _INLINE[cells]
            try:
                value = {tok: read(tok, label) for tok in dict.fromkeys(toks)}
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            tab = tuple(map(value.__getitem__, toks))
        elif rows is None:
            tab = cur.row(cells, width)
        elif isinstance(width, tuple):  # a tree round: rows of their own widths
            tab = tuple(cur.row(cells, w) for w in width)
        else:
            tab = cur.rows(cells, rows, width)
        if index is None:
            setattr(got, field, tab)
        else:
            getattr(got, field).append(tab)
    return kind(nx, ny, t, **{name: tuple(tab) if isinstance(tab, list) else tab
                              for name, tab in vars(got).items()})
