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
# byte value -> bit character ("0" for 0, "1" otherwise), and back: a
# bit character's value, 2 for any other byte
_BIT_CHARS = b"0" + b"1" * 255
_BIT_OR_TWO = bytes(2 if c not in b"01" else c - ord("0") for c in range(256))
_ZERO = np.uint8(ord("0"))
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


class _Lines:
    """The line path: a text's content lines (``truthtable.content_lines``),
    read one line at a time.  It accepts every text the format allows and
    words every error."""

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
        bits = ln.encode().translate(_BIT_OR_TWO)
        if len(bits) != width or 2 in bits:
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return np.frombuffer(bits, np.uint8)

    def rows(self, cells: str, n: int | None, width: int):
        """The next n lines as an (n, width) bit table or (n, width, 2)
        OT pairs; for n None, the next line as row reads it."""
        if n is None:
            return self.row(cells, width)
        return np.array([self.row(cells, width) for _ in range(n)], np.uint8)


class _Refused(Exception):
    """Bytes that the block path does not read; the line path reads them."""


class _Blocks:
    """The block path: the ASCII bytes of a text as serialize writes it,
    each table's rows read as one slice.  Between tables it takes lines of
    printable ASCII with no space at either end, and skips blank and '#'
    lines; it refuses anything else (tabs, CR, other control bytes, a
    blank or comment line among a table's rows, no final newline), so the
    lines it reads are the content lines the line path would read."""

    def __init__(self, data: bytes):
        if not data.endswith(b"\n"):
            raise _Refused
        self.data, self.pos, self.next = data, 0, 0

    def peek(self) -> str | None:
        data = self.data
        while self.pos < len(data):
            end = data.index(b"\n", self.pos)
            ln = data[self.pos:end].decode("ascii")
            if not ln.isprintable() or ln[:1] == " " or ln[-1:] == " ":
                raise _Refused
            if ln and ln[0] != "#":
                self.next = end + 1
                return ln
            self.pos = end + 1
        return None

    def take(self) -> str:
        ln = self.peek()
        if ln is None:
            raise _Refused
        self.pos = self.next
        return ln

    def expect(self, prefix: str) -> str:
        # a label alone on its line, as serialize writes a table's, is
        # matched in place
        label = prefix.encode() + b"\n"
        if self.data.startswith(label, self.pos):
            self.pos += len(label)
            return prefix
        ln = self.take()
        if not ln.startswith(prefix):
            raise _Refused
        return ln

    def rows(self, cells: str, n: int | None, width: int) -> np.ndarray:
        """The next n lines as a read-only (n, width) bit table or
        (n, width, 2) OT pairs, from one slice of the bytes; for n None,
        the next line as a 1-D row."""
        data, pos = self.data, self.pos
        lines, shape = (1, (width,)) if n is None else (n, (n, width))
        size = 3 * width if cells == PAIRS else width + 1
        end = pos + lines * size
        if not lines or not width or end > len(data):
            raise _Refused
        if cells == PAIRS:
            # each pair's two bytes, as one unaligned uint16 every 3 bytes
            tab = np.ndarray((lines * width,), np.uint16, data, pos, (3,)).copy().view(np.uint8)
            tab -= _ZERO
            if tab.max() > 1 or data[pos + 2:end:3] != (b" " * (width - 1) + b"\n") * lines:
                raise _Refused
            tab = tab.reshape(*shape, 2)
            tab.setflags(write=False)
        else:
            block = data[pos:end]
            bits = block.translate(_BIT_OR_TWO, b"\n")
            if len(bits) != lines * width or 2 in bits or block[width::size] != b"\n" * lines:
                raise _Refused
            tab = np.frombuffer(bits, np.uint8).reshape(shape)
        self.pos = end
        return tab


def parse(text: str | bytes) -> Protocol:
    """A protocol from its text, or from a file's bytes as UTF-8 (a
    UnicodeDecodeError if they are not).  Lines end in LF, CRLF or CR.
    Bytes and ASCII text are read by the block path first, which accepts
    ASCII only; anything it refuses, and every error, is read again by
    the line path, which words the error."""
    if isinstance(text, str) and text.isascii():
        text = text.encode("ascii")
    if isinstance(text, bytes):
        try:
            return _parse_all(_Blocks(text))
        except (_Refused, ValueError):
            pass
        text = text.decode()
    return _parse_all(_Lines(text))


def _parse_all(cur) -> Protocol:
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


def _parse_one(cur):
    if not (cur.peek() or "").startswith("mix"):
        return _parse_body(cur)
    k, w = _mix_header(cur.take())
    comps = [(w, _parse_body(cur))]
    for _ in range(k - 1):
        k2, w = _mix_header(cur.take())
        if k2 != k:
            raise ParseError("inconsistent mixture headers")
        comps.append((w, _parse_body(cur)))
    return ProtocolMixture(tuple(comps))


def _parse_body(cur):
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
        elif isinstance(width, tuple):  # a tree round: rows of their own widths
            tab = tuple(cur.rows(cells, None, w) for w in width)
        else:
            tab = cur.rows(cells, rows, width)
        if index is None:
            setattr(got, field, tab)
        else:
            getattr(got, field).append(tab)
    return kind(nx, ny, t, **vars(got))
