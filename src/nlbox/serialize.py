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
    """The text of a valid protocol (tables as the constructors make
    them); parse reads each of its tables as one slice."""
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
    for label, field, index, cells, _shape in layout(type(p), p.nx, p.ny, p.t, p):
        tab = getattr(p, field) if index is None else getattr(p, field)[index]
        if cells in _INLINE:
            lines.append(f"{label}: " + _INLINE[cells][1](tab))
        else:
            lines.append(f"{label}:")
            lines.extend(_lines(tab, cells))


# the line breaks of str.splitlines that are ASCII and not LF
_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


class _Cursor:
    """The content lines (``truthtable.content_line``) of UTF-8 bytes with
    LF line ends, and tables read from them: one slice of the bytes when
    the table's rows are as serialize writes them, else row by row."""

    def __init__(self, data: bytes):
        self.data, self.pos, self.next = data, 0, 0

    def peek(self) -> str | None:
        data = self.data
        while self.pos < len(data):
            end = data.find(b"\n", self.pos)
            end = len(data) if end < 0 else end
            ln = tt.content_line(data[self.pos:end].decode("utf-8", "surrogatepass"))
            if ln:
                self.next = end + 1
                return ln
            self.pos = end + 1
        return None

    def take(self) -> str:
        ln = self.peek()
        if ln is None:
            raise ParseError("unexpected end of input")
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
        bits = ln.encode("utf-8", "surrogatepass").translate(_BIT_OR_TWO)
        if len(bits) != width or 2 in bits:
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return np.frombuffer(bits, np.uint8)

    def rows(self, cells: str, shape: tuple):
        """The next lines as a read-only bit table or OT pairs of
        ``layout``'s shape: one line as row reads it for a 1-D shape, else
        one line a row."""
        tab = self._block(cells, shape)
        if tab is None:  # not as serialize writes it: row by row
            tab = self.row(cells, shape[0]) if len(shape) == 1 else np.array(
                [self.row(cells, shape[1]) for _ in range(shape[0])], np.uint8)
        return tab

    def _block(self, cells: str, shape: tuple) -> np.ndarray | None:
        """What rows reads, from one slice of the bytes checked and
        converted by a fixed number of passes; None unless the next lines
        are exactly the table's rows, one a line."""
        data, pos = self.data, self.pos
        lines, width = (1, shape[0]) if len(shape) == 1 else shape[:2]
        size = 3 * width if cells == PAIRS else width + 1
        end = pos + lines * size
        if not width or end > len(data):
            return None
        if cells == PAIRS:
            # each pair's two bytes, as one unaligned uint16 every 3 bytes
            tab = np.ndarray((lines * width,), np.uint16, data, pos, (3,)).copy().view(np.uint8)
            tab -= _ZERO
            if tab.max() > 1 or data[pos + 2:end:3] != (b" " * (width - 1) + b"\n") * lines:
                return None
            tab = tab.reshape(shape)
            tab.setflags(write=False)
        else:
            block = data[pos:end]
            bits = block.translate(_BIT_OR_TWO, b"\n")
            if len(bits) != lines * width or 2 in bits or block[width::size] != b"\n" * lines:
                return None
            tab = np.frombuffer(bits, np.uint8).reshape(shape)
        self.pos = end
        return tab


def parse(text: str | bytes) -> Protocol:
    """A protocol from its text, or from a file's bytes as UTF-8 (a
    UnicodeDecodeError at the first bad byte if they are not), with lines
    split where ``str.splitlines`` splits them.  ASCII with LF line ends
    is read in place, other input once decoded and joined with LF; a
    table not as serialize writes it is read row by row."""
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    if not data.isascii() or any(br in data for br in _BREAKS):
        # a str's lone surrogates pass; a file's bytes are strict UTF-8
        lines = (data.decode() if isinstance(text, bytes) else text).splitlines()
        data = "\n".join(lines).encode("utf-8", "surrogatepass")
    cur = _Cursor(data)
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
    # no table has more rows or cells than the file has bytes: refuse
    # before layout builds 1 << t, 1 << nx and 1 << ny
    if max(nx, ny) > len(cur.data).bit_length() or t > len(cur.data):
        raise ParseError(f"header {line!r} asks for more than the file holds")
    # indexed fields collect their tables in lists; layout reads the
    # tables parsed so far from here
    got = SimpleNamespace(**{f.name: [] for f in fields(kind)[3:]})
    for label, field, index, cells, shape in layout(kind, nx, ny, t, got):
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
        elif isinstance(shape[0], tuple):  # a tree round: rows of their own widths
            tab = tuple(cur.rows(cells, s) for s in shape)
        else:
            tab = cur.rows(cells, shape)
        if index is None:
            setattr(got, field, tab)
        else:
            getattr(got, field).append(tab)
    return kind(nx, ny, t, **vars(got))
