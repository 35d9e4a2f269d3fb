"""Bipartite Boolean functions as bit matrices.

A function f : {0,1}^nx x {0,1}^ny -> {0,1} is stored as its
communication matrix: row index is Alice's input x, column index is
Bob's input y, both read as big-endian integers.  Rows are bit-packed
into Python integers (bit y of ``rows[x]`` is the entry at (x, y)),
which keeps row XOR and row comparisons word-parallel for free.

This module owns that packing: other modules read a table's entries
through ``TruthTable.bits()`` (a uint8 array), unpack other packed
lines with ``unpack_bits``, build a table from a 0/1 array with
``from_entries``, and print packed bits with ``bit_string``.  The text
formats share its number parsers and comment rule, ``content_line``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TruthTable:
    """Bit matrix of a bipartite Boolean function."""

    nx: int
    ny: int
    rows: tuple[int, ...]  # rows[x] packs the 2^ny entries of row x

    def __post_init__(self):
        if self.nx < 0 or self.ny < 0:
            raise ValueError("negative input width")
        if len(self.rows) != 1 << self.nx:
            raise ValueError("row count must be 2^nx")
        mask = (1 << (1 << self.ny)) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the 2^ny columns")

    @property
    def n_rows(self) -> int:
        return 1 << self.nx

    @property
    def n_cols(self) -> int:
        return 1 << self.ny

    def entry(self, x: int, y: int) -> int:
        if not (0 <= x < self.n_rows and 0 <= y < self.n_cols):
            raise ValueError(f"entry outside 0 <= x < 2^{self.nx}, 0 <= y < 2^{self.ny}")
        return (self.rows[x] >> y) & 1

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def bits(self) -> np.ndarray:
        """The entries as a new (n_rows, n_cols) uint8 array."""
        return unpack_bits(self.rows, self.n_cols)


def unpack_bits(values, n: int) -> np.ndarray:
    """The n low bits of each nonnegative int below 2^n, bit 0 first, as
    a new (len(values), n) uint8 array."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values),
                           np.uint8).reshape(len(values), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def from_function(nx: int, ny: int, f: Callable[[int, int], int]) -> TruthTable:
    return from_entries(nx, ny, [[f(x, y) for y in range(1 << ny)] for x in range(1 << nx)])


def from_entries(nx: int, ny: int, entries: np.typing.ArrayLike) -> TruthTable:
    """The table whose entry (x, y) is ``entries[x][y]`` mod 2, from a
    2^nx x 2^ny array-like of integers or bools; a ragged or wrongly
    sized table is a ValueError."""
    a = np.asarray(entries)  # ragged rows raise ValueError here
    if a.shape != (1 << nx, 1 << ny):
        raise ValueError(f"entries of shape {a.shape} for a 2^{nx} x 2^{ny} table")
    packed = np.packbits((a & 1).astype(np.uint8), axis=1, bitorder="little")
    return TruthTable(nx, ny, tuple(int.from_bytes(r, "little") for r in packed))


def bit_string(v: int, n: int) -> str:
    """The n low bits of v as '0'/'1' characters, bit 0 first."""
    return format(v, f"0{n}b")[::-1][:n]


def and_table() -> TruthTable:
    """1-bit AND: a single 1 at (1,1).  Also the CHSH winning predicate."""
    return from_function(1, 1, lambda x, y: x & y)


def xor_table() -> TruthTable:
    return from_function(1, 1, lambda x, y: x ^ y)


def ip_table(n: int) -> TruthTable:
    """Inner product mod 2 on n-bit inputs."""
    return from_function(n, n, lambda x, y: (x & y).bit_count() & 1)


def disj_table(n: int) -> TruthTable:
    """Disjointness (intersection non-empty) on n-bit inputs."""
    return from_function(n, n, lambda x, y: 1 if x & y else 0)


# The number rules of every text format and command-line rational: a
# count, width, index or cell value is a nonnegative integer in ASCII
# decimal digits, a rational is n/d in them with an optional leading "-".
# int() alone would also take a sign, underscores or other scripts' digits.
DECIMAL = re.compile(r"[0-9]+")
RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")
_ROW = re.compile(r"[01]+")


def parse_decimal(tok: str, what: str) -> int:
    """``tok`` as a DECIMAL number; ``what`` names it in the error."""
    if not DECIMAL.fullmatch(tok):
        raise ValueError(f"{what} {tok!r} is not a decimal number")
    return int(tok)


def parse_fraction(tok: str, what: str) -> Fraction:
    """``tok`` as a RATIONAL n/d; ``what`` names it in the error."""
    m = RATIONAL.fullmatch(tok)
    if m is None:
        raise ValueError(f"{what} {tok!r} is not of the form n/d")
    if not int(m[2]):
        raise ValueError(f"zero denominator in {what} {tok!r}")
    return Fraction(int(m[1]), int(m[2]))


def format_fraction(v) -> str:
    """A Fraction or an int as n/d in lowest terms."""
    return f"{v.numerator}/{v.denominator}"


def _is_power(n: int, width: str) -> bool:
    """n == 2^width for a width in decimal digits, checked without
    building 2^width, which an absurd width could not afford."""
    return n & (n - 1) == 0 and str(n.bit_length() - 1) == (width.lstrip("0") or "0")


def content_line(line: str) -> str:
    """A line stripped, or '' if it is blank or a '#' comment."""
    line = line.strip()
    return "" if line.startswith("#") else line


def content_lines(text: str) -> list[str]:
    """The lines of a text file, stripped, without blank and '#' lines."""
    return [ln for ln in map(content_line, text.splitlines()) if ln]


def parse_truth_table(text: str) -> TruthTable:
    """Parse the line-oriented truth-table format.

    Line 1 is "nx ny"; then 2^nx lines of 2^ny characters from {0,1}.
    Blank and '#'-prefixed lines are ignored.
    """
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty truth-table file")
    header, body = lines[0], lines[1:]
    head = header.split()
    if len(head) != 2 or not all(DECIMAL.fullmatch(w) for w in head):
        raise ValueError(f"header {header!r} must be 'nx ny' in decimal digits")
    if not _is_power(len(body), head[0]):
        raise ValueError(f"header {header!r} asks for 2^{head[0]} rows, got {len(body)}")
    rows = []
    for ln in body:
        if not _is_power(len(ln), head[1]):
            raise ValueError(f"header {header!r} asks for rows of 2^{head[1]} cells, "
                             f"got {ln!r}")
        # both checks come first: int() would also take "_", a sign or "0b"
        if not _ROW.fullmatch(ln):
            raise ValueError(f"bad row {ln!r}")
        rows.append(int(ln[::-1], 2))
    nx, ny = len(body).bit_length() - 1, len(body[0]).bit_length() - 1
    return TruthTable(nx, ny, tuple(rows))


def format_truth_table(tt: TruthTable) -> str:
    rows = (bit_string(r, tt.n_cols) for r in tt.rows)
    return "\n".join((f"{tt.nx} {tt.ny}", *rows)) + "\n"
