"""Truth tables: the packed rows against per-entry oracles.

Every oracle here reads one entry at a time with ``entry`` or a shift,
unlike the array and ``format`` paths of ``bits``, ``from_entries``,
``bit_string`` and the text format.
"""

import random
import re

import numpy as np
import pytest

from nlbox.truthtable import (TruthTable, bit_string, format_truth_table,
                              from_entries, parse_truth_table)
from util import random_table

# rows of 1 to 64 cells: 1-column tables, rows of 1, 2 and 8 bytes
SHAPES = [(nx, ny) for nx in range(7) for ny in (0, 1, 2, 3, 4, 6)]


def _tables(nx, ny):
    rng = random.Random(nx * 10 + ny)
    full = (1 << (1 << ny)) - 1
    return [TruthTable(nx, ny, (0,) * (1 << nx)), TruthTable(nx, ny, (full,) * (1 << nx)),
            random_table(nx, ny, rng), random_table(nx, ny, rng)]


def _oracle_text(f):
    rows = ("".join("1" if f.entry(x, y) else "0" for y in range(f.n_cols))
            for x in range(f.n_rows))
    return "\n".join((f"{f.nx} {f.ny}", *rows)) + "\n"


@pytest.mark.parametrize("nx,ny", SHAPES)
def test_packing_round_trips_and_matches_per_entry_oracles(nx, ny):
    for f in _tables(nx, ny):
        text = format_truth_table(f)
        assert text == _oracle_text(f)
        assert parse_truth_table(text) == f
        bits = f.bits()
        assert bits.dtype == np.uint8 and bits.shape == (f.n_rows, f.n_cols)
        assert bits.tolist() == [[f.entry(x, y) for y in range(f.n_cols)]
                                 for x in range(f.n_rows)]
        assert from_entries(nx, ny, bits) == f
        assert from_entries(nx, ny, bits.tolist()) == f


def test_bits_returns_a_fresh_array():
    f = TruthTable(1, 1, (1, 2))
    f.bits()[0, 0] = 0
    assert f.bits().tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 64, 65])
def test_bit_string_matches_per_bit_join(n):
    rng = random.Random(n)
    for v in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n + 5)):
        assert bit_string(v, n) == "".join(str(v >> i & 1) for i in range(n))


@pytest.mark.parametrize("row", ["1_01", "110+", "110-", "11b0", "11B0"])
def test_parse_rejects_width_correct_rows_that_int_would_read(row):
    int(row[::-1], 2)  # int() alone takes each reversed row
    with pytest.raises(ValueError, match="bad row"):
        parse_truth_table(f"0 2\n{row}\n")


@pytest.mark.parametrize("nx, ny, rows, err", [
    (-1, 0, (), "negative input width"),
    (0, -2, (0,), "negative input width"),
    (1, 1, (0,), "row count must be 2^nx"),
    (1, 1, (0, 0, 0), "row count must be 2^nx"),
    (1, 1, (0, 4), "row has bits outside the 2^ny columns"),
    (1, 0, (-1, 0), "row has bits outside the 2^ny columns")])
def test_table_refuses_widths_and_rows_it_cannot_hold(nx, ny, rows, err):
    with pytest.raises(ValueError, match=f"^{re.escape(err)}$"):
        TruthTable(nx, ny, rows)


@pytest.mark.parametrize("text", ["", "\n", "# a comment only\n\n"])
def test_parse_names_an_empty_file(text):
    with pytest.raises(ValueError, match="^empty truth-table file$"):
        parse_truth_table(text)


def test_from_entries_counts_each_entry_mod_2():
    assert from_entries(1, 1, [[True, False], [2, 3]]) == TruthTable(1, 1, (1, 2))
    big = [[2**64 + 1, 2**70], [-1, 2**63]]
    assert from_entries(1, 1, big) == TruthTable(1, 1, (1, 1))
    assert from_entries(0, 1, np.array([[True, True]])) == TruthTable(0, 1, (3,))


@pytest.mark.parametrize("entries", [
    [[1], [0, 1]],           # ragged: the short row is not padded
    [[1, 0], [0]],
    [[1, 0, 0], [0, 1, 0]],  # rows of 3 cells, the third even
    [[1], [0]],              # rows of 1 cell for 2 columns
    [[1, 0]],                # one row for two
    [[1, 0], [0, 1], [1, 1]],
    [1, 0, 0, 1],            # flat
    [],
])
def test_from_entries_rejects_wrongly_sized_tables(entries):
    with pytest.raises(ValueError):
        from_entries(1, 1, entries)
