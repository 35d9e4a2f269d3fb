"""Valid-by-construction protocols and text serialization round-trips."""

import dataclasses
import hashlib
import importlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox.cli import parse_circuit
from nlbox.compilers import and_from_oneway, ordered_to_ot, oneway_optimal
from nlbox.correlations import parse_correlation
from nlbox.engine import ProtocolError, exec_exact
from nlbox.library import disj_det_protocol, disj_rand_parallel, ip_protocol
from nlbox.protocols import (BITS, FRACS, INTS, PAIRS, GeneralNlbProtocol, OneWayProtocol,
                             OrderedNlbProtocol, OtProtocol, ProtocolMixture, layout, validate)
from nlbox.serialize import ParseError, parse, serialize
from nlbox.truthtable import (TruthTable, content_lines, format_truth_table, ip_table,
                              parse_truth_table)
from util import KINDS, TRUTH_TABLE_BAD_HEADERS, input_laws, mutated, oracle_parse, \
    random_ordered, random_protocol, random_table, random_tree, xor_as_ordered, xor_as_parallel

RNG = random.Random(1234)
# the module, which the package's serialize function shadows
serialize_module = importlib.import_module("nlbox.serialize")

HALF = Fraction(1, 2)


def _samples():
    xor = ip_protocol(2)
    ordered = xor_as_ordered(xor)
    oneway = oneway_optimal(random_table(2, 2, RNG))
    general = GeneralNlbProtocol(ordered.nx, ordered.ny, ordered.t,
                                 tuple(range(ordered.t)), ordered.step_a,
                                 tuple(range(ordered.t)), ordered.step_b,
                                 ordered.out_a, ordered.out_b)
    return [
        xor,
        xor_as_parallel(xor),
        ordered,
        general,
        oneway,
        random_tree(2, 2, 3, RNG),
        and_from_oneway(oneway),
        ordered_to_ot(ordered),
        disj_rand_parallel(2, Fraction(1, 3)),
    ]


@pytest.mark.parametrize("idx", range(9))
def test_roundtrip_every_kind(idx):
    p = _samples()[idx]
    assert validate(p) == []
    text = serialize(p, provenance="roundtrip test")
    assert text.startswith("# provenance: roundtrip test")
    q = parse(text)
    assert q == p
    # serialization is canonical apart from the provenance comment
    assert serialize(q) == serialize(p)


# sha256 of the text below; any change to the text format changes it
SERIALIZE_GOLDEN = "2d4d3380ac6682b590b623db95a64029c5379a2ff56864c64cb67f0d60df829e"


def test_serialize_matches_recorded_text():
    rng = random.Random(4)
    text = "".join(serialize(random_protocol(kind, nx, ny, t, rng))
                   for kind in KINDS
                   for nx, ny, t in ((0, 1, 0), (1, 1, 1), (2, 1, 2), (1, 2, 3)))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZE_GOLDEN


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), nx=st.integers(0, 2), ny=st.integers(0, 2),
       t=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_property(kind, nx, ny, t, seed):
    # p is built from tuples; parsing its text gives arrays equal to them
    p = random_protocol(kind, nx, ny, t, random.Random(seed))
    assert validate(p) == []
    q = parse(serialize(p))
    assert q == p and hash(q) == hash(p)


def _tables(obj, path=()):
    """(path, table) for every table of a protocol's fields, array or
    tuple: each table, row and OT pair, through mixture components."""
    if isinstance(obj, ProtocolMixture):
        for i, (_w, comp) in enumerate(obj.components):
            yield from _tables(comp, path + ("components", i, 1))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj)[3:]:  # past nx, ny, t
            yield from _tables(getattr(obj, f.name), path + (f.name,))
    elif isinstance(obj, tuple) or isinstance(obj, np.ndarray) and obj.ndim:
        yield path, obj
        for i, v in enumerate(obj):
            yield from _tables(v, path + (i,))


def _replace(obj, path, new):
    """obj with the table at path replaced by new, rebuilt through the
    constructors; a table holding new becomes a tuple of its entries."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(obj, (tuple, np.ndarray)):
        return (*obj[:key], _replace(obj[key], rest, new), *obj[key + 1:])
    return dataclasses.replace(obj, **{key: _replace(getattr(obj, key), rest, new)})


def _label(p, path) -> str:
    """The layout label of the table at path in p (of its field, for a
    field of one table per box), through mixture components."""
    while path[0] == "components":
        p, path = p.components[path[1]][1], path[3:]
    labels = {index: label for label, field, index, *_ in layout(type(p), p.nx, p.ny, p.t, p)
              if field == path[0]}
    if None in labels:
        return labels[None]
    return labels[path[1]] if len(path) > 1 else labels[0].rsplit(" ", 1)[0]


@pytest.mark.parametrize("kind", KINDS)
def test_validate_reports_every_malformed_table(kind):
    """Each table, row or pair truncated, extended by a copy of its last
    entry, replaced by a 0-d array, or with one entry set to 2^t (2 for
    t = 1; the first value outside every table's range), -1, 2^70, 0.0,
    1.0, 1+0j or Fraction(1) is a ProtocolError at construction that
    names its table's label (OT weights: the rule they break), never a
    uint8 cast wrapping its cells or iterating a 0-d array.  An array
    table with its first or last cell set to 2^t in its own dtype, which
    needs no cast, or copied as float64 is refused too."""
    rng = random.Random(kind)
    for nx, ny, t in ((1, 1, 1), (1, 2, 2)):
        p = random_protocol(kind, nx, ny, t, rng)
        tables = list(_tables(p))
        assert any(isinstance(tab, np.ndarray) for _path, tab in tables)
        for path, tab in tables:
            label = re.escape(_label(p, path))
            if label == "rweights":  # or the weight rule it breaks
                label += r"|(\w+ )?private-randomness"
            bad = [tab[:-1], (*tab, tab[-1]), np.array(5)]
            # skipping an entry given as it already is: an OT weight of 1
            bad += [(*tab[:i], cell, *tab[i + 1:])
                    for i in range(len(tab))
                    for cell in (1 << t, -1, 2**70, 0.0, 1.0, 1 + 0j, Fraction(1))
                    if not (type(cell) is type(tab[i]) and cell == tab[i])]
            for k in (0, -1) if isinstance(tab, np.ndarray) else ():
                bad.append(tab.copy())
                bad[-1].reshape(-1)[k] = 1 << t
            if isinstance(tab, np.ndarray):
                bad.append(tab.astype(np.float64))
            for new in bad:
                with pytest.raises(ProtocolError, match=f"^invalid protocol: (.*; )?({label})"):
                    _replace(p, path, new)


# entries a table can be given, well-formed or not
_CELLS = (0, 1, 2, -1, True, False, np.uint8(1), np.int64(0), np.float64(1), 0.0, 1.0,
          1 + 0j, Fraction(1), HALF, None, "1", (0, 1), 2**70)
# whole tables given in another container or dtype, writable or strided
_FORMS = (tuple, list, lambda tab: np.array(tab, dtype=object),
          lambda tab: np.repeat(tab, 2)[::2],
          *(lambda tab, d=d: np.array(tab).astype(d)
            for d in (bool, np.int8, np.int64, np.uint8, np.float64, complex)))
_DTYPES = {BITS: np.uint8, PAIRS: np.uint8, INTS: np.int64}


def _assert_canonical(p):
    """Every table of p (of each mixture leaf) is a read-only array of its
    layout's dtype and shape, a tree round a tuple of them; OT weights
    are a tuple."""
    if isinstance(p, ProtocolMixture):
        for _w, c in p.components:
            _assert_canonical(c)
        return
    for label, field, index, cells, rows, width in layout(type(p), p.nx, p.ny, p.t, p):
        tab = getattr(p, field)
        if index is not None:
            assert isinstance(tab, tuple), label
            tab = tab[index]
        if cells == FRACS:
            assert isinstance(tab, tuple), label
            continue
        if isinstance(width, tuple):  # a tree round: rows of their own widths
            assert isinstance(tab, tuple), label
            arrays = zip(tab, [(w,) for w in width])
        else:
            arrays = [(tab, (width,) if rows is None else (rows, width, 2)[:2 + (cells == PAIRS)])]
        for tab, shape in arrays:
            assert isinstance(tab, np.ndarray) and tab.dtype == _DTYPES[cells], label
            assert tab.shape == shape and not tab.flags.writeable, label


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), nx=st.integers(0, 2), ny=st.integers(0, 2),
       t=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_protocol_validate_accepts_is_canonical_and_runs(kind, nx, ny, t, seed, data):
    # one table of a random protocol given another way, or with one entry
    # replaced: the constructor raises ProtocolError and nothing else, or
    # builds a protocol that holds only the constructors' arrays, keeps
    # validate's rules, round-trips through the text format and runs in
    # the exact engine, as its parsed copy does
    p = random_protocol(kind, nx, ny, t, random.Random(seed))
    if tables := list(_tables(p)):
        path, tab = data.draw(st.sampled_from(tables))
        if len(tab) and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(tab) - 1))
            new = (*tab[:i], data.draw(st.sampled_from(_CELLS)), *tab[i + 1:])
        else:
            try:
                new = data.draw(st.sampled_from(_FORMS))(tab)
            except ValueError:  # a tree round's rows of two widths
                new = tab
        try:
            p = _replace(p, path, new)
        except ProtocolError:
            return
    assert validate(p) == []
    _assert_canonical(p)
    q = parse(serialize(p))
    assert q == p and hash(q) == hash(p)
    assert input_laws(p) == input_laws(q)


def test_validate_names_the_malformed_table():
    """Leaf rows, rounds, OT output bits, non-table entries and tables
    beyond t are each refused under their label."""
    def refused(match, build):
        with pytest.raises(ProtocolError, match=f"^invalid protocol: {match}"):
            build()
    tree = random_tree(1, 1, 2, RNG)
    refused("outA: ragged table$",
            lambda: dataclasses.replace(tree, out_a=((0,), *tree.out_a[1:])))
    refused("dir: expected 2 tables; bit: expected 2 tables$",
            lambda: dataclasses.replace(tree, direction=tree.direction[:1], bit=tree.bit[:1]))
    refused(re.escape("bit 1: row 0: 1 entries, expected 2: not total"),
            lambda: dataclasses.replace(tree, bit=(tree.bit[0], ((0,), *tree.bit[1][1:]))))
    ot = ordered_to_ot(disj_det_protocol(1))
    refused("outA: entry not of type bits$", lambda: dataclasses.replace(
        ot, out_a=((2, *ot.out_a[0][1:]), *ot.out_a[1:])))
    refused("outA: entry not of type bits$", lambda: dataclasses.replace(
        ot, out_a=np.array([[0, 1], [1, 2]], np.uint8)))
    xor = ip_protocol(1)
    refused("pbox 0: not a table$", lambda: dataclasses.replace(xor, pbox=(2,)))
    refused("pbox 0: entry not of type bits$",
            lambda: dataclasses.replace(xor, pbox=np.array([[0, 2]], np.uint8)))
    no_boxes = random_protocol("parallel", 1, 1, 0, RNG)
    refused("pbox: expected 0 tables$", lambda: dataclasses.replace(no_boxes, pbox=((0, 1),)))


def test_constructors_refuse_the_tables_that_ran_wrong():
    # an outA cell of 2 ran to an output bit of 2 and was written as a 1;
    # a tuple localA holding a 5 ended error_profile and serialize in an
    # IndexError and an AttributeError; a ragged step table and a float
    # output table reached the engine
    p = disj_det_protocol(1)
    for bad, want in ((dict(out_a=np.array([[0, 2], [1, 0]], np.uint8)), "outA: entry not"),
                      (dict(step_a=(((0,), (0, 1)),)), "stepA 0: ragged table"),
                      (dict(out_a=np.asarray(p.out_a, np.float64)), "outA: entry not")):
        with pytest.raises(ProtocolError, match=f"^invalid protocol: {want}"):
            dataclasses.replace(p, **bad)
    with pytest.raises(ProtocolError, match="^invalid protocol: localA: entry not of type bits$"):
        dataclasses.replace(ip_protocol(1), local_a=(0, 5))
    with pytest.raises(ProtocolError, match="^int is not a protocol kind$"):
        exec_exact(5, 0, 0)


@pytest.mark.parametrize("x, y", [(-1, 0), (2, 0), (0, -1), (0, 4)])
def test_tree_and_table_refuse_inputs_outside_the_domain(x, y):
    # -1 would wrap to the last row, and 2^n index past it
    domain = re.escape("outside 0 <= x < 2^1, 0 <= y < 2^2")
    tree = random_tree(1, 2, 2, RNG)
    for call in (tree.transcript, tree.evaluate):
        with pytest.raises(ProtocolError, match=f"^input {domain}$"):
            call(x, y)
    with pytest.raises(ValueError, match=f"^entry {domain}$"):
        TruthTable(1, 2, (0b1010, 0b0110)).entry(x, y)


def test_parse_errors_on_oversized_header():
    # a t = 1 body under a t = 1000 header: tables of 2^1000 rows or cells
    # are read line by line until the text runs out
    for kind in KINDS[:-1]:
        text = serialize(random_protocol(kind, 1, 1, 1, RNG))
        with pytest.raises(ParseError):
            parse(text.replace(" t=1\n", " t=1000\n"))


def test_parse_ignores_comments_and_blank_lines():
    text = serialize(ip_protocol(1))
    noisy = "\n# a comment\n" + text.replace("\n", "\n\n# noise\n")
    assert parse(noisy) == ip_protocol(1)
    # every text format drops the blank lines and the lines that start
    # with '#' once stripped: one rule, truthtable.content_lines
    for parser, text in _PARSER_INPUTS.values():
        noisy = "\n# a comment\n" + text.replace("\n", "\n\n  # noise\n\t\n")
        assert content_lines(noisy) == text.strip().splitlines()
        assert parser(noisy) == parser(text)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("protocol nosuchkind nx=1 ny=1 t=0\n")
    with pytest.raises(ParseError):
        parse("garbage header\n")
    good = serialize(ip_protocol(1))
    with pytest.raises(ParseError):  # truncated body
        parse("\n".join(good.splitlines()[:-1]))
    with pytest.raises(ParseError):  # trailing content
        parse(good + "protocol parallel-xor nx=1 ny=1 t=0\n")
    with pytest.raises(ParseError):  # wrong bit-line width
        parse(good.replace("\n01\n", "\n011\n", 1))
    with pytest.raises(ParseError):  # header without ny=
        parse("protocol parallel-xor nx=1 t=0\n")
    with pytest.raises(ParseError):  # bare mixture header
        parse("mix\n")
    with pytest.raises(ParseError):  # zero-denominator mixture weight
        parse("mix 1 1/0\n" + good)
    # a mixture of fewer than one component
    for head in ("mix 0 1/1", "mix -3 1/1"):
        with pytest.raises(ParseError, match="^bad mixture header"):
            parse(f"{head}\n{good}")


def test_parse_reads_numbers_as_ascii_decimal():
    # int() would read each replacement; counts, widths and cells are
    # ASCII decimal digits, rationals n/d in them
    ip = serialize(ip_protocol(1))
    for bad in ("nx=\u0661", "nx=+1", "nx=1_0", "nx=-1"):
        with pytest.raises(ParseError, match="^bad header"):
            parse(ip.replace("nx=1", bad, 1))
    ow = serialize(oneway_optimal(ip_table(1)))
    msg = re.search(r"^msg: (\S+)", ow, re.M)
    for bad in ("+" + msg[1], "\u0661", "1_0"):
        with pytest.raises(ParseError, match=f"^msg {re.escape(repr(bad))} is not a decimal"):
            parse(ow.replace(msg[0], f"msg: {bad}", 1))
    ot = serialize(ordered_to_ot(disj_det_protocol(1)))
    weights = re.search(r"^rweights: .*$", ot, re.M)[0]
    for bad in ("+1/2", "1/+2", "1_0/20", "\u0661/2", "1", "1/0"):
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
            parse(ot.replace(weights, weights + " " + bad, 1))
    for bad in ("mix 1 +1/1", "mix \u0661 1/1", "mix 1 1"):
        with pytest.raises(ParseError, match="^bad mixture header"):
            parse(f"{bad}\n{ip}")


@pytest.mark.parametrize("row", ["0201", "01 1", "01\uff111", "0\u06611",
                                 "010", "01011", "\u0661"])
def test_parse_rejects_bad_bit_row(row):
    # the row "0011" of pbox 1 replaced; digits of other scripts are one
    # character but several bytes
    text = serialize(ip_protocol(2)).replace("pbox 1:\n0011\n", f"pbox 1:\n{row}\n")
    with pytest.raises(ParseError, match=f"^expected 4-bit line, found {re.escape(repr(row))}$"):
        parse(text)


@pytest.mark.parametrize("row", ["02 10", "1 10", "011 10", "00 1\uff11",
                                 "00", "00 11 01"])
def test_parse_rejects_bad_pair_row(row):
    text = serialize(ordered_to_ot(disj_det_protocol(1)))
    text = text.replace("inA 0:\n00 11\n", f"inA 0:\n{row}\n")
    with pytest.raises(ParseError, match="^bad OT pair row$"):
        parse(text)


def test_serialize_bool_rows_as_bits():
    p = ip_protocol(2)
    as_bools = dataclasses.replace(
        p, pbox=tuple(tuple(map(bool, row)) for row in p.pbox),
        local_a=tuple(map(bool, p.local_a)))
    assert serialize(as_bools) == serialize(p)


@pytest.mark.parametrize("header", TRUTH_TABLE_BAD_HEADERS)
def test_truth_table_header_rejected_without_building_rows(header):
    widths = header.split()
    digits = len(widths) == 2 and all(w.isascii() and w.isdigit() for w in widths)
    want = "asks for" if digits else "must be 'nx ny' in decimal digits"
    with pytest.raises(ValueError, match=f"^header {re.escape(repr(header))} {want}"):
        parse_truth_table(f"{header}\n0\n")


def test_truth_table_widths_accept_leading_zeros():
    assert parse_truth_table("01 001\n01\n10\n") == parse_truth_table("1 1\n01\n10\n")
    with pytest.raises(ValueError, match="rows of 2\\^1 cells"):
        parse_truth_table("1 1\n01\n1\n")


_PARSER_INPUTS = {
    "truth-table": (parse_truth_table, format_truth_table(ip_table(2))),
    "correlation": (parse_correlation, "corr 2 2\n1/2 1/3\n0/1 1/1\n"),
    "protocol-mixture": (parse, serialize(disj_rand_parallel(1, Fraction(1, 3)))),
    "protocol-ot": (parse, serialize(ordered_to_ot(disj_det_protocol(1)))),
    "circuit": (parse_circuit, "circuit 2 2\ninput a 0\ninput ab 1 0\n"
                               "input b 1\nand 0 2\nxor 1 3\nor 3 4\n"
                               "not 5\noutput 6\n"),
}


@pytest.mark.parametrize("name", sorted(_PARSER_INPUTS))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_value_error_on_mutated_text(name, data):
    parser, text = _PARSER_INPUTS[name]
    parser(text)
    try:
        parser(data.draw(mutated(text)))
    except ValueError:  # ParseError and ProtocolError included
        pass


_PADS = (" ", "\t", "\x0b", "\x0c", "\x1c")


def _line_variants(lines: list[str], i: int):
    """lines with line i changed in each way a text can differ from
    serialize's: missing; after a blank, comment or non-ASCII line;
    padded with whitespace; split by a line break of str.splitlines;
    another separator; short; a 2 in place of a cell; a cell moved to
    the next line."""
    line, before, after = lines[i], lines[:i], lines[i + 1:]
    yield before + after
    for extra in ("", "\t", "# between rows", "# café ✓"):
        yield before + [extra, line] + after
    for pad in _PADS:
        yield before + [pad + line] + after
        yield before + [line + pad] + after
    k = len(line) // 2
    for c in ("\r", "\x0b", "\x0c", "\x1c"):
        yield before + [line[:k] + c + line[k:]] + after
    for c in ("\t", "  ", "\x0b", "x"):
        yield before + [line.replace(" ", c, 1)] + after
    if line:
        yield before + [line[:-1]] + after
        yield before + [line[:k] + "2" + line[k + 1:]] + after
        if after:
            yield before + [line[:-1], line[-1] + after[0]] + after[1:]


def _text_variants(lines: list[str]):
    """The text of lines with LF, CRLF and CR line ends, after a BOM,
    without a final newline, and cut at a third and at a half."""
    text = "\n".join(lines) + "\n"
    yield from (text, text.replace("\n", "\r\n"), text.replace("\n", "\r"), "\ufeff" + text,
                text[:-1], text[:len(text) // 3], text[:len(text) // 2])


@st.composite
def _edited_text(draw) -> str:
    """serialize's text of a random protocol of any kind (mixtures and
    trees included) with up to three lines changed, one of its
    _text_variants, and perhaps cut short."""
    kind = draw(st.sampled_from(KINDS))
    nx, ny, t = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    p = random_protocol(kind, nx, ny, t, random.Random(draw(st.integers(0, 2**32 - 1))))
    lines = serialize(p, provenance=draw(st.sampled_from([None, "edit test"]))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines = draw(st.sampled_from(list(_line_variants(lines, i))))
    text = draw(st.sampled_from(list(_text_variants(lines))))
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 0 else text


def _outcome(parser, text):
    """What parser makes of text: a protocol, or an error's type and words."""
    try:
        return parser(text)
    except ValueError as exc:  # ParseError, ProtocolError, UnicodeDecodeError
        return type(exc), str(exc)


def _assert_parse_agrees_with_oracle(text: str):
    want = _outcome(oracle_parse, text)
    assert _outcome(parse, text) == want
    assert _outcome(parse, text.encode()) == want


@settings(max_examples=400, deadline=None)
@given(text=_edited_text())
def test_parse_agrees_with_line_by_line_oracle(text):
    _assert_parse_agrees_with_oracle(text)


@pytest.mark.parametrize("kind", KINDS)
def test_parse_agrees_with_oracle_on_each_line_changed(kind):
    p = random_protocol(kind, 1, 1, 1, random.Random(kind))
    lines = serialize(p, provenance="edit test").splitlines()
    for text in _text_variants(lines):
        _assert_parse_agrees_with_oracle(text)
    for i in range(len(lines)):
        for variant in _line_variants(lines, i):
            _assert_parse_agrees_with_oracle("\n".join(variant) + "\n")


@pytest.mark.parametrize("idx", range(9))
def test_block_path_reads_what_serialize_writes(idx, monkeypatch):
    # the line path is only for text serialize does not write
    p = _samples()[idx]
    text = serialize(p, provenance="block path")
    monkeypatch.setattr(serialize_module, "_Lines", None)
    assert parse(text) == p and parse(text.encode()) == p


def test_parse_inconsistent_mixture_headers():
    comp = serialize(ip_protocol(1)).strip()
    text = f"mix 2 1/2\n{comp}\nmix 3 1/2\n{comp}\n"
    with pytest.raises(ParseError):
        parse(text)


def test_validate_accepts_library_protocols():
    for p in _samples():
        assert validate(p) == []


def test_validate_rejects_future_reading_step():
    p = random_ordered(1, 1, 2, RNG)
    # widen step 0's table so it would depend on a not-yet-seen outcome
    bad_step_a = ((tuple((0, 1) for _x in range(2))),) + p.step_a[1:]
    with pytest.raises(ProtocolError, match="stepA 0: .*future"):
        OrderedNlbProtocol(p.nx, p.ny, p.t, bad_step_a, p.step_b, p.out_a, p.out_b)


def test_validate_rejects_bad_mixture_weights():
    comp = ip_protocol(1)

    def refused(components, errs):
        want = re.escape("invalid protocol: " + "; ".join(errs))
        with pytest.raises(ProtocolError, match=f"^{want}$"):
            ProtocolMixture(components)
    refused(((HALF, comp), (Fraction(1, 3), comp)), ["mixture: weights sum to 5/6, not 1"])
    refused(((Fraction(3, 2), comp), (-HALF, comp)), ["mixture: nonpositive weight"])
    # weights that are no rational number, components that are no
    # (weight, protocol) pairs, hold no protocol, or are none, and
    # components of two kinds or widths are refused in validate's words
    not_pairs = "mixture: components not (weight, protocol) pairs"
    cases = [(((w, comp), (HALF, comp)), ["mixture: weight not a rational number"])
             for w in ("1", None, 0.5, (1, 2))]
    cases += [(((HALF,),), [not_pairs]), (5, [not_pairs]), ((), ["mixture: no components"]),
              (((HALF, None), (HALF, None)), ["NoneType is not a protocol kind"] * 2),
              (((HALF, comp), (HALF, oneway_optimal(ip_table(1)))),
               ["mixture: components of mixed kinds"]),
              (((HALF, comp), (HALF, ip_protocol(2))),
               ["mixture: components disagree on dimensions or box count"])]
    for components, errs in cases:
        refused(components, errs)
    ot = ordered_to_ot(disj_det_protocol(1))
    assert validate(ot) == []
    for weights in (("1",), (HALF, "1"), (None, HALF), (0.5, 0.5)):
        with pytest.raises(ProtocolError, match="private-randomness weight not a rational number"):
            dataclasses.replace(ot, r_weights=weights)
    for weights, err in (((HALF, HALF, HALF), "private-randomness weights do not sum to 1"),
                         ((Fraction(3, 2), -HALF), "nonpositive private-randomness weight"),
                         ((), "empty private-randomness domain")):
        with pytest.raises(ProtocolError, match=err):
            dataclasses.replace(ot, r_weights=weights)


def test_mixture_given_a_list_is_the_protocol_it_writes():
    comp = ip_protocol(1)
    for components in ([(HALF, comp), (HALF, comp)], [[HALF, comp], (HALF, comp)]):
        mix = ProtocolMixture(components)
        assert mix.components == ((HALF, comp), (HALF, comp))
        assert validate(mix) == []
        back = parse(serialize(mix))
        assert back == mix and hash(back) == hash(mix)


def test_mixture_of_mixtures_is_refused_built_and_parsed():
    # a component is one protocol of a kind, never a mixture: so a
    # mixture of an IP mixture and a one-way mixture, whose leaves are of
    # two kinds, is refused, as is an IP mixture next to an IP protocol
    comp = ip_protocol(1)
    ip_mix = ProtocolMixture(((HALF, comp), (HALF, comp)))
    ow_mix = ProtocolMixture(((HALF, oneway_optimal(ip_table(1))),) * 2)
    for components, n in ((((HALF, ip_mix), (HALF, ow_mix)), 2),
                          (((HALF, comp), (HALF, ip_mix)), 1)):
        want = "; ".join(["ProtocolMixture is not a protocol kind"] * n)
        with pytest.raises(ProtocolError, match=f"^invalid protocol: {want}$"):
            ProtocolMixture(components)
    # the same written by hand, a "mix" header where a protocol belongs
    inner = f"mix 2 1/2\n{serialize(comp)}" * 2
    with pytest.raises(ParseError, match="^bad header 'mix 2 1/2'$"):
        parse(f"mix 2 1/2\n{inner}" * 2)


@pytest.mark.parametrize("kind", KINDS[:-1])
def test_random_mixture_of_every_kind_roundtrips(kind):
    rng = random.Random(f"mix:{kind}")
    for weights in ((Fraction(1),), (Fraction(1, 4), Fraction(3, 4)),
                    (Fraction(1, 6), Fraction(1, 3), HALF)):
        nx, ny, t = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        mix = ProtocolMixture(tuple((w, random_protocol(kind, nx, ny, t, rng)) for w in weights))
        back = parse(serialize(mix))
        assert back == mix and hash(back) == hash(mix)


def test_empty_tables_of_any_dtype_are_accepted():
    # t = 0 schedules hold no cell, so their dtype carries no value;
    # casting an empty complex array would warn
    p = random_protocol("general", 0, 0, 0, random.Random(7))
    for d in (complex, np.float64, bool, object):
        assert dataclasses.replace(p, sched_a=np.array([], d), sched_b=np.array([], d)) == p


@pytest.mark.parametrize("value", [1.0, None, "1", Fraction(1)])
@pytest.mark.parametrize("dim", ["nx", "ny", "t"])
def test_validate_reports_non_integer_dimensions(dim, value):
    with pytest.raises(ProtocolError,
                       match="^invalid protocol: input width or box count not an integer$"):
        dataclasses.replace(ip_protocol(1), **{dim: value})


@pytest.mark.parametrize("dim", ["nx", "ny", "t"])
def test_validate_refuses_a_negative_dimension(dim):
    with pytest.raises(ProtocolError,
                       match="^invalid protocol: negative input width or box count$"):
        dataclasses.replace(ip_protocol(1), **{dim: -1})


def test_validate_rejects_bad_schedule():
    ordered = xor_as_ordered(ip_protocol(2))
    # a repeated label, or an entry of no integer: an invalid protocol,
    # not a TypeError
    for sched, err in (((0, 0), "not a permutation of box labels"),
                       ((0, "1"), "entry not of type ints"), ((None, 0), "entry not of type ints"),
                       ((1.0, 0), "entry not of type ints"), (((0, 1), 1), "ragged table")):
        with pytest.raises(ProtocolError, match=f"^invalid protocol: schedA: {err}$"):
            GeneralNlbProtocol(ordered.nx, ordered.ny, ordered.t, sched, ordered.step_a,
                               (0, 1), ordered.step_b, ordered.out_a, ordered.out_b)


def test_validate_rejects_out_of_range_message():
    p = oneway_optimal(ip_table(1))
    for msg, err in (((0, 1 << p.t), " value outside the t-bit message space"),
                     ((0, -1), " value outside the t-bit message space"),
                     ((None, 0), ": entry not of type ints"),
                     (("1", 0), ": entry not of type ints"), ((0, 0.5), ": entry not of type ints")):
        with pytest.raises(ProtocolError, match=f"^invalid protocol: msg{err}$"):
            OneWayProtocol(p.nx, p.ny, p.t, msg, p.out_a, p.out_b)


def test_validate_rejects_desynchronized_ot():
    ot = ordered_to_ot(xor_as_ordered(ip_protocol(2)))
    # choice table of call 1 reading two received bits instead of one
    bad_in_b = (ot.in_b[0],
                tuple(tuple(row) + (0, 0) for row in ot.in_b[1]))
    with pytest.raises(ProtocolError, match="inB 1: .*future"):
        OtProtocol(ot.nx, ot.ny, ot.t, ot.r_weights, ot.in_a, bad_in_b, ot.out_a, ot.out_b)
