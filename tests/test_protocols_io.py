"""Structural validation and text serialization round-trips."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox.cli import parse_circuit
from nlbox.compilers import and_from_oneway, ordered_to_ot, oneway_optimal
from nlbox.correlations import parse_correlation
from nlbox.library import disj_det_protocol, disj_rand_parallel, ip_protocol
from nlbox.protocols import (GeneralNlbProtocol, OneWayProtocol,
                             OrderedNlbProtocol, ProtocolMixture, validate)
from nlbox.serialize import ParseError, parse, serialize
from nlbox.truthtable import format_truth_table, ip_table, parse_truth_table
from util import random_ordered, random_table, random_tree, xor_as_ordered, \
    xor_as_parallel

RNG = random.Random(1234)

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


def test_parse_ignores_comments_and_blank_lines():
    text = serialize(ip_protocol(1))
    noisy = "\n# a comment\n" + text.replace("\n", "\n\n# noise\n")
    assert parse(noisy) == ip_protocol(1)


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


_FUZZ_TOKENS = st.sampled_from(
    ["", " ", "\n", "#", "/", "=", "x", "0", "1", "-1", "2", "9", "1/0",
     "0/0", "-1/0", "0/1", "1/2", "a", "b", "ab", "input", "and", "xor",
     "not", "output", "mix", "protocol", "corr", "nx=1", "ny=", "t=2"])


@st.composite
def _mutated(draw, text: str) -> str:
    """Valid text with up to three of its tokens or separators replaced,
    deleted (replaced by "") or followed by an inserted token."""
    parts = re.split(r"(\s+)", text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        tok = draw(_FUZZ_TOKENS)
        parts[i] = parts[i] + tok if draw(st.booleans()) else tok
    return "".join(parts)


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
        parser(data.draw(_mutated(text)))
    except ValueError:  # ParseError and ProtocolError included
        pass


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
    bad = OrderedNlbProtocol(p.nx, p.ny, p.t, bad_step_a, p.step_b,
                             p.out_a, p.out_b)
    assert any("future" in e for e in validate(bad))


def test_validate_rejects_bad_mixture_weights():
    comp = ip_protocol(1)
    bad = ProtocolMixture(((HALF, comp), (Fraction(1, 3), comp)))
    assert any("sum" in e for e in validate(bad))
    neg = ProtocolMixture(((Fraction(3, 2), comp), (-HALF, comp)))
    assert any("nonpositive" in e for e in validate(neg))


def test_validate_rejects_bad_schedule():
    ordered = xor_as_ordered(ip_protocol(2))
    bad = GeneralNlbProtocol(ordered.nx, ordered.ny, ordered.t,
                             (0, 0), ordered.step_a,
                             (0, 1), ordered.step_b,
                             ordered.out_a, ordered.out_b)
    assert any("permutation" in e for e in validate(bad))


def test_validate_rejects_out_of_range_message():
    p = oneway_optimal(ip_table(1))
    bad = OneWayProtocol(p.nx, p.ny, p.t, (0, 1 << p.t), p.out_a, p.out_b)
    assert any("message space" in e for e in validate(bad))


def test_validate_rejects_desynchronized_ot():
    ot = ordered_to_ot(xor_as_ordered(ip_protocol(2)))
    # choice table of call 1 reading two received bits instead of one
    bad_in_b = (ot.in_b[0],
                tuple(tuple(row) + (0, 0) for row in ot.in_b[1]))
    from nlbox.protocols import OtProtocol
    bad = OtProtocol(ot.nx, ot.ny, ot.t, ot.r_weights, ot.in_a, bad_in_b,
                     ot.out_a, ot.out_b)
    assert any("future" in e for e in validate(bad))
