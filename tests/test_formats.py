"""Text formats: every printer's output parses back to the value printed.

The values come from the selftest generator (``harness.gen_case``) and
from hand-written lines of the source grammar with paths, inverse roles,
negated groups, alternatives and guarded comparisons. Data is printed by
``serialize_interpretation``, the one printer for every interpretation.
"""
from __future__ import annotations

import sys

import pytest

from ontoshacl.core import ABox, Role
from ontoshacl.formats import (
    _ident_end,
    parse_abox,
    parse_constraints,
    parse_targets,
    parse_tbox,
    serialize_constraints,
    serialize_interpretation,
    serialize_targets,
    serialize_tbox,
)
from ontoshacl.harness import case_rng, gen_case


@pytest.mark.parametrize("seed", range(3))
def test_generated_cases_round_trip(seed):
    for i in range(100):
        tbox, abox, sg = gen_case(case_rng(seed, i))
        assert parse_tbox(serialize_tbox(tbox)) == tbox, (seed, i)
        assert parse_abox(serialize_interpretation(abox)) == abox, (seed, i)
        cons = list(sg.constraints)
        assert parse_constraints(serialize_constraints(cons)) == cons, (seed, i)
        targets = list(sg.targets)
        assert parse_targets(serialize_targets(targets)) == targets, (seed, i)


SOURCE_SHAPES = """\
$a <- some <p/q*>.(A & !$b)
$b <- (@x & eq(<p>,<^q/r>)) | some [^r,p].!$c
$c <- !(A | B) & some <(p|^q)*/r>.top
$d <- @y & disj(<p*>,<q>)
$e <- bot | !$a
$f <- eq(<^p>,<q/q*>) & @z
"""


def test_source_grammar_shapes_round_trip():
    cons = parse_constraints(SOURCE_SHAPES)
    text = serialize_constraints(cons)
    assert parse_constraints(text) == cons
    assert serialize_constraints(parse_constraints(text)) == text


def test_source_grammar_tbox_round_trips():
    tbox = parse_tbox(
        "A & B <= C\ntop <= D\nA <= some ^r.top\nB <= only p.A\nC <= max1 ^q.B\n^p <= q\n"
    )
    assert parse_tbox(serialize_tbox(tbox)) == tbox


def test_data_round_trips_through_the_interpretation_printer():
    abox = parse_abox("A(a)\n^r(b,a)\np(a,a)\nBx(c)\n")
    assert abox == ABox.of(
        [("A", "a"), ("Bx", "c")], [(Role("r"), "a", "b"), (Role("p"), "a", "a")]
    )
    text = serialize_interpretation(abox)
    assert text == "A(a)\nBx(c)\np(a,a)\nr(a,b)\n"
    assert parse_abox(text) == abox


def test_targets_round_trip():
    targets = [("s", "a"), ("t_1", "b2"), ("s", "a")]
    assert parse_targets(serialize_targets(targets)) == targets


def test_identifiers_are_the_characters_isalnum_or_underscore_accepts():
    # the one-match scan accepts exactly what a per-character loop over
    # ``isalnum()`` or ``_`` accepted, over every code point
    wrong = []
    for k in range(sys.maxunicode + 1):
        ch = chr(k)
        if (_ident_end(ch, 0) == 1) != (ch.isalnum() or ch == "_"):
            wrong.append(hex(k))
    assert wrong == []
    assert _ident_end("  ab_9é(x)", 2) == 7
    assert _ident_end("ab", 2) == 2
