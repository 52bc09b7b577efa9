"""Text formats: every printer's output parses back to the value printed.

The values come from the selftest generator (``harness.gen_case``) and
from hand-written lines of the source grammar with paths, inverse roles,
negated groups, alternatives and guarded comparisons. Data is printed by
``serialize_interpretation``, the one printer for every interpretation.

The patterns that read axiom, flat constraint, data and target lines are
checked against the cursor readers in ``oracles``, on drawn lines, and the
JSON report against ``json.dumps``.
"""
from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshacl.core import (
    ABox, AtMostOne, ConjInclusion, ExistsInclusion, Role, RoleInclusion, TBox
)
from ontoshacl.formats import (
    ParseError,
    _ident_end,
    parse_abox,
    parse_constraints,
    parse_targets,
    parse_tbox,
    serialize_constraints,
    serialize_interpretation,
    serialize_targets,
    serialize_tbox,
    report_to_json,
)
from ontoshacl.harness import case_rng, gen_case
from ontoshacl.shapes import (
    And, ConceptRef, Constraint, ExistsRoles, IndividualRef, NegShapeRef, Or, ShapeRef
)
from oracles import (
    cursor_parse_abox,
    cursor_parse_constraints,
    cursor_parse_targets,
    cursor_parse_tbox,
    json_report,
)


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


# ---------------------------------------------------------------------------
# the line patterns against the cursor

# the characters the four line grammars read, space, tab, a space that
# the cursor does not skip, digits, ``_`` and one non-ASCII letter
LINE_CHARS = "ABrq^(),$@<=-&|!.[] \t\xa01_é#"
# good and bad names: cases, ``top``/``bot``, a keyword, a reserved shape
# name, a collapsed role name (``q``) and the non-ASCII letter
NAMES = ["A", "Bé", "r", "q", "a", "b_2", "é", "top", "bot", "_x", "1a", "R", "some"]
ABOX_SKELETONS = ["N(N)", "N(N,N)", "^N(N,N)", "^N(N)", "N(N,N,N)", "$N(@N)"]
TARGET_SKELETONS = ["$N(@N)", "$N(N)", "N(@N)", "$N(@N,N)", "N(N)"]
TBOX_SKELETONS = [
    "N<=N", "N&N<=N", "N&N&N<=N", "N<=some N.N", "N<=only ^N.N", "N<=max1 N.N", "^N<=N",
    "N<=^N", "N&N<=some N.N", "N<=some N.(N)", "N<=N.N",
]
SHACL_SKELETONS = [
    "$N<-N", "$N<-!$N&@N", "$N<-some [N,^N].$N|N", "$N<-N|N&N", "$N<-some [N].!$N&$N",
    "$N<-some [N].@N|!$N|N", "$N<-N&(N|N)", "$N<-some <N>.N", "$N<-some [N].some [N].N",
]
# a skeleton's tokens: keywords, two-character operators, then characters
SKELETON_TOKEN = re.compile(r"some |only |max1 |<=|<-|.")
RENAMING = {"q": Role("r", True)}


def _outcomes(text: str):
    """What the package and the cursor make of ``text`` as axioms, as
    constraints and as data, the last two with and without a renaming, and
    as targets: values, or error messages."""

    def outcome(parse, *args):
        try:
            return parse(*args)
        except ParseError as exc:
            return str(exc)

    return [
        (outcome(parse, text, source, *rest), outcome(reference, text, source, *rest))
        for parse, reference, source, rest in [
            (parse_tbox, cursor_parse_tbox, "in.tbox", ()),
            (parse_constraints, cursor_parse_constraints, "in.shacl", ()),
            (parse_constraints, cursor_parse_constraints, "in.shacl", (RENAMING,)),
            (parse_abox, cursor_parse_abox, "in.abox", ()),
            (parse_abox, cursor_parse_abox, "in.abox", (RENAMING,)),
            (parse_targets, cursor_parse_targets, "in.targets", ()),
        ]
    ]


@st.composite
def near_lines(draw, skeletons) -> str:
    """A line of one of the given shapes, with names drawn from ``NAMES``,
    spaces or tabs between tokens (in about one line of three, one gap is
    the space the cursor does not skip), and maybe one character
    inserted, removed or replaced. A keyword keeps a space after it."""
    tokens = [draw(st.sampled_from(NAMES)) if tok == "N" else tok
              for tok in SKELETON_TOKEN.findall(draw(st.sampled_from(skeletons)))]
    gaps = [draw(st.sampled_from(["", "", " ", "\t", " \t"])) for _ in tokens]
    odd = draw(st.integers(0, 3 * len(gaps)))
    if odd < len(gaps):
        gaps[odd] = "\xa0"
    line = "".join(t + g for t, g in zip(tokens, gaps))
    i = draw(st.integers(0, len(line)))
    ch = draw(st.sampled_from(LINE_CHARS))
    edit = draw(st.sampled_from(["none", "none", "none", "insert", "remove", "replace"]))
    if edit == "insert":
        line = line[:i] + ch + line[i:]
    elif edit == "remove":
        line = line[:i] + line[i + 1:]
    elif edit == "replace":
        line = line[:i] + ch + line[i + 1:]
    return line


@settings(max_examples=500, deadline=None)
@given(st.lists(
    st.one_of(
        near_lines(ABOX_SKELETONS), near_lines(TARGET_SKELETONS), near_lines(TBOX_SKELETONS),
        near_lines(SHACL_SKELETONS), st.text(LINE_CHARS, max_size=12),
    ),
    min_size=1,
    max_size=2,
))
def test_the_line_patterns_read_what_the_cursor_reads(lines):
    # the same values, or the same error at the same place
    for got, want in _outcomes("\n".join(lines) + "\n"):
        assert got == want


@pytest.mark.parametrize("line", [
    "A(a)", "r(a,b)", "^ q(a, b)", "$s(@a)", "$ s ( @ a )",
    "A & B <= C", "A <= some ^q.B", "^r <= q", "C <= max1 r.top", "A & B <= some r.C",
    "top <= q",
    "$s <- some [q,^r].!$t | @a & B", "$s <- A | B & $ t", "$s <- some [bot].A",
])
def test_the_line_patterns_agree_with_the_cursor_one_edit_away(line):
    # every line one character inserted, removed or replaced away
    near = set()
    for i in range(len(line) + 1):
        near.add(line[:i] + line[i + 1:])
        for ch in LINE_CHARS:
            near.update((line[:i] + ch + line[i:], line[:i] + ch + line[i + 1:]))
    for text in sorted(near):
        for got, want in _outcomes(text + "\n"):
            assert got == want, repr(text)


def test_the_line_patterns_read_valid_lines_with_space_and_tabs():
    # ``q`` reads as ``^r``, so ``^q`` as ``r``
    text = "A ( a )\n^\tq(a ,b)\n  q(a,\tc)  # note\n"
    want = ABox.of([("A", "a")], [(Role("r"), "a", "b"), (Role("r"), "c", "a")])
    assert parse_abox(text, renaming=RENAMING) == want
    assert parse_targets("$ s\t( @ a )\n$é(@b_2)\n") == [("s", "a"), ("é", "b_2")]
    tbox = "A\t&  B<=C\nA <= some^ r .\tB\n ^ r<=s\ntop <= max1 r.bot\n"
    assert parse_tbox(tbox) == TBox.of([
        ConjInclusion(frozenset({"A", "B"}), "C"), ExistsInclusion("A", Role("r", True), "B"),
        RoleInclusion(Role("r", True), Role("s")), AtMostOne("top", Role("r"), "bot"),
    ])
    shapes = "$ s<-some[ q ,r]. ! $ t|@a\t&B & top\n"
    inner = ExistsRoles(frozenset({Role("r", True), Role("r")}), NegShapeRef("t"))
    assert parse_constraints(shapes, renaming=RENAMING) == [
        Constraint("s", Or(inner, And(And(IndividualRef("a"), ConceptRef("B")), ConceptRef("top")))),
    ]
    assert parse_constraints("$s <- $t | A\n") == [
        Constraint("s", Or(ShapeRef("t"), ConceptRef("A")))
    ]


# ---------------------------------------------------------------------------
# the JSON report against json.dumps

ODD_NAMES = [
    "é", "Ωmega", "名", 'say "hi"', "back\\slash", "nul\x00 bell\x07 del\x7f", "tab\tline\n",
    "\u2028😀",
]


@pytest.mark.parametrize("targets, stats", [
    ([], {"quadruples": 3, "model_nodes": 0, "rounds": 0}),
    ([("s", "a", True), ("t", "b", False)], {}),
    ([], {}),
    ([("s", "a", None), ("t", "a", True), ("s", "b", None)], {"model_nodes": 12}),
    ([(n, m, v) for n, m, v in zip(ODD_NAMES, reversed(ODD_NAMES), [True, False, None] * 3)],
     {n: k - 4 for k, n in enumerate(ODD_NAMES)}),
], ids=["no-targets", "no-stats", "empty", "unknown", "odd-names"])
def test_the_json_report_is_json_dumps_byte_for_byte(targets, stats):
    for consistent in (True, False):
        for mode in ("direct", "pure-shaclb", "é\""):
            got = report_to_json(consistent, mode, targets, stats)
            assert got == json_report(consistent, mode, targets, stats)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.text(), st.text(), st.sampled_from([True, False, None])), max_size=4),
    st.dictionaries(st.text(), st.integers(), max_size=4),
)
def test_the_json_report_matches_json_dumps_on_any_names(targets, stats):
    want = json_report(True, "direct", targets, stats)
    assert report_to_json(True, "direct", targets, stats) == want


# characters that ``str.splitlines`` ends a line at, but an editor does not
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("odd", NOT_LINE_ENDS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_each_reader_ends_a_line_only_at_lf_crlf_or_cr(odd):
    # the odd character sits in a comment, so what follows it is comment too
    assert parse_tbox(f"A <= B # note{odd}C <= D\n") == TBox.of(
        [ConjInclusion(frozenset({"A"}), "B")]
    )
    assert parse_abox(f"A(a) # note{odd}B(b)\n") == ABox.of(concepts=[("A", "a")])
    assert parse_constraints(f"$s <- A # note{odd}$t <- B\n") == parse_constraints("$s <- A\n")
    assert parse_targets(f"$s(@a) # note{odd}$t(@b)\n") == [("s", "a")]
    # outside a comment it is inside the line: one line, not two constraints
    with pytest.raises(ParseError, match=r"^<shacl>:1:"):
        parse_constraints(f"$s <- A{odd}$t <- B")
    with pytest.raises(ParseError, match=r"^<tbox>:2:5:"):
        parse_tbox(f"A <= B # note{odd}C <= D\nbad line\n")


def test_a_line_ends_at_lf_crlf_and_cr_alike():
    with pytest.raises(ParseError, match=r"^<tbox>:4:5:"):
        parse_tbox("A <= B\r\nC <= D\rE <= F\nbad line\r\n")
    assert parse_targets("$s(@a)\r$t(@b)\r\n$u(@c)") == [("s", "a"), ("t", "b"), ("u", "c")]
