"""Constraint rewriting: folding ontology consequences into the shapes.

Two pinned fixtures:

* the chain ontology (two existentials, all-positive recursive shapes),
  whose rewriting must emit the anonymous-part summary
  s given A, not B, not C, and no p-child in B;
* the two-stratum fixture (one existential, negation across strata),
  whose rewriting must additionally thread the lower-stratum shape
  through the quantifier.

Pure routes are checked on small KBs by comparing verdicts against
validation over the completed graph. Shapes that read no common shape
name are rewritten apart, so their quadruples add up instead of
multiplying.
"""
from __future__ import annotations

import pytest

from ontoshacl.cli import ROUTES, prepare
from ontoshacl.core import (
    ABox,
    AtMostOne,
    ExistsInclusion,
    Role,
    TBox,
)
from ontoshacl.evaluate import perfect_assignment_b, validate
from ontoshacl.formats import parse_abox, parse_constraints, parse_tbox
from ontoshacl.model import complete_abox
from ontoshacl.rewrite import pure_rewrite_alchi, pure_rewrite_shaclb, rewrite
from ontoshacl.shapes import And, Constraint, ShapesGraph, compute_stratification
from ontoshacl.tbox import UnsupportedPattern, saturate

# =============================================================================
# FIXTURES
# =============================================================================

CHAIN_TBOX = parse_tbox("A <= some p.B\nB <= some q.C\n")

CHAIN_SHAPES = parse_constraints(
    """
    $s <- some [p].$s
    $s <- some [q].$s
    $s <- $sp & $spp
    $sp <- some [^p].$sp
    $sp <- some [^q].$sp
    $sp <- A
    $spp <- C
    """
)

CHAIN_DATA = parse_abox("A(a)\np(a,b)\n")

TWO_STRATUM_TBOX = parse_tbox("A <= some p.B\n")

TWO_STRATUM_SHAPES = parse_constraints(
    """
    $s_C <- C
    $sp <- some [p].$s_C
    $spp <- some [p].!$s_C
    $s <- $sp & $spp
    """
)

TWO_STRATUM_DATA = parse_abox("A(a)\np(a,b)\nC(b)\n")


def conjuncts(body):
    """Flatten a conjunction tree into its printed conjuncts."""
    if isinstance(body, And):
        return conjuncts(body.left) + conjuncts(body.right)
    return [str(body)]


def emitted(tbox, shapes, **kw):
    return rewrite(saturate(tbox), compute_stratification(shapes), **kw)


def heads_with_conjuncts(out, head):
    return [frozenset(conjuncts(c.body)) for c in out if c.head == head]


# =============================================================================
# EMISSION GOLDENS
# =============================================================================


def test_chain_emission_contains_the_summary_constraint():
    out = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    want = frozenset({"A", "!(B)", "!(C)", "!(some [p].B)"})
    assert want in heads_with_conjuncts(out, "s")


def test_chain_target_is_valid_over_the_completed_graph():
    out = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    completed = complete_abox(CHAIN_TBOX, CHAIN_DATA)
    assert completed == CHAIN_DATA  # nothing ground to add here
    res = validate(
        completed,
        ShapesGraph.of(out, targets=[("s", "a")]),
    )
    assert res.valid


def test_two_stratum_emission_threads_the_lower_shape():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    want = frozenset({"A", "!(B)", "!(C)", "some [p].$s_C", "!(some [p].B)"})
    assert want in heads_with_conjuncts(out, "s")


def test_two_stratum_target_is_valid_over_the_completed_graph():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    completed = complete_abox(TWO_STRATUM_TBOX, TWO_STRATUM_DATA)
    res = validate(
        completed,
        ShapesGraph.of(out, targets=[("s", "a")]),
    )
    assert res.valid


def test_rewrite_is_deterministic_and_reports_work():
    stats = {}
    once = emitted(CHAIN_TBOX, CHAIN_SHAPES, stats=stats)
    again = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    assert once == again
    assert stats["quadruples"] > 0


def test_rewrite_output_never_mentions_fresh_unknown_shapes():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    original = {c.head for c in TWO_STRATUM_SHAPES}
    sg = ShapesGraph.of(out)
    assert {h for h in sg.shape_names()} <= original


# =============================================================================
# INDEPENDENT SHAPES
# =============================================================================

# shares no shape name with CHAIN_SHAPES
OTHER_SHAPES = parse_constraints(
    """
    $t_C <- C
    $tp <- some [p].$t_C
    $tpp <- some [p].!$t_C
    $t <- $tp & $tpp
    """
)


def test_disjoint_shape_sets_rewrite_as_their_union():
    one, two, both = {}, {}, {}
    alone = set(emitted(CHAIN_TBOX, CHAIN_SHAPES, stats=one))
    alone |= set(emitted(CHAIN_TBOX, OTHER_SHAPES, stats=two))
    together = emitted(CHAIN_TBOX, CHAIN_SHAPES + OTHER_SHAPES, stats=both)
    assert set(together) == alone
    assert len(together) == len(alone)
    assert both["quadruples"] == one["quadruples"] + two["quadruples"]


def test_defect_4_shapes_are_saturated_apart():
    # a path shape and a guarded comparison under the benchmark's `paths`
    # ontology: saturated together they needed 4,020 quadruples
    tbox = parse_tbox("A <= some r.B\nB <= some r.C\nr <= s\n")
    abox = parse_abox("A(a)\nq(a,b)\nq(b,c)\nD(c)\nr(c,a)\n")
    shapes = parse_constraints("$s <- some <s/s*>.C\n$u <- (@a & eq(<q>,<q>))\n")
    targets = [("s", "a"), ("s", "b"), ("s", "c"), ("u", "a")]
    kb = prepare(tbox, abox, ShapesGraph.of(shapes, targets), depth=10)
    verdicts = ROUTES["rewrite"].run(kb).verdicts
    assert verdicts == {("s", "a"): True, ("s", "b"): False, ("s", "c"): True, ("u", "a"): True}
    assert kb.stats["quadruples"] < 2000


# =============================================================================
# PURE ROUTES
# =============================================================================


def test_pure_alchi_agrees_on_the_chain_fixture():
    c_t = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    plus = pure_rewrite_alchi(saturate(CHAIN_TBOX), c_t)
    raw = CHAIN_DATA
    res = validate(raw, ShapesGraph.of(plus, targets=[("s", "a")]))
    assert res.valid


def test_pure_alchi_refuses_counting_axioms():
    tb = TBox.of(
        [
            ExistsInclusion("A", Role("r"), "B"),
            AtMostOne("A", Role("r"), "top"),
        ]
    )
    with pytest.raises(UnsupportedPattern):
        pure_rewrite_alchi(saturate(tb), [])


def test_pure_binary_route_recovers_completion_merges():
    # the counted role forces the implied witness onto c, so B(c) holds
    # in the completed graph but not in the raw one
    tb = TBox.of(
        [
            ExistsInclusion("A", Role("r"), "B"),
            AtMostOne("A", Role("r"), "top"),
        ]
    )
    ab = ABox.of(concepts=[("A", "a")], roles=[(Role("r"), "a", "c")])
    shapes = parse_constraints("$s <- some [r].$sb\n$sb <- B\n")
    c_t = emitted(tb, shapes)

    completed = complete_abox(tb, ab)
    assert ("B", "c") in completed.concept_atoms
    over_completed = validate(
        completed,
        ShapesGraph.of(c_t, targets=[("s", "a")]),
    )

    items = pure_rewrite_shaclb(saturate(tb), c_t)
    asg = perfect_assignment_b(ab, items)
    raw_verdict = ("s", "a") in asg.unary
    assert over_completed.valid
    assert raw_verdict
