"""Constraint evaluation: body semantics, perfect assignments, validation.

The stratified fixpoint is compared against a naive oracle on positive
constraint sets, where both must compute the same least model. The
choice-of-stratification invariance is pinned with a three-layer case
evaluated under two different hand-built layerings. A body that several
constraints read, as one object or as equal copies, is evaluated where
each of them reads it, so a recursive group reads it afresh each round.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_assignment, parse_regex, thompson_nfa
from ontoshacl.core import GraphIndex, Interpretation, Role
from ontoshacl.evaluate import (
    BinConstraint,
    BinRef,
    PConcat,
    RoleStep,
    Test as ShapeTest,
    TruncationRefused,
    _Evaluator,
    _fixpoint,
    perfect_assignment_b,
    validate,
)
from ontoshacl.harness import gen_abox
from ontoshacl.shapes import (
    And,
    ConceptRef,
    Constraint,
    ExistsPath,
    ExistsRoles,
    GuardedDisj,
    GuardedEq,
    IndividualRef,
    NegShapeRef,
    Not,
    Or,
    ShapeRef,
    ShapesGraph,
    UnguardedComparison,
    compute_stratification,
)
from test_shapes import unshared

# =============================================================================
# A SMALL SHARED STRUCTURE
#
#   a --r--> b --r--> c     A(a), B(b), B(c)
#   a --q--> c
# =============================================================================

A, B, C = "a", "b", "c"

TRIANGLE = Interpretation.of(
    concepts=[("A", A), ("B", B), ("B", C)],
    roles=[(Role("r"), A, B), (Role("r"), B, C), (Role("q"), A, C)],
    nodes=[A, B, C],
)

seeds = st.integers(min_value=0, max_value=10**6)


def ev(body, unary=None, interp=TRIANGLE):
    return _Evaluator(interp, unary or {}, {}).body(body)


def path(p, unary=None, binary=None):
    return _Evaluator(TRIANGLE, unary or {}, binary or {}).path(p)


def atoms(unary):
    """A unary table as (shape, node) pairs."""
    return frozenset((s, n) for s, ns in unary.items() for n in ns)


def assignment(interp, cs):
    unary, _ = _fixpoint(interp, compute_stratification(cs).components)
    return atoms(unary)


def exists(role, body):
    return ExistsRoles(frozenset({Role(role)}), body)


# =============================================================================
# BODY SEMANTICS
# =============================================================================


def test_individual_ref_picks_one_node():
    assert ev(IndividualRef("b")) == {B}
    assert ev(IndividualRef("zz")) == frozenset()


def test_concept_and_boolean_semantics():
    assert ev(ConceptRef("B")) == {B, C}
    assert ev(ConceptRef("top")) == {A, B, C}
    assert ev(Not(ConceptRef("B"))) == {A}
    assert ev(Or(ConceptRef("A"), ConceptRef("B"))) == {A, B, C}
    assert ev(And(ConceptRef("B"), IndividualRef("c"))) == {C}


def test_shape_refs_read_the_assignment():
    unary = {"s": {B}}
    assert ev(ShapeRef("s"), unary) == {B}
    assert ev(NegShapeRef("s"), unary) == {A, C}


def test_exists_roles_requires_every_listed_role():
    both = ExistsRoles(frozenset({Role("r"), Role("q")}), ConceptRef("top"))
    assert ev(both) == frozenset()  # no pair is linked by r and q at once
    assert ev(exists("q", ConceptRef("B"))) == {A}
    assert ev(ExistsRoles(frozenset({Role("r", True)}), ConceptRef("A"))) == {B}


def test_exists_path_walks_the_regex():
    assert ev(ExistsPath(parse_regex("r/r"), ConceptRef("B"))) == {A}
    assert ev(ExistsPath(parse_regex("r*"), IndividualRef("c"))) == {A, B, C}
    assert ev(ExistsPath(parse_regex("^r"), ConceptRef("A"))) == {B}


def test_guarded_eq_compares_reachable_sets():
    # from a, the words over r/r and q land on the same set {c}
    eq = GuardedEq("a", parse_regex("r/r"), parse_regex("q"))
    assert ev(eq) == {A}
    ne = GuardedEq("a", parse_regex("r"), parse_regex("q"))
    assert ev(ne) == frozenset()
    # a guard naming an absent individual is simply empty
    assert ev(GuardedEq("zz", parse_regex("r"), parse_regex("r"))) == frozenset()


def test_guarded_disj_requires_disjoint_reach():
    assert ev(GuardedDisj("a", parse_regex("r"), parse_regex("q"))) == {A}
    assert ev(GuardedDisj("a", parse_regex("r/r"), parse_regex("q"))) == frozenset()


def test_unguarded_comparison_raises_at_eval_time():
    with pytest.raises(UnguardedComparison):
        ev(GuardedEq(None, parse_regex("r"), parse_regex("q")))


# =============================================================================
# PATH EXPRESSIONS OVER PAIRS
# =============================================================================


def test_role_step_and_concat():
    assert path(RoleStep(Role("r"))) == {(A, B), (B, C)}
    two = PConcat(RoleStep(Role("r")), RoleStep(Role("r")))
    assert path(two) == {(A, C)}


def test_test_steps_filter_on_the_unary_assignment():
    p = PConcat(RoleStep(Role("r")), ShapeTest("s"))
    assert path(p, unary={"s": {B}}) == {(A, B)}


def test_bin_refs_read_the_binary_assignment():
    assert path(BinRef("e"), binary={"e": {(A, C)}}) == {(A, C)}


# =============================================================================
# PERFECT ASSIGNMENTS
# =============================================================================


def test_reachability_via_positive_recursion():
    cs = [
        Constraint("reach", IndividualRef("a")),
        Constraint("reach", ExistsRoles(frozenset({Role("r", True)}), ShapeRef("reach"))),
    ]
    assert assignment(TRIANGLE, cs) == {("reach", A), ("reach", B), ("reach", C)}


def test_each_item_of_a_chain_is_evaluated_once(monkeypatch):
    # given last to first, so a loop over one stratum would need 30 rounds
    chain = [Constraint("s0", ConceptRef("B"))] + [
        Constraint(f"s{i}", exists("r", ShapeRef(f"s{i - 1}"))) for i in range(1, 30)
    ]
    cs = chain[::-1]
    calls: Counter = Counter()
    body = _Evaluator.body

    def counting(self, b):
        calls[b] += 1
        return body(self, b)

    monkeypatch.setattr(_Evaluator, "body", counting)
    got = assignment(TRIANGLE, cs)
    assert [calls[c.body] for c in cs] == [1] * len(cs)
    monkeypatch.undo()
    assert got == naive_assignment(TRIANGLE, cs)


# a --r--> b     c --r--> d     B(b), A(c)
TWO_EDGES = Interpretation.of(
    concepts=[("B", "b"), ("A", "c")],
    roles=[(Role("r"), "a", "b"), (Role("r"), "c", "d")],
)


def test_a_node_shared_with_a_recursive_group_is_read_at_its_final_value():
    step = exists("r", ShapeRef("reach"))  # one object, read by three groups
    cs = [
        Constraint("reach", Or(ConceptRef("B"), step)),
        Constraint("seen", step),
        Constraint("miss", Not(step)),
    ]
    components = compute_stratification(cs).components
    groups = [(tuple(it.head for it in g), rec) for g, rec in components]
    assert groups == [(("reach",), True), (("seen",), False), (("miss",), False)]
    targets = [(s, n) for s in ("reach", "seen", "miss") for n in "abcd"]
    got = {k for k, v in validate(TWO_EDGES, cs, targets).items() if v}
    # step is empty in the first round of reach; kept from there, it would
    # leave a out of reach and seen, and put it in miss
    assert got == {
        ("reach", "a"), ("reach", "b"),
        ("seen", "a"),
        ("miss", "b"), ("miss", "c"), ("miss", "d"),
    }


def test_a_shared_body_and_an_equal_copy_give_the_naive_assignment():
    free = exists("r", ConceptRef("B"))  # reads no shape name
    shared = And(ShapeRef("b"), Or(ConceptRef("A"), free))
    copy = unshared(shared)  # equal to shared, built apart node by node
    assert copy == shared and copy.right is not shared.right
    cs = [
        Constraint("b", ConceptRef("B")),
        Constraint("h1", shared),
        Constraint("h2", Or(shared, IndividualRef("d"))),
        Constraint("h3", exists("r", shared)),
        Constraint("h4", Or(IndividualRef("d"), copy)),
        # a recursive group: free is read in each of its rounds
        Constraint("reach", Or(free, exists("r", ShapeRef("reach")))),
    ]
    assert assignment(TWO_EDGES, cs) == naive_assignment(TWO_EDGES, cs)


def test_negation_reads_the_finished_lower_stratum():
    cs = [
        Constraint("b", ConceptRef("B")),
        Constraint("nb", NegShapeRef("b")),
    ]
    pa = assignment(TRIANGLE, cs)
    assert ("nb", A) in pa and ("nb", B) not in pa


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_positive_fixpoint_matches_naive_oracle(seed):
    rng = random.Random(seed)
    ab = gen_abox(rng)
    interp = ab
    names = ["s0", "s1", "s2"]
    cs = []
    for i, name in enumerate(names):
        for _ in range(rng.randint(1, 2)):
            choice = rng.random()
            if choice < 0.3:
                body = ConceptRef(rng.choice(["C0", "C1", "top"]))
            elif choice < 0.5 and ab.individuals():
                body = IndividualRef(rng.choice(ab.individuals()))
            elif choice < 0.75:
                body = exists(rng.choice(["p", "q", "r"]), ShapeRef(rng.choice(names)))
            else:
                body = And(
                    ShapeRef(rng.choice(names)), Or(ConceptRef("C0"), ShapeRef(name))
                )
            cs.append(Constraint(name, body))
    assert assignment(interp, cs) == naive_assignment(interp, cs)


def some_roles(rng):
    """One to three roles of either polarity, as in ``some [p,^q].X``."""
    return frozenset(
        Role(rng.choice(["p", "q", "r"]), rng.random() < 0.5)
        for _ in range(rng.randint(1, 3))
    )


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_role_conjunctions_match_naive_oracle(seed):
    # ExistsRoles over several roles and inverse roles: the evaluator walks
    # back from each target and intersects over the roles, the oracle tries
    # every node pair with has_edge
    rng = random.Random(seed)
    ab = gen_abox(rng)
    interp = ab
    names = ["s0", "s1", "s2"]
    cs = []
    for name in names:
        for _ in range(rng.randint(1, 3)):
            choice = rng.random()
            if choice < 0.25:
                body = ConceptRef(rng.choice(["C0", "C1", "C2", "top"]))
            elif choice < 0.35 and ab.individuals():
                body = IndividualRef(rng.choice(ab.individuals()))
            elif choice < 0.65:
                body = ExistsRoles(some_roles(rng), ShapeRef(rng.choice(names)))
            elif choice < 0.85:
                body = ExistsRoles(some_roles(rng), ConceptRef(rng.choice(["C0", "top"])))
            else:
                body = Or(ShapeRef(rng.choice(names)), ExistsRoles(some_roles(rng), ShapeRef(name)))
            cs.append(Constraint(name, body))
    assert assignment(interp, cs) == naive_assignment(interp, cs)


PATHS = ["p", "^q", "p/q", "p*", "(p|^r)/q*", "(q/^q)*/r", "^p/^p"]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_exists_path_backward_walk_matches_forward_reach(seed):
    rng = random.Random(seed)
    interp = gen_abox(rng)
    regex = parse_regex(rng.choice(PATHS))
    targets = ConceptRef(rng.choice(["C0", "C1", "top"]))
    nfa = thompson_nfa(regex)
    want = {
        e for e in interp.nodes
        if nfa.reach(interp, e) & ev(targets, interp=interp)
    }
    assert ev(ExistsPath(regex, targets), interp=interp) == want


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_guarded_comparisons_match_forward_reach(seed):
    rng = random.Random(seed)
    interp = gen_abox(rng)
    if not interp.individuals():
        return
    guard = rng.choice(interp.individuals())
    left, right = (parse_regex(rng.choice(PATHS)) for _ in range(2))
    got_l, got_r = (thompson_nfa(p).reach(interp, guard) for p in (left, right))
    want_eq = {guard} if got_l == got_r else set()
    want_disj = set() if got_l & got_r else {guard}
    assert ev(GuardedEq(guard, left, right), interp=interp) == want_eq
    assert ev(GuardedDisj(guard, left, right), interp=interp) == want_disj


def test_two_layerings_same_assignment():
    """Any valid layering of a three-level set gives the same fixpoint."""
    c_low = Constraint("base", ConceptRef("B"))
    c_mid = Constraint("mid", NegShapeRef("base"))
    c_top = Constraint("top_s", And(ShapeRef("mid"), ShapeRef("free")))
    c_free = Constraint("free", ConceptRef("top"))
    all_cs = [c_low, c_mid, c_top, c_free]

    fine = ((c_low, c_free), (c_mid,), (c_top,))
    coarse = ((c_low,), (c_mid, c_free), (c_top,))
    strat = compute_stratification(all_cs)
    # a plain layering is run as recursive groups, each to its own fixpoint
    layerings = [[(g, True) for g in lay] for lay in (fine, coarse, strat.strata)]
    layerings.append(strat.components)
    got = {atoms(_fixpoint(TRIANGLE, layering)[0]) for layering in layerings}
    assert len(got) == 1


# =============================================================================
# VALIDATION AND TRUNCATION
# =============================================================================


def test_validate_reports_per_target():
    verdicts = validate(TRIANGLE, [Constraint("s", ConceptRef("A"))], [("s", "a"), ("s", "b")])
    assert verdicts == {("s", "a"): True, ("s", "b"): False}


def test_validate_flags_undefined_target_shapes():
    sg = ShapesGraph.of([Constraint("s", ConceptRef("A"))], targets=[("ghost", "a")])
    assert sg.undefined_target_shapes() == ("ghost",)
    assert validate(TRIANGLE, sg.constraints, sg.targets) == {("ghost", "a"): False}


def test_truncated_models_refuse_negation():
    cut = GraphIndex(TRIANGLE.concept_atoms, TRIANGLE.role_atoms).seal(TRIANGLE.nodes, False)
    with pytest.raises(TruncationRefused):
        validate(cut, [Constraint("s", Not(ConceptRef("A")))], [("s", "a")])
    # positive constraints still give a sound lower bound: a target that
    # holds is valid, and one that fails is unknown
    pos = [Constraint("s", ConceptRef("A"))]
    assert validate(cut, pos, [("s", "a"), ("s", "b")]) == {("s", "a"): True, ("s", "b"): None}


# =============================================================================
# JOINT UNARY/BINARY FIXPOINTS
# =============================================================================


def test_binary_shapes_extend_the_edge_relation():
    items = [
        BinConstraint("link", RoleStep(Role("r"))),
        BinConstraint("link", RoleStep(Role("q"))),
        Constraint("hub", ExistsPath(parse_regex("r"), ConceptRef("top"))),
    ]
    unary, binary = perfect_assignment_b(TRIANGLE, items)
    assert (A, C) in binary["link"] and (A, B) in binary["link"]
    assert A in unary["hub"]


def test_binary_constraints_can_read_unary_shapes():
    items = [
        Constraint("good", ConceptRef("B")),
        BinConstraint("e", PConcat(RoleStep(Role("r")), ShapeTest("good"))),
    ]
    _, binary = perfect_assignment_b(TRIANGLE, items)
    assert binary == {"e": {(A, B), (B, C)}}


def test_unstratified_binary_sets_are_rejected():
    items = [Constraint("s", Not(ExistsPath(parse_regex("r"), ShapeRef("s"))))]
    with pytest.raises(ValueError, match="not stratified"):
        perfect_assignment_b(TRIANGLE, items)
