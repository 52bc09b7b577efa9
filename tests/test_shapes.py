"""Shape constraints: normal form compilation and stratification."""
from __future__ import annotations

import random
import re
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dependency_edges, naive_levels, parse_regex
from ontoshacl import shapes
from ontoshacl.core import Role
from ontoshacl.shapes import (
    And,
    BinConstraint,
    BinRef,
    ConceptRef,
    Constraint,
    ExistsPath,
    ExistsRoles,
    ExistsVia,
    GuardedEq,
    IndividualRef,
    NegShapeRef,
    Not,
    NotStratified,
    Or,
    PConcat,
    PInter,
    PInverse,
    RoleStep,
    ShapeRef,
    ShapesGraph,
    Test as ShapeTest,
    UnguardedComparison,
    compute_stratification,
    concept_names,
    has_negation,
    is_normal,
    normalize,
    shape_names,
    shape_occurrences,
)


def exists(role, body):
    return ExistsRoles(frozenset({Role(role)}), body)


# =============================================================================
# OCCURRENCES AND POLARITY
# =============================================================================


def test_shape_occurrences_track_negation_depth():
    body = And(ShapeRef("a"), Not(Or(ShapeRef("b"), NegShapeRef("c"))))
    got = sorted(shape_occurrences(body))
    assert got == [("a", False), ("b", True), ("c", True)]  # c: odd total depth
    # one node read in both polarities gives its names in both
    shared = Or(ShapeRef("a"), ShapeRef("b"))
    got = sorted(shape_occurrences(And(shared, Not(shared))))
    assert got == [("a", False), ("a", True), ("b", False), ("b", True)]


def test_marking_is_sticky_under_double_negation():
    # conservative discipline: scope of any negation marks the occurrence,
    # regardless of parity
    body = Not(Not(ShapeRef("a")))
    assert sorted(shape_occurrences(body)) == [("a", True)]
    assert has_negation(body)
    assert not has_negation(exists("r", ShapeRef("a")))


# =============================================================================
# NORMAL FORM
# =============================================================================


def test_is_normal_on_the_allowed_shapes():
    assert is_normal(Constraint("s", ShapeRef("t")))
    assert is_normal(Constraint("s", NegShapeRef("t")))
    assert is_normal(Constraint("s", ConceptRef("A")))
    assert is_normal(Constraint("s", IndividualRef("a")))
    assert is_normal(Constraint("s", And(ShapeRef("t"), ShapeRef("u"))))
    assert is_normal(Constraint("s", exists("r", NegShapeRef("t"))))
    assert not is_normal(Constraint("s", Or(ShapeRef("t"), ShapeRef("u"))))
    assert not is_normal(Constraint("s", Not(ShapeRef("t"))))
    assert not is_normal(Constraint("s", And(ConceptRef("A"), ShapeRef("t"))))
    assert not is_normal(Constraint("s", exists("r", ConceptRef("A"))))
    assert not is_normal(Constraint("s", ExistsRoles(frozenset(), ShapeRef("t"))))


def test_normalize_emits_only_normal_constraints():
    sg = ShapesGraph.of(
        [
            Constraint(
                "s",
                Or(
                    And(ConceptRef("A"), Not(exists("r", ConceptRef("B")))),
                    ExistsPath(parse_regex("(p/q)*"), ShapeRef("s")),
                ),
            )
        ],
        targets=[("s", "a")],
    )
    out, origin = normalize(sg)
    assert all(is_normal(c) for c in out.constraints)
    assert out.targets == sg.targets
    # every auxiliary name is reserved and traced back to its owner
    fresh = {c.head for c in out.constraints} - {"s"}
    assert fresh and all(n.startswith("_") for n in fresh)
    assert set(origin) == fresh
    assert set(origin.values()) == {"s"}


def test_normalize_gives_one_shape_per_automaton_state():
    # s/s* needs two states, and the automaton has no ε-moves to copy
    # one state's nodes into another's
    sg = ShapesGraph.of([Constraint("s", ExistsPath(parse_regex("s/s*"), ConceptRef("C")))])
    out, _ = normalize(sg)
    names = {c.head for c in out.constraints}
    names |= {n for c in out.constraints for n, _ in shape_occurrences(c.body)}
    states = {n for n in names if re.fullmatch(r"_q\d+", n)}
    assert len(states) == 2
    assert not [
        c for c in out.constraints
        if c.head in states and isinstance(c.body, ShapeRef) and c.body.name in states
    ]


def test_normalize_keeps_already_normal_graphs_small():
    sg = ShapesGraph.of([Constraint("s", ConceptRef("A"))], targets=[("s", "a")])
    out, origin = normalize(sg)
    assert out.constraints == sg.constraints
    assert origin == {}


def test_normalize_rejects_unguarded_comparisons():
    sg = ShapesGraph.of(
        [Constraint("s", GuardedEq(None, parse_regex("p"), parse_regex("q")))]
    )
    with pytest.raises(UnguardedComparison) as exc:
        normalize(sg)
    assert "guard" in str(exc.value)


def test_normalize_accepts_guarded_comparisons():
    sg = ShapesGraph.of(
        [Constraint("s", GuardedEq("a", parse_regex("p"), parse_regex("q")))]
    )
    out, _ = normalize(sg)
    assert all(is_normal(c) for c in out.constraints)


# =============================================================================
# STRATIFICATION
# =============================================================================


def stratum_index(strat, head):
    """The index of the one stratum that holds the constraints with this head."""
    (i,) = {i for i, group in enumerate(strat.strata) for it in group if it.head == head}
    return i


def test_positive_recursion_sits_in_one_stratum():
    cs = [
        Constraint("s", exists("r", ShapeRef("s"))),
        Constraint("s", ConceptRef("A")),
    ]
    assert compute_stratification(cs).strata == (tuple(cs),)


def test_negation_pushes_the_reader_up():
    cs = [
        Constraint("t", ConceptRef("A")),
        Constraint("s", NegShapeRef("t")),
    ]
    st = compute_stratification(cs)
    assert stratum_index(st, "t") < stratum_index(st, "s")


def test_self_negation_is_rejected():
    with pytest.raises(NotStratified) as exc:
        compute_stratification([Constraint("s", NegShapeRef("s"))])
    assert "s" in exc.value.cycle


def test_negation_inside_a_cycle_is_rejected():
    cs = [
        Constraint("s", NegShapeRef("t")),
        Constraint("t", exists("r", ShapeRef("s"))),
    ]
    with pytest.raises(NotStratified):
        compute_stratification(cs)


def test_negative_edge_between_mutually_recursive_names_is_rejected():
    # the positive cycle s <-> t may not contain a marked edge anywhere
    cs = [
        Constraint("s", ShapeRef("t")),
        Constraint("t", ShapeRef("s")),
        Constraint("t", exists("r", NegShapeRef("s"))),
    ]
    with pytest.raises(NotStratified):
        compute_stratification(cs)


def test_two_stratum_negation_example_layers_as_expected():
    # chain ontology shapes: the comparison-free two-layer fixture used
    # by the rewriting goldens
    c0 = [
        Constraint("s_C", ConceptRef("C")),
        Constraint("sp", exists("p", ShapeRef("s_C"))),
    ]
    c1 = [
        Constraint("spp", exists("p", NegShapeRef("s_C"))),
        Constraint("s", And(ShapeRef("sp"), ShapeRef("spp"))),
    ]
    st = compute_stratification(c0 + c1)
    assert stratum_index(st, "s_C") < stratum_index(st, "spp")
    assert stratum_index(st, "s_C") < stratum_index(st, "s")
    assert stratum_index(st, "sp") < stratum_index(st, "spp")
    assert stratum_index(st, "sp") < stratum_index(st, "s")
    # the strata partition the constraints, each in the order given
    assert st.strata == (tuple(c0), tuple(c1))


def test_empty_constraint_set_stratifies_trivially():
    assert compute_stratification([]).strata == ()


def test_negating_an_undefined_name_keeps_stratum_0():
    # packing drops the empty bottom layer of the undefined name
    cs = [Constraint("s", NegShapeRef("ghost"))]
    assert compute_stratification(cs).strata == (tuple(cs),)


# random unary and binary constraint sets over a few shared names

NAMES = ("a", "b", "c", "d", "e")


def random_body(rng: random.Random, depth: int):
    pick = rng.randint(0, 7 if depth else 2)
    name = rng.choice(NAMES)
    if pick == 0:
        return ShapeRef(name)
    if pick == 1:
        return NegShapeRef(name)
    if pick == 2:
        return ConceptRef("A")
    if pick == 3:
        return Not(random_body(rng, depth - 1))
    if pick == 4:
        return And(random_body(rng, depth - 1), random_body(rng, depth - 1))
    if pick == 5:
        return Or(random_body(rng, depth - 1), random_body(rng, depth - 1))
    if pick == 6:
        return exists("r", random_body(rng, depth - 1))
    return ExistsVia(random_path(rng, depth - 1), random_body(rng, depth - 1))


def random_path(rng: random.Random, depth: int):
    pick = rng.randint(0, 5 if depth else 2)
    if pick == 0:
        return RoleStep(Role("r", rng.random() < 0.5))
    if pick == 1:
        return BinRef(rng.choice(NAMES))
    if pick == 2:
        return ShapeTest(rng.choice(NAMES))
    if pick == 3:
        return PInverse(random_path(rng, depth - 1))
    ctor = {4: PInter, 5: PConcat}[pick]
    return ctor(random_path(rng, depth - 1), random_path(rng, depth - 1))


def random_items(rng: random.Random):
    items = []
    for _ in range(rng.randint(1, 7)):
        head = rng.choice(NAMES)
        if rng.random() < 0.3:
            items.append(BinConstraint(head, random_path(rng, 2)))
        else:
            items.append(Constraint(head, random_body(rng, 2)))
    return items


def packed(items, level):
    """The strata the levels describe: the items grouped by the level of
    their head over the non-empty levels, each group in input order."""
    used = sorted({level[it.head] for it in items})
    return tuple(tuple(it for it in items if level[it.head] == lv) for lv in used)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_stratification_matches_the_relaxation_oracle(seed):
    items = random_items(random.Random(seed))
    level = naive_levels(items)
    if level is not None:
        assert compute_stratification(items).strata == packed(items, level)
        return
    with pytest.raises(NotStratified, match="not stratified") as exc:
        compute_stratification(items)
    # the reported cycle follows dependency edges and crosses a negative one
    edges = dependency_edges(items)
    steps = list(zip(exc.value.cycle, exc.value.cycle[1:] + exc.value.cycle[:1]))
    assert all(any((s, t) == e[:2] for e in edges) for s, t in steps)
    assert any((s, t, True) in edges for s, t in steps)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_components_order_the_items_for_evaluation(seed):
    items = random_items(random.Random(seed))
    if naive_levels(items) is None:
        return
    components = compute_stratification(items).components
    position = {id(it): i for i, it in enumerate(items)}
    # every item exactly once, in input order inside its component
    assert sorted(id(it) for group, _ in components for it in group) == sorted(position)
    for group, _ in components:
        assert [position[id(it)] for it in group] == sorted(position[id(it)] for it in group)
    # a reader comes no earlier than what it reads; names nothing defines
    # have no component
    comp_of = {it.head: k for k, (group, _) in enumerate(components) for it in group}
    edges = dependency_edges(items)
    assert all(comp_of[s] <= comp_of[t] for s, t, _ in edges if s in comp_of)
    # recursive exactly when the component has an edge inside it
    for k, (_, recursive) in enumerate(components):
        inner = any(comp_of.get(s) == k and comp_of[t] == k for s, t, _ in edges)
        assert recursive == inner


# the stratifier reads each shared node once per polarity


def unshared(body):
    """An equal body in which no node is shared: every node a fresh copy."""
    fields = getattr(body, "__value_fields__", None)
    if fields is None or isinstance(body, (str, frozenset)):
        return body
    return type(body)(*(unshared(getattr(body, f)) for f in fields))


def assert_stratified_as_copies(items):
    """Shared and unshared items stratify alike, and as the oracle says."""
    copies = [type(it)(it.head, unshared(it.body)) for it in items]
    level = naive_levels(items)
    if level is not None:
        assert compute_stratification(items).strata == packed(items, level)
        assert compute_stratification(copies).strata == packed(items, level)
        return
    cycles = []
    for version in (items, copies):
        with pytest.raises(NotStratified) as exc:
            compute_stratification(version)
        cycles.append(exc.value.cycle)
    assert cycles[0] == cycles[1]


@pytest.mark.parametrize("negative_first", [False, True])
def test_a_shared_node_is_read_in_each_polarity(negative_first):
    shared = Or(ShapeRef("a"), exists("r", ShapeRef("b")))
    readers = [Constraint("p", shared), Constraint("n", Not(shared))]
    if negative_first:
        readers.reverse()
    items = [Constraint("a", ConceptRef("A")), Constraint("b", ConceptRef("B")), *readers]
    items.append(Constraint("m", And(shared, NegShapeRef("n"))))
    strat = compute_stratification(items)
    assert naive_levels(items) == {"a": 0, "b": 0, "p": 0, "n": 1, "m": 2}
    assert stratum_index(strat, "p") == 0 and stratum_index(strat, "n") == 1
    assert_stratified_as_copies(items)


def test_a_negative_cycle_through_a_shared_node_is_reported_as_for_copies():
    # t reads itself through u, and s reads u under a complement
    u = exists("r", ShapeRef("t"))
    items = [Constraint("t", And(u, ShapeRef("s"))), Constraint("s", Not(u))]
    with pytest.raises(NotStratified) as exc:
        compute_stratification(items)
    assert exc.value.cycle == ("s", "t")
    assert_stratified_as_copies(items)


def shared_items(rng: random.Random):
    """Random items whose bodies reuse a few node objects, read in both
    polarities."""
    pool = [random_body(rng, 1) for _ in range(3)]
    items = []
    for _ in range(rng.randint(2, 7)):
        node = rng.choice(pool)
        body = rng.choice(
            [node, Not(node), And(node, random_body(rng, 1)), exists("r", Not(node))]
        )
        items.append(Constraint(rng.choice(NAMES), body))
    return items


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shared_nodes_stratify_as_unshared_copies(seed):
    assert_stratified_as_copies(shared_items(random.Random(seed)))


def test_binary_reads_count_as_occurrences():
    path = PInter(PConcat(BinRef("f"), ShapeTest("s")), PInverse(BinRef("g")))
    item = BinConstraint("e", path)
    assert sorted(shape_occurrences(item.body)) == [("f", False), ("g", False), ("s", False)]
    via = ExistsVia(PInverse(BinRef("f")), NegShapeRef("t"))
    assert sorted(shape_occurrences(via)) == [("f", False), ("t", True)]
    assert sorted(shape_occurrences(Not(via))) == [("f", True), ("t", True)]


def test_every_field_holding_a_body_or_a_path_is_a_child():
    # the stratifier, has_negation and concept_names descend through
    # _children only, so a field it skipped would hide what it reads
    kinds = [*get_args(shapes.ShapeBody), *get_args(shapes.PathExpr)]
    assert len(kinds) == 18
    for kind in kinds:
        args = [
            object() if hint.strip("'") in ("ShapeBody", "PathExpr") else None
            for hint in kind.__annotations__.values()
        ]
        got = [child for child, _ in shapes._children(kind(*args), False)]
        held = [arg for arg in args if arg is not None]
        assert sorted(map(id, got)) == sorted(map(id, held)), kind.__name__


def test_shapes_graph_of_sorts_and_deduplicates():
    c1 = Constraint("s", ConceptRef("A"))
    c2 = Constraint("r", ConceptRef("B"))
    sg = ShapesGraph.of([c1, c2, c1], targets=[("s", "b"), ("s", "a")])
    assert sg.constraints == (c2, c1)
    assert sg.targets == (("s", "a"), ("s", "b"))
    assert sg.shape_names() == shape_names(sg.constraints) == frozenset({"s", "r"})
    assert concept_names(sg.constraints) == frozenset({"A", "B"})
