"""Vocabulary layer: roles, axiom normalization, ABoxes, interpretations.

The rest of the package leans on three facts checked here: role
inversion is an involution and role atoms are stored under the plain
name only, TBox.of drops vacuous axioms and deduplicates into a sorted
normal form, and Interpretation lookups resolve inversion on the fly.
Every interpretation the package builds reads tables equal to those of
a fresh index over its atoms.
"""
from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontoshacl.chase import NotTerminated, SizeGuardExceeded, fire_axioms, run_core_chase
from ontoshacl.cli import prepare
from ontoshacl.core import (
    BOT,
    TOP,
    ABox,
    Anon,
    AtMostOne,
    ConjInclusion,
    ExistsInclusion,
    GraphIndex,
    Interpretation,
    Null,
    OneHalfType,
    Role,
    RoleInclusion,
    TBox,
    TwoType,
    ValueRestriction,
    node_key,
    type_key,
)
from ontoshacl.formats import parse_abox, parse_tbox, serialize_interpretation
from ontoshacl.harness import CHASE_ROUNDS, SAFE_DEPTH, gen_case
from ontoshacl.model import InconsistentKB, build_can, complete_abox
from ontoshacl.tbox import SaturatedTBox

# =============================================================================
# STRATEGIES
# =============================================================================

role_names = st.sampled_from(["p", "q", "r", "hasPet"])
roles = st.builds(Role, role_names, st.booleans())
concept_names = st.sampled_from(["A", "B", "C", TOP])


# =============================================================================
# ROLES
# =============================================================================


@given(roles)
def test_role_invert_involution(r):
    assert r.invert().invert() == r
    assert r.invert() != r


def test_role_str_marks_inversion():
    assert str(Role("p")) == "p"
    assert str(Role("p", True)) == "^p"


# =============================================================================
# TBOX NORMAL FORM
# =============================================================================


def test_tbox_of_drops_vacuous_axioms():
    tb = TBox.of(
        [
            ConjInclusion(frozenset({"A"}), TOP),
            ValueRestriction("A", Role("r"), TOP),
            RoleInclusion(Role("p"), Role("p")),
            RoleInclusion(Role("p", True), Role("p", True)),
        ]
    )
    assert tb == TBox()


def test_tbox_of_strips_top_from_premises():
    tb = TBox.of([ConjInclusion(frozenset({"A", TOP}), "B")])
    assert tb.conj == (ConjInclusion(frozenset({"A"}), "B"),)


def test_tbox_of_deduplicates_and_sorts():
    a1 = ExistsInclusion("A", Role("r"), "B")
    a2 = ExistsInclusion("A", Role("q"), "B")
    tb = TBox.of([a1, a2, a1])
    assert tb.exists == (a2, a1)


def test_tbox_of_keeps_bottom_and_counting():
    clash = ConjInclusion(frozenset({"A", "B"}), BOT)
    counted = AtMostOne("A", Role("r"), "B")
    tb = TBox.of([clash, counted])
    assert tb.conj == (clash,)
    assert tb.atmost == (counted,)


def test_concept_and_role_name_queries():
    tb = TBox.of(
        [
            ConjInclusion(frozenset({"A"}), "B"),
            ExistsInclusion("B", Role("r"), TOP),
            RoleInclusion(Role("p"), Role("q", True)),
        ]
    )
    assert tb.concept_names() == frozenset({"A", "B"})
    assert tb.role_names() == frozenset({"r", "p", "q"})
    # both polarities, name-major order
    assert tb.all_roles() == (
        Role("p"),
        Role("p", True),
        Role("q"),
        Role("q", True),
        Role("r"),
        Role("r", True),
    )


# =============================================================================
# ABOXES
# =============================================================================


def test_abox_of_normalizes_inverted_atoms():
    left = ABox.of(roles=[(Role("r", True), "b", "a")])
    right = ABox.of(roles=[(Role("r"), "a", "b")])
    assert left == right
    assert left.role_atoms == frozenset({("r", "a", "b")})


def test_abox_of_drops_top_assertions():
    ab = ABox.of(concepts=[(TOP, "a"), ("A", "a")])
    assert ab.concept_atoms == frozenset({("A", "a")})


def test_abox_role_queries_resolve_polarity():
    ab = ABox.of(roles=[(Role("r"), "a", "b")])
    assert ab.has_edge(Role("r"), "a", "b")
    assert ab.has_edge(Role("r", True), "b", "a")
    assert not ab.has_edge(Role("r"), "b", "a")
    assert ab.links() == {
        "a": {"b": frozenset({Role("r")})},
        "b": {"a": frozenset({Role("r", True)})},
    }


def test_abox_individuals_cover_role_endpoints():
    ab = ABox.of(concepts=[("A", "c")], roles=[(Role("r"), "a", "b")])
    assert ab.individuals() == ("a", "b", "c")


# =============================================================================
# 2-TYPES
# =============================================================================


def test_half_type_subsumption_is_componentwise():
    small = OneHalfType(frozenset({Role("r")}), frozenset({"A"}))
    big = OneHalfType(frozenset({Role("r"), Role("s")}), frozenset({"A", "B"}))
    assert small.subsumed_by(big)
    assert not big.subsumed_by(small)
    assert small.subsumed_by(small)


# =============================================================================
# NODES AND INTERPRETATIONS
# =============================================================================


def test_node_key_orders_named_before_anonymous():
    a = "a"
    w = Anon("a.1")
    n = Null("k")
    assert sorted([n, w, a], key=node_key) == [a, w, n]


def test_interpretation_of_normalizes_inverted_edges():
    a, b = "a", "b"
    i = Interpretation.of(roles=[(Role("r", True), b, a)], nodes=[a, b])
    assert i.role_atoms == frozenset({("r", a, b)})
    assert i.has_edge(Role("r", True), b, a)
    assert i.successors(b, Role("r", True)) == [a]


def test_interpretation_from_abox_round_trips_atoms():
    ab = ABox.of(concepts=[("A", "a")], roles=[(Role("r"), "a", "b")])
    i = ab
    assert i.complete
    assert i.nodes == frozenset({"a", "b"})
    assert i.has_concept("A", "a")
    assert i.has_concept(TOP, "b")  # top is membership in the domain
    assert not i.has_concept(TOP, "zz")


def test_restrict_keeps_only_induced_atoms():
    a, b = "a", "b"
    i = Interpretation.of(
        concepts=[("A", a), ("B", b)], roles=[(Role("r"), a, b)], nodes=[a, b]
    )
    sub = i.restrict([a])
    assert sub.nodes == frozenset({a})
    assert sub.concept_atoms == frozenset({("A", a)})
    assert sub.role_atoms == frozenset()


@given(st.sets(concept_names, max_size=3))
def test_type_key_is_injective_on_bare_types(cs):
    t = TwoType(frozenset(cs), frozenset(), frozenset())
    s = TwoType(frozenset(cs | {"Z"}), frozenset(), frozenset())
    assert type_key(t) != type_key(s)


# =============================================================================
# THE LOOKUP INDEX AGAINST SCANS OF THE ATOMS
# =============================================================================

small_names = st.sampled_from(["a", "b", "c", "d"])
abox_strategy = st.builds(
    ABox.of,
    st.frozensets(st.tuples(st.sampled_from(["A", "B", "C"]), small_names), max_size=6),
    st.frozensets(st.tuples(role_names.map(Role), small_names, small_names), max_size=8),
)


@given(abox_strategy)
def test_abox_lookups_equal_scans_of_the_atoms(ab):
    inds = {a for _, a in ab.concept_atoms} | {x for _, a, b in ab.role_atoms for x in (a, b)}
    assert ab.individuals() == tuple(sorted(inds))
    links = ab.links()
    assert set(links) <= inds
    for a in ["a", "b", "c", "d", "zz"]:
        assert ab.concepts_of(a) == {c for c, x in ab.concept_atoms if x == a}
        for b in ["a", "b", "c", "d"]:
            scan = {Role(r) for r, x, y in ab.role_atoms if (x, y) == (a, b)}
            scan |= {Role(r, True) for r, x, y in ab.role_atoms if (x, y) == (b, a)}
            assert links.get(a, {}).get(b, frozenset()) == scan
        assert set(links.get(a, {})) <= inds


@given(abox_strategy)
def test_interpretation_lookups_equal_scans_of_the_atoms(ab):
    i = ab

    def has_edge(role, x, y):
        return (role.name, *((y, x) if role.inverted else (x, y))) in i.role_atoms

    every = sorted(i.nodes, key=node_key) + ["zz"]
    links = i.links()
    for c in ["A", "B", "C", "Z"]:
        assert i.extension(c) == {n for d, n in i.concept_atoms if d == c}
    assert i.extension(TOP) == i.nodes
    for x in every:
        assert i.concepts_of(x) == {c for c, n in i.concept_atoms if n == x}
        for name in ["p", "q", "r", "hasPet"]:
            for role in (Role(name), Role(name, True)):
                scan = [y for y in i.domain() if has_edge(role, x, y)]
                assert [y for y in i.domain() if i.has_edge(role, x, y)] == scan
                assert i.successors(x, role) == scan
                assert i.adjacency(role).get(x, frozenset()) == set(scan)
        for y in every:
            scan = {
                Role(name, inv)
                for name in ["p", "q", "r", "hasPet"]
                for inv in (False, True)
                if has_edge(Role(name, inv), x, y)
            }
            assert links.get(x, {}).get(y, frozenset()) == scan


def test_the_index_is_not_part_of_equality():
    ab = ABox.of(concepts=[("A", "a")], roles=[(Role("r"), "a", "b")])
    fresh = ABox.of(concepts=[("A", "a")], roles=[(Role("r"), "a", "b")])
    assert ab._index is not fresh._index  # equality reads the tables, not the object
    assert ab == fresh and hash(ab) == hash(fresh)
    assert ab != ABox.of(concepts=[("A", "a")], roles=[(Role("r"), "b", "a")])


# =============================================================================
# THE ONE BUILDER
# =============================================================================


def _tables(index):
    return (index.extension, index.ctype, index.adjacency)


def assert_indexed(interp):
    """The interpretation reads frozen tables equal to a fresh index's."""
    index = interp._index
    assert _tables(index) == _tables(GraphIndex(interp.concept_atoms, interp.role_atoms))
    for table in (index.extension, index.ctype, *index.adjacency.values()):
        assert all(type(v) is frozenset for v in table.values())


def test_every_built_interpretation_reads_the_index_of_its_atoms():
    checked = 0
    for k in range(800):
        tbox, abox, _ = gen_case(random.Random(k))
        sat = SaturatedTBox(tbox)
        assert_indexed(abox)
        try:
            completed = complete_abox(sat, abox)
        except InconsistentKB:
            continue
        built = [completed, build_can(sat, completed, 0), build_can(sat, completed, SAFE_DEPTH)]
        built.append(fire_axioms(sat, abox))
        if len(abox.individuals()) <= 3:
            trace = []
            try:
                built.append(run_core_chase(sat, abox, CHASE_ROUNDS, trace))
            except (NotTerminated, SizeGuardExceeded):
                pass
            built += [i for pair in trace for i in pair]
        for interp in built:
            assert_indexed(interp)
            checked += 1
    assert checked > 5000


def _table_ids(interp):
    """The ids of the interpretation's table dicts."""
    index = interp._index
    tables = (index.extension, index.ctype, index.adjacency, *index.adjacency.values())
    return {id(t) for t in tables}


def _entries(interp):
    """Each (table, key) of the interpretation's sets, mapped to its set."""
    index = interp._index
    out = {("extension", c): ns for c, ns in index.extension.items()}
    out.update((("ctype", n), cs) for n, cs in index.ctype.items())
    for r, t in index.adjacency.items():
        out.update(((r, x), ys) for x, ys in t.items())
    return out


def test_completion_leaves_the_raw_data_as_parsed():
    grew = 0
    for k in range(40):
        tbox, abox, sg = gen_case(random.Random(k))
        text = serialize_interpretation(abox)
        kb = prepare(tbox, abox, sg, 0)
        try:
            grew += kb.completed != kb.abox
        except InconsistentKB:
            continue
        assert kb.abox is abox
        assert _tables(kb.abox._index) == _tables(parse_abox(text)._index)
        # the two share sets, never a table, and only frozen sets
        assert not _table_ids(kb.completed) & _table_ids(kb.abox)
        raw = {id(v): v for v in _entries(kb.abox).values()}
        shared = raw.keys() & {id(v) for v in _entries(kb.completed).values()}
        assert all(type(raw[i]) is frozenset for i in shared)
    assert grew > 10


# a merge that grows b and adds s(a, b), a role inclusion, and c and d,
# which nothing touches
MERGE_TBOX = "A <= some r.B\nA <= max1 r.B\nB <= C\nr <= s\n"
MERGE_ABOX = "A(a)\nr(a,b)\nB(b)\nD(c)\nt(c,d)\n"


def _kept_and_grown(before, after):
    """How many of ``before``'s entries ``after`` holds as the very same
    object and how many it holds as a new, larger one, checking that an
    entry is the same object exactly when it has the same nodes."""
    later = _entries(after)
    kept = extended = 0
    for key, was in _entries(before).items():
        now = later[key]
        assert was <= now
        if now == was:
            assert now is was, key
            kept += 1
        else:
            assert now is not was, key
            extended += 1
    return kept, extended


def test_model_building_shares_each_set_it_leaves_and_copies_each_it_grows():
    cases = [gen_case(random.Random(k))[:2] for k in range(40)]
    cases.append((parse_tbox(MERGE_TBOX), parse_abox(MERGE_ABOX)))
    kept = extended = 0
    for tbox, abox in cases:
        sat = SaturatedTBox(tbox)
        raw = copy.deepcopy(_tables(abox._index))
        built = [fire_axioms(sat, abox)]
        try:
            built.append(complete_abox(sat, abox))
        except InconsistentKB:
            pass
        assert _tables(abox._index) == raw
        if len(built) == 2:
            completed = built[1]
            k, e = _kept_and_grown(abox, completed)
            kept, extended = kept + k, extended + e
            done = copy.deepcopy(_tables(completed._index))
            built += [build_can(sat, completed, 2), fire_axioms(sat, completed)]
            assert _tables(completed._index) == done
            _kept_and_grown(completed, built[2])
        for interp in built:
            assert_indexed(interp)
    assert kept > 100 and extended > 10
    # the merge case: b grows, a gains an s edge, and c and d keep theirs
    completed = built[1]
    assert completed.concepts_of("b") == {"B", "C"}
    assert completed.has_edge(Role("s"), "a", "b")
    assert completed._index.ctype["c"] is abox._index.ctype["c"]
    for r, n in ((Role("t"), "c"), (Role("t", True), "d")):
        assert completed._index.adjacency[r][n] is abox._index.adjacency[r][n]
    assert abox.concepts_of("b") == {"B"} and not abox.has_edge(Role("s"), "a", "b")


@given(
    st.frozensets(st.tuples(st.sampled_from(["A", "B", "C"]), small_names), max_size=6),
    st.frozensets(st.tuples(roles, small_names, small_names), max_size=8),
    st.frozensets(small_names, max_size=2),
)
def test_every_construction_holds_its_atoms_only_in_the_index(concepts, links, extra):
    stored = frozenset((r.name, *((y, x) if r.inverted else (x, y))) for r, x, y in links)
    mentioned = {n for _, n in concepts} | {n for _, x, y in stored for n in (x, y)}
    nodes = extra | mentioned
    first = Interpretation.of(concepts, links, extra)
    wider = Interpretation.of(concepts | {("C", "e")}, [*links, *((Role("p"), "e", n) for n in nodes)])
    built = [first, GraphIndex(concepts, stored).seal(nodes), wider.restrict(nodes)]
    if nodes == mentioned:  # .abox text cannot assert a node with no atom
        built.append(parse_abox(serialize_interpretation(first)))
    for interp in built:
        assert interp == first and hash(interp) == hash(first)
        assert interp.nodes == nodes and interp.complete
        assert interp.concept_atoms == concepts
        assert interp.role_atoms == stored
        assert set(vars(interp)) <= {"_index", "nodes", "complete", "_individuals"}


def test_a_sealed_index_takes_no_atoms():
    index = GraphIndex([("A", "a")], [])
    index.add_role(Role("r", True), "b", "a")
    interp = index.seal(["a", "b"])
    assert interp.concept_atoms == frozenset({("A", "a")})
    assert interp.role_atoms == frozenset({("r", "a", "b")})
    assert interp.successors("b", Role("r", True)) == ["a"]
    with pytest.raises(TypeError):
        index.add_concept("B", "b")
    with pytest.raises(TypeError):
        index.add_role(Role("r"), "a", "b")
