"""Successor configurations, ABox completion, and the direct model builder.

Two golden fixtures carry most of the weight: the mixed-family
seven-axiom TBox (merged successor requirements, completion) and the
two-individual pet KB (a model that needs no anonymous nodes at all).
Randomized completion is cross-checked against the ground chase oracle.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_model, check_ground_model, find_ground_model, oracle_complete
from ontoshacl import cli, model
from ontoshacl.core import (
    TOP,
    ABox,
    Anon,
    AtMostOne,
    ConjInclusion,
    ExistsInclusion,
    GraphIndex,
    OneHalfType,
    Role,
    RoleInclusion,
    TBox,
    TwoType,
    ValueRestriction,
    type_key,
)
from ontoshacl.harness import gen_abox, gen_tbox
from ontoshacl.model import (
    InconsistentKB,
    complete_abox,
    is_model,
    key_after,
    letters,
    succ_config,
)
from ontoshacl.tbox import SaturatedTBox

# =============================================================================
# FIXTURES
# =============================================================================

GOLDEN_SEVEN = TBox.of(
    [
        ExistsInclusion("B0", Role("r0"), "A0"),
        ExistsInclusion("B0", Role("r1"), "A1"),
        AtMostOne("B1", Role("r1"), "A1"),
        ConjInclusion(frozenset({"A0"}), "A1"),
        RoleInclusion(Role("r0"), Role("r1")),
        ExistsInclusion("B1", Role("r2"), TOP),
        ValueRestriction("B0", Role("r2"), "A2"),
    ]
)

PET_TBOX = TBox.of(
    [
        ExistsInclusion("PetOwner", Role("hasPet"), TOP),
        RoleInclusion(Role("hasWingedPet"), Role("hasPet")),
        ExistsInclusion("PetOwner", Role("hasWingedPet"), TOP),
    ]
)

PET_ABOX = ABox.of(
    concepts=[("PetOwner", "linda"), ("Bird", "blu")],
    roles=[(Role("hasWingedPet"), "linda", "blu")],
)

seeds = st.integers(min_value=0, max_value=10**6)


def two_type(concepts, roles, others):
    return TwoType(frozenset(concepts), frozenset(Role(r) for r in roles), frozenset(others))


def half(roles, concepts):
    return OneHalfType(frozenset(Role(r) for r in roles), frozenset(concepts))


def link(roles, others):
    """A (roles to, concepts of) neighbour pair."""
    return frozenset(Role(r) for r in roles), frozenset(others)


# =============================================================================
# SUCCESSOR CONFIGURATION GOLDENS
# =============================================================================


def test_succ_config_merges_under_counting():
    """A frontier that does not yet witness either requirement owes both."""
    s = SaturatedTBox(GOLDEN_SEVEN)
    neighbours = [
        link({"r1"}, {"A2"}),
        link({"r1"}, {"A2"}),  # duplicate on purpose
    ]
    assert set(succ_config(s, frozenset({"B0", "B1"}), neighbours)) == {
        half({"r0", "r1"}, {"A0", "A1"}),
        half({"r2"}, {"A2"}),
    }


def test_succ_config_drops_requirements_already_witnessed():
    s = SaturatedTBox(GOLDEN_SEVEN)
    neighbours = [link({"r1", "r2"}, {"A2"})]
    got = succ_config(s, frozenset({"B0", "B1"}), neighbours)
    assert set(got) == {half({"r0", "r1"}, {"A0", "A1"})}


def test_succ_filter_mutation_hook_changes_the_golden():
    # the selftest harness relies on this switch producing a real bug
    s = SaturatedTBox(GOLDEN_SEVEN)
    neighbours = [link({"r1", "r2"}, {"A2"})]
    model.INJECT_SUCC_FILTER_BUG = True
    try:
        buggy = set(succ_config(s, frozenset({"B0", "B1"}), neighbours))
    finally:
        model.INJECT_SUCC_FILTER_BUG = False
    assert half({"r2"}, {"A2"}) in buggy  # the filter would have removed it


def test_children_follow_the_inverted_letter():
    s = SaturatedTBox(GOLDEN_SEVEN)
    letter = two_type({"B0"}, {"r2"}, {"A2"})  # parent is B0, child is A2
    assert letters(s, *key_after(letter)) == ()  # A2 owes nothing


def test_children_come_out_in_type_key_order():
    # every letter over one role into a child with two of the
    # golden concepts; a child with B0 and B1 owes two letters
    s = SaturatedTBox(GOLDEN_SEVEN)
    names = sorted({"A0", "A1", "A2", "B0", "B1"})
    kids = [
        letters(s, *key_after(two_type(set(), {r}, set(pair))))
        for r in ("r0", "r1", "r2")
        for pair in itertools.combinations(names, 2)
    ]
    assert max(len(k) for k in kids) == 2
    assert all(k == tuple(sorted(k, key=type_key)) for k in kids)


# =============================================================================
# COMPLETION
# =============================================================================


def test_completion_golden():
    ab = ABox.of(
        concepts=[("B0", "a"), ("A0", "b")],
        roles=[(Role("r0"), "a", "b"), (Role("r2"), "a", "b")],
    )
    done = complete_abox(SaturatedTBox(GOLDEN_SEVEN), ab)
    assert done.concept_atoms == ab.concept_atoms | {("A1", "b"), ("A2", "b")}
    assert done.role_atoms == ab.role_atoms | {("r1", "a", "b")}


def test_completion_is_idempotent_on_the_golden():
    ab = ABox.of(
        concepts=[("B0", "a"), ("A0", "b")],
        roles=[(Role("r0"), "a", "b"), (Role("r2"), "a", "b")],
    )
    done = complete_abox(SaturatedTBox(GOLDEN_SEVEN), ab)
    assert complete_abox(SaturatedTBox(GOLDEN_SEVEN), done) == done


def test_completion_raises_on_clash():
    tb = TBox.of([ConjInclusion(frozenset({"A", "B"}), "bot")])
    ab = ABox.of(concepts=[("A", "a"), ("B", "a")])
    with pytest.raises(InconsistentKB, match="bot holds at a"):
        complete_abox(SaturatedTBox(tb), ab)
    complete_abox(SaturatedTBox(GOLDEN_SEVEN), ABox.of(concepts=[("B0", "a")]))


# a chain that the naive loop closes one link a round: B <= A holds only
# after the value restriction has put B on the next link; the last link
# has a named u-successor w, onto which A's existential v-successor merges,
# and the new v edge fires K <= only ^v.H back at the last link
CHAIN_TBOX = TBox.of(
    [
        RoleInclusion(Role("r"), Role("s", True)),
        ValueRestriction("A", Role("s", True), "B"),
        ConjInclusion(frozenset({"B"}), "A"),
        ExistsInclusion("A", Role("v"), "E"),
        RoleInclusion(Role("v"), Role("u")),
        AtMostOne("A", Role("u"), TOP),
        ValueRestriction("K", Role("v", True), "H"),
    ]
)


def chain_abox(n):
    links = [(Role("r"), f"x{k}", f"x{k + 1}") for k in reversed(range(n))]
    return ABox.of(
        concepts=[("A", "x0"), ("K", "w")],
        roles=links + [(Role("u"), f"x{n}", "w")],
    )


def test_completion_does_work_in_proportion_to_the_atoms_it_adds(monkeypatch):
    n = 30
    ab = chain_abox(n)
    calls = []
    for name in ("add_concept", "add_role"):
        add = getattr(GraphIndex, name)

        def spy(self, *atom, add=add):
            calls.append(atom)
            return add(self, *atom)

        monkeypatch.setattr(GraphIndex, name, spy)
    done = complete_abox(SaturatedTBox(CHAIN_TBOX), ab)
    monkeypatch.undo()
    assert (done.concept_atoms, done.role_atoms) == oracle_complete(CHAIN_TBOX, ab)
    assert {("A", f"x{n}"), ("E", "w"), ("H", f"x{n}")} <= done.concept_atoms
    assert ("v", f"x{n}", "w") in done.role_atoms
    atoms = len(done.concept_atoms) + len(done.role_atoms)
    assert len(calls) <= 2 * atoms, (len(calls), atoms)


# A and G travel down r one link a round; merges onto u-successors
LATE_TBOX = TBox.of(
    [
        ValueRestriction("A", Role("r"), "A"),
        ValueRestriction("G", Role("r"), "G"),
        ExistsInclusion("A", Role("v"), "E"),
        ConjInclusion(frozenset({"E"}), "G"),
        RoleInclusion(Role("v"), Role("u")),
        AtMostOne("A", Role("u"), "G"),
        ExistsInclusion("K", Role("v", True), "P"),
        AtMostOne("K", Role("v", True), TOP),
        ValueRestriction("K", Role("v", True), "H"),
    ]
)


def test_completion_fires_a_rule_on_whichever_premise_comes_last():
    # a1 -u-> w1 waits for G to reach w1, the merge's filler; a2 -u-> w2
    # waits for A to reach a2, and the merge adds only the edge v(a2, w2),
    # which w2's max1 ^v and only ^v then read backwards
    ab = ABox.of(
        concepts=[("A", "a1"), ("G", "y0"), ("A", "z0"), ("E", "w2"), ("K", "w2")],
        roles=[
            (Role("u"), "a1", "w1"),
            (Role("r"), "y0", "y1"),
            (Role("r"), "y1", "y2"),
            (Role("r"), "y2", "w1"),
            (Role("u"), "a2", "w2"),
            (Role("r"), "z0", "z1"),
            (Role("r"), "z1", "z2"),
            (Role("r"), "z2", "a2"),
        ],
    )
    done = complete_abox(SaturatedTBox(LATE_TBOX), ab)
    assert (done.concept_atoms, done.role_atoms) == oracle_complete(LATE_TBOX, ab)
    assert {("E", "w1"), ("P", "a2"), ("H", "a2")} <= done.concept_atoms
    assert {("v", "a1", "w1"), ("v", "a2", "w2")} <= done.role_atoms


def test_completion_merges_are_impossible_between_names():
    # two distinct named witnesses under a counted role cannot merge
    tb = TBox.of([AtMostOne("A", Role("r"), TOP)])
    ab = ABox.of(
        concepts=[("A", "a")], roles=[(Role("r"), "a", "b"), (Role("r"), "a", "c")]
    )
    with pytest.raises(InconsistentKB):
        complete_abox(SaturatedTBox(tb), ab)


# =============================================================================
# DIRECT MODEL CONSTRUCTION
# =============================================================================


def test_pet_model_needs_no_anonymous_nodes():
    got = build_model(PET_TBOX, PET_ABOX, 5)
    assert got.complete
    assert got.nodes == frozenset({"linda", "blu"})
    assert ("hasPet", "linda", "blu") in got.role_atoms
    assert got.concept_atoms == frozenset(
        {("PetOwner", "linda"), ("Bird", "blu")}
    )


def test_pet_model_at_depth_zero_is_already_closed():
    got = build_model(PET_TBOX, PET_ABOX, 0)
    assert got.complete
    assert len(got.nodes) == 2


def test_infinite_chain_truncates_to_the_requested_depth():
    tb = TBox.of([ExistsInclusion("A", Role("r"), "A")])
    ab = ABox.of(concepts=[("A", "a")])
    for n in range(6):
        got = build_model(tb, ab, n)
        assert not got.complete  # there is always one more step owed
        named = [x for x in got.nodes if isinstance(x, str)]
        anon = sorted(x.label for x in got.nodes if isinstance(x, Anon))
        assert named == ["a"]
        assert anon == ["a" + ".1" * k for k in range(1, n + 1)]
        assert len(got.role_atoms) == n  # a simple chain, one edge per letter
        for w in anon:
            assert got.has_concept("A", Anon(w))


def test_succ_config_runs_once_per_distinct_root_frontier(tmp_path, monkeypatch, capsys):
    # twenty owners without a pet share one frontier, ten owners of rex
    # share another, and rex has a third. The letter of the owners'
    # anonymous pets asks what rex's frontier asks, an Animal whose one
    # neighbour is a PetOwner over ^hasPet, and makes no call of its own
    tbox = tmp_path / "k.tbox"
    tbox.write_text("PetOwner <= some hasPet.Animal\n")
    ps = [f"p{k}" for k in range(20)]
    qs = [f"q{k}" for k in range(10)]
    abox = tmp_path / "k.abox"
    abox.write_text(
        "".join(f"PetOwner({a})\n" for a in ps + qs)
        + "".join(f"hasPet({q},rex)\n" for q in qs)
        + "Animal(rex)\n"
    )
    succ = model.succ_config
    asked = []

    def spy(sat, concepts, neighbours):
        asked.append((concepts, frozenset(neighbours)))
        return succ(sat, concepts, neighbours)

    monkeypatch.setattr(model, "succ_config", spy)
    argv = ["build-model", "--tbox", str(tbox), "--abox", str(abox), "--depth", "1", "--emit"]
    assert cli.main(argv) == cli.EXIT_VALID
    assert len(asked) == 3 and len(set(asked)) == 3
    lines = [f"PetOwner({a})" for a in ps + qs] + ["Animal(rex)"]
    lines += [f"hasPet({q},rex)" for q in qs]
    lines += [f"Animal(_:{p}.1)" for p in ps] + [f"hasPet({p},_:{p}.1)" for p in ps]
    assert capsys.readouterr().out == "".join(line + "\n" for line in sorted(lines))


def test_anonymous_labels_rank_siblings_by_letter_at_every_depth(tmp_path, capsys):
    # a owes an r-child and an s-child, and the r-child owes both again;
    # each label is the parent's plus the child's rank among its siblings
    tbox = tmp_path / "k.tbox"
    tbox.write_text("A <= some r.B\nA <= some s.C\nB <= some r.D\nB <= some s.E\n")
    abox = tmp_path / "k.abox"
    abox.write_text("A(a)\n")
    argv = ["build-model", "--tbox", str(tbox), "--abox", str(abox), "--depth", "2", "--emit"]
    assert cli.main(argv) == cli.EXIT_VALID
    assert capsys.readouterr().out == (
        "A(a)\n"
        "B(_:a.1)\n"
        "C(_:a.2)\n"
        "D(_:a.1.1)\n"
        "E(_:a.1.2)\n"
        "r(_:a.1,_:a.1.1)\n"
        "r(a,_:a.1)\n"
        "s(_:a.1,_:a.1.2)\n"
        "s(a,_:a.2)\n"
    )


def test_is_model_accepts_the_golden_and_rejects_a_truncation():
    ab = ABox.of(concepts=[("B0", "a"), ("B1", "a")])
    assert is_model(GOLDEN_SEVEN, ab, build_model(GOLDEN_SEVEN, ab, 2))
    chain_tb = TBox.of([ExistsInclusion("A", Role("r"), "A")])
    chain_ab = ABox.of(concepts=[("A", "a")])
    assert not is_model(chain_tb, chain_ab, build_model(chain_tb, chain_ab, 3))


def test_is_model_rejects_missing_assertions():
    got = build_model(PET_TBOX, PET_ABOX, 1)
    smaller = got.restrict(["linda"])
    assert not is_model(PET_TBOX, PET_ABOX, smaller)


# =============================================================================
# ORACLE AGREEMENT
# =============================================================================


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_completion_matches_ground_chase(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng)
    ab = gen_abox(rng)
    expected = oracle_complete(tb, ab)
    if expected is None:
        with pytest.raises(InconsistentKB):
            complete_abox(SaturatedTBox(tb), ab)
        return
    done = complete_abox(SaturatedTBox(tb), ab)
    assert (done.concept_atoms, done.role_atoms) == expected


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_ground_chase_outputs_really_are_models(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng)
    ab = gen_abox(rng)
    found = find_ground_model(tb, ab)
    if found is not None:
        concepts, edges = found
        assert check_ground_model(tb, concepts, edges)
