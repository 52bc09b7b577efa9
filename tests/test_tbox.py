"""Saturation of Horn-SHIQ TBoxes.

The saturated view must expose every entailed conjunction inclusion and
every implied successor requirement, with counted roles folded into
merged requirements. Golden cases pin the mixed-family seven-axiom TBox
used throughout; randomized cases compare against the brute-force type
table in oracles.py, which is only sound without counting axioms. The
role hierarchy, the collapse of role cycles and the reduction of role
sets are checked on seeded draws against plain reachability.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_entailed, brute_existentials, is_consistent, role_reach
from ontoshacl.core import (
    BOT,
    TOP,
    ABox,
    AtMostOne,
    ConjInclusion,
    ExistsInclusion,
    OneHalfType,
    Role,
    RoleInclusion,
    TBox,
    ValueRestriction,
)
from ontoshacl.harness import gen_tbox
from ontoshacl.rewrite import _entailed_conj, _simplify_roles
from ontoshacl.tbox import (
    Existential,
    SaturatedTBox,
    UnsupportedPattern,
    collapse_role_cycles,
)

# =============================================================================
# FIXTURES
# =============================================================================

# The "golden seven": two existentials and a counting axiom that force a
# merge, a concept inclusion, a role inclusion, and an unqualified
# existential upgraded by a value restriction.
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

seeds = st.integers(min_value=0, max_value=10**6)


def half(roles, concepts):
    return OneHalfType(frozenset(roles), frozenset(concepts))


# =============================================================================
# ROLE HIERARCHY
# =============================================================================


def test_role_hierarchy_is_reflexive_transitive_and_inverse_closed():
    tb = TBox.of(
        [RoleInclusion(Role("p"), Role("q")), RoleInclusion(Role("q"), Role("r"))]
    )
    h = tb.hierarchy
    assert h[Role("p")] == frozenset({Role("p"), Role("q"), Role("r")})
    # the mirrored statement about inverses comes for free
    assert h[Role("p", True)] == frozenset(
        {Role("p", True), Role("q", True), Role("r", True)}
    )


def test_collapse_plain_role_cycle():
    tb = TBox.of(
        [
            RoleInclusion(Role("p"), Role("q")),
            RoleInclusion(Role("q"), Role("p")),
            ExistsInclusion("A", Role("p"), "B"),
        ]
    )
    out, renaming = collapse_role_cycles(tb)
    assert len(renaming) == 1
    (old, new), = renaming.items()
    assert {old, new.name} == {"p", "q"}
    assert not new.inverted
    assert out.roles == ()  # the cycle itself is gone
    assert len(out.exists) == 1


def test_collapse_inverse_role_cycle_renames_with_polarity():
    tb = TBox.of(
        [
            RoleInclusion(Role("p"), Role("q", True)),
            RoleInclusion(Role("q", True), Role("p")),
        ]
    )
    out, renaming = collapse_role_cycles(tb)
    assert len(renaming) == 1
    (old, new), = renaming.items()
    assert {old, new.name} == {"p", "q"}
    assert new.inverted
    assert out.roles == ()


def test_role_equivalent_to_own_inverse_is_rejected():
    tb = TBox.of([RoleInclusion(Role("r"), Role("r", True))])
    with pytest.raises(UnsupportedPattern):
        collapse_role_cycles(tb)


def test_collapse_is_identity_without_cycles():
    tb = TBox.of([RoleInclusion(Role("p"), Role("q"))])
    out, renaming = collapse_role_cycles(tb)
    assert out == tb
    assert renaming == {}


def draw_role_tbox(rng):
    """0-8 role inclusions over p, q, r and s with random inversions, so
    cycles and roles equivalent to their own inverse both occur, and one
    existential over a drawn role."""

    def role():
        return Role(rng.choice("pqrs"), rng.random() < 0.25)

    axioms = [RoleInclusion(role(), role()) for _ in range(rng.randint(0, 8))]
    return TBox.of([*axioms, ExistsInclusion("A", role(), "B")])


def least_equivalent(reach):
    """Each role's least mutually reachable role."""
    return {r: min(s for s in reach[r] if r in reach[s]) for r in reach}


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_role_hierarchy_matches_reachability(seed):
    tb = draw_role_tbox(random.Random(seed))
    assert tb.hierarchy == role_reach(tb)


def test_collapse_maps_each_cycle_to_its_least_role():
    # a thousand seeded draws: this many refused for a self-inverse role,
    # and this many of the rest with a cycle
    refused = cyclic = 0
    for seed in range(1000):
        tb = draw_role_tbox(random.Random(seed))
        reach = role_reach(tb)
        self_inverse = sorted(r for r in reach if r.invert() in reach[r])
        if self_inverse:
            refused += 1
            with pytest.raises(UnsupportedPattern, match=f"^role {self_inverse[0].name} is "):
                collapse_role_cycles(tb)
            continue
        rep = least_equivalent(reach)
        out, renaming = collapse_role_cycles(tb)
        cyclic += out is not tb
        assert renaming == {r.name: s for r, s in rep.items() if r != s and not r.inverted}
        assert all(rep[r.invert()] == s.invert() for r, s in rep.items())
        again, none = collapse_role_cycles(out)
        assert again is out and none == {}
        # a representative that no axiom of out names has itself alone
        mapped = {rep[r]: frozenset(rep[s] for s in reach[r]) for r in reach}
        assert set(out.hierarchy) <= set(mapped)
        assert {r: out.hierarchy.get(r, frozenset({r})) for r in mapped} == mapped
        (ax,) = tb.exists
        assert out.exists == (ExistsInclusion("A", rep[ax.role], "B"),)
    assert (refused, cyclic) == (416, 70)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_simplify_roles_keeps_the_minimal_roles_of_an_acyclic_hierarchy(seed):
    tb = draw_role_tbox(random.Random(seed))
    reach = role_reach(tb)
    if any(s != r and r in reach[s] for r in reach for s in reach[r]):
        return  # a cycle
    sat = SaturatedTBox(tb)
    roles = sorted(reach)
    for n in range(len(roles) + 1):
        for subset in map(frozenset, itertools.combinations(roles, n)):
            minimal = {r for r in subset if not any(s != r and r in reach[s] for s in subset)}
            assert _simplify_roles(sat, subset) == minimal


# =============================================================================
# SATURATION GOLDENS
# =============================================================================


def test_golden_seven_merged_requirement():
    """The counted role folds the two existentials into one requirement."""
    s = SaturatedTBox(GOLDEN_SEVEN)
    got = set(s.implied_existentials({"B0", "B1"}))
    assert got == {
        half({Role("r0"), Role("r1")}, {"A0", "A1"}),
        half({Role("r2")}, {"A2"}),
    }


def test_golden_seven_without_the_counting_context():
    """B0 alone owes one requirement: the role-closed, filler-closed child.

    The second existential is subsumed by it, and the unqualified child
    belongs to B1, so it does not show up here at all.
    """
    s = SaturatedTBox(GOLDEN_SEVEN)
    got = set(s.implied_existentials({"B0"}))
    assert got == {half({Role("r0"), Role("r1")}, {"A0", "A1"})}


def test_golden_seven_concept_closure():
    s = SaturatedTBox(GOLDEN_SEVEN)
    assert "A1" in s.cl({"A0"})
    assert "A1" not in s.cl({"B0"})


def test_forall_fires_backwards_across_an_inverse_subrole():
    # the existential's child points back at its parent through q, so the
    # value restriction at the child constrains the parent
    tb = TBox.of(
        [
            ExistsInclusion("C1", Role("p"), "C1"),
            ValueRestriction("C1", Role("q"), "C0"),
            RoleInclusion(Role("p"), Role("q", True)),
        ]
    )
    s = SaturatedTBox(tb)
    assert "C0" in s.cl({"C1"})
    assert set(s.implied_existentials({"C1"})) == {
        half({Role("p"), Role("q", True)}, {"C0", "C1"})
    }


def test_implied_existentials_are_computed_once_per_closure():
    # A and {A, B} have one closure, so they share one answer
    s = SaturatedTBox(
        TBox.of([ConjInclusion(frozenset({"A"}), "B"), ExistsInclusion("B", Role("r"), "C")])
    )
    first = s.implied_existentials({"A"})
    assert first == (half({Role("r")}, {"C"}),)
    assert s.implied_existentials({"A", "B"}) is first
    assert s.implied_existentials({"B"}) is not first


def test_saturation_terminates_on_feedback_heavy_tbox():
    # regression: the fixpoint check must compare normalized content, not
    # raw derivation counts, or this input loops forever
    tb = TBox.of(
        [
            ConjInclusion(frozenset({"C0"}), "C1"),
            ValueRestriction("C0", Role("q", True), "C0"),
            ExistsInclusion("C1", Role("q", True), TOP),
            ConjInclusion(frozenset({"C2"}), "C1"),
            ExistsInclusion("C2", Role("p"), TOP),
            RoleInclusion(Role("p", True), Role("q", True)),
        ]
    )
    s = SaturatedTBox(tb)
    assert s.implied_existentials({"C0"})


# =============================================================================
# ORACLE AGREEMENT (no counting axioms)
# =============================================================================


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_implied_existentials_match_type_table(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng, allow_atmost=False)
    s = SaturatedTBox(tb)
    names = sorted(tb.concept_names())
    probes = [{n} for n in names]
    if len(names) >= 2:
        probes.append(set(rng.sample(names, 2)))
    for concepts in probes:
        got = {(u.roles, u.concepts) for u in s.implied_existentials(concepts)}
        assert got == brute_existentials(tb, concepts)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_concept_closure_matches_type_table(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng, allow_atmost=False)
    s = SaturatedTBox(tb)
    for n in sorted(tb.concept_names()):
        assert s.cl({n}) == brute_entailed(tb, {n})


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_implied_existentials_form_an_antichain(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng)
    s = SaturatedTBox(tb)
    for n in sorted(tb.concept_names()):
        out = s.implied_existentials({n})
        for u in out:
            for v in out:
                assert not (u != v and u.subsumed_by(v))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_saturation_is_deterministic(seed):
    rng = random.Random(seed)
    tb = gen_tbox(rng)
    a, b = SaturatedTBox(tb), SaturatedTBox(tb)
    assert a.conj == b.conj
    assert a.existentials == b.existentials


# =============================================================================
# CONSISTENCY
# =============================================================================


def test_disjointness_clash_is_inconsistent():
    tb = TBox.of([ConjInclusion(frozenset({"A", "B"}), BOT)])
    ab = ABox.of(concepts=[("A", "a"), ("B", "a")])
    assert not is_consistent(tb, ab)
    assert is_consistent(tb, ABox.of(concepts=[("A", "a"), ("B", "b")]))


def test_two_named_witnesses_under_a_counted_role_clash():
    # distinct names denote distinct things, so they cannot merge
    tb = TBox.of([AtMostOne("A", Role("r"), "B")])
    ab = ABox.of(
        concepts=[("A", "a"), ("B", "b"), ("B", "c")],
        roles=[(Role("r"), "a", "b"), (Role("r"), "a", "c")],
    )
    assert not is_consistent(tb, ab)


def test_counted_role_with_one_witness_is_fine():
    tb = TBox.of([AtMostOne("A", Role("r"), "B")])
    ab = ABox.of(
        concepts=[("A", "a"), ("B", "b")],
        roles=[(Role("r"), "a", "b"), (Role("r"), "a", "c")],
    )
    assert is_consistent(tb, ab)


def test_an_existential_whose_premise_closes_to_bot_is_dropped():
    # A & C needs an r-successor under B that ``only r.bot`` makes bot, so
    # A & C is inconsistent; only A's own existential is kept
    tb = TBox.of([
        ExistsInclusion("A", Role("r"), "B"),
        ConjInclusion(frozenset({"A", "D"}), BOT),
        ValueRestriction("C", Role("r"), BOT),
    ])
    st = SaturatedTBox(tb)
    assert st.existentials == {Existential(frozenset({"A"}), frozenset({Role("r")}), frozenset({"B"}))}
    assert st.conj == {(frozenset({"A", "C"}), BOT), (frozenset({"A", "D"}), BOT)}
    # no successor under bot is asked of A & C
    assert st.implied_existentials({"A", "C"}) == (OneHalfType(frozenset({Role("r")}), frozenset({"B"})),)


def test_a_row_whose_premise_holds_bot_now_comes_only_from_an_axiom_that_says_so():
    # ``A & bot <= bot`` as written: its one entailed row is kept, and the
    # pure rewritings leave it out
    st = SaturatedTBox(TBox.of([ConjInclusion(frozenset({"A", BOT}), BOT)]))
    assert st.conj == {(frozenset({"A", BOT}), BOT)}
    assert _entailed_conj(st) == []
