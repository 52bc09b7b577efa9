"""Chase variants and core computation.

Endomorphism search is cross-checked against an exhaustive oracle, and
both chase flavours must land on something isomorphic to the directly
built model whenever that model is finite.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import build_model, enumerate_endomorphisms, naive_endos, run_oblivious_chase
from ontoshacl import chase
from ontoshacl.chase import (
    MAX_CHASE_NODES,
    NotTerminated,
    SizeGuardExceeded,
    core_of,
    fire_axioms,
    is_isomorphic,
    run_core_chase,
)
from ontoshacl.core import (
    TOP,
    ABox,
    ExistsInclusion,
    Interpretation,
    Null,
    Role,
    RoleInclusion,
    TBox,
)
from ontoshacl.harness import SAFE_DEPTH, gen_abox, gen_tbox
from ontoshacl.model import build_can, complete_abox
from ontoshacl.tbox import SaturatedTBox

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

CHAIN_TBOX = TBox.of([ExistsInclusion("A", Role("r"), "A")])
CHAIN_ABOX = ABox.of(concepts=[("A", "a")])

seeds = st.integers(min_value=0, max_value=10**6)


def mapping_set(homs):
    return {frozenset(h.mapping) for h in homs}


# =============================================================================
# OBLIVIOUS CHASE
# =============================================================================


def test_oblivious_chase_never_reuses_witnesses():
    # linda already has a winged pet, but both requirements fire anyway,
    # one null per existential axiom
    fix = run_oblivious_chase(SaturatedTBox(PET_TBOX), PET_ABOX)
    nulls = sorted((n for n in fix.nodes if isinstance(n, Null)), key=str)
    assert len(nulls) == 2
    linda = "linda"
    plain = [n for n in nulls if "hasPet" in n.key and "Winged" not in n.key]
    winged = [n for n in nulls if "hasWingedPet" in n.key]
    assert len(plain) == 1 and len(winged) == 1
    assert fix.has_edge(Role("hasPet"), linda, plain[0])
    assert not fix.has_edge(Role("hasWingedPet"), linda, plain[0])
    assert fix.has_edge(Role("hasWingedPet"), linda, winged[0])
    assert fix.has_edge(Role("hasPet"), linda, winged[0])  # superrole came along
    assert fix.has_edge(Role("hasPet"), linda, "blu")


def test_refiring_the_same_trigger_reuses_the_same_null():
    sat = SaturatedTBox(PET_TBOX)
    one = fire_axioms(sat, PET_ABOX)
    two = fire_axioms(sat, one)
    # round two only finishes propagating derived edges; the trigger keys
    # are deterministic, so no second batch of witnesses appears
    assert {n for n in two.nodes if isinstance(n, Null)} == {
        n for n in one.nodes if isinstance(n, Null)
    }
    assert fire_axioms(sat, two) == two


def test_oblivious_chase_diverges_on_the_chain():
    with pytest.raises(NotTerminated):
        run_oblivious_chase(SaturatedTBox(CHAIN_TBOX), CHAIN_ABOX, max_rounds=8)


def test_size_guard_cuts_off_runaway_structures():
    with pytest.raises(SizeGuardExceeded):
        run_oblivious_chase(SaturatedTBox(CHAIN_TBOX), CHAIN_ABOX, max_nodes=3)


# =============================================================================
# ENDOMORPHISMS AND CORES
# =============================================================================


def test_endomorphism_classification_on_a_foldable_fan():
    a, n1, n2 = "a", Null("n1"), Null("n2")
    fan = Interpretation.of(
        concepts=[("A", n2)],
        roles=[(Role("r"), a, n1), (Role("r"), a, n2)],
        nodes=[a, n1, n2],
    )
    homs = enumerate_endomorphisms(fan)
    assert mapping_set(homs) == {
        frozenset({(a, a), (n1, n1), (n2, n2)}),
        frozenset({(a, a), (n1, n2), (n2, n2)}),
    }
    ident = [h for h in homs if dict(h.mapping)[n1] == n1][0]
    fold = [h for h in homs if dict(h.mapping)[n1] == n2][0]
    assert ident.is_isomorphism
    assert not fold.injective and not fold.surjective
    core = core_of(fan)
    assert core.nodes == frozenset({a, n2})


def test_named_nodes_are_never_moved():
    a, b = "a", "b"
    twins = Interpretation.of(concepts=[("A", a), ("A", b)], nodes=[a, b])
    homs = enumerate_endomorphisms(twins)
    assert mapping_set(homs) == {frozenset({(a, a), (b, b)})}
    assert core_of(twins) == twins


def test_core_is_idempotent():
    a, n1, n2 = "a", Null("n1"), Null("n2")
    fan = Interpretation.of(
        concepts=[("A", n2)],
        roles=[(Role("r"), a, n1), (Role("r"), a, n2)],
        nodes=[a, n1, n2],
    )
    once = core_of(fan)
    assert core_of(once) == once


def test_isomorphism_ignores_null_names_but_not_structure():
    a = "a"
    left = Interpretation.of(roles=[(Role("r"), a, Null("x"))], nodes=[a, Null("x")])
    right = Interpretation.of(roles=[(Role("r"), a, Null("y"))], nodes=[a, Null("y")])
    other = Interpretation.of(roles=[(Role("r"), Null("y"), a)], nodes=[a, Null("y")])
    assert is_isomorphic(left, right)
    assert not is_isomorphic(left, other)


def test_isomorphism_keeps_the_named_individuals():
    # same counts, and a map that fits the atoms, but b has a name a lacks
    left = Interpretation.of([("A", Null("n"))], nodes=["a"])
    right = Interpretation.of([("A", "b")], nodes=["a"])
    assert not is_isomorphic(left, right)
    assert not is_isomorphic(Interpretation.of(nodes=["a"]), Interpretation.of(nodes=["b"]))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_endomorphisms_match_exhaustive_oracle(seed):
    rng = random.Random(seed)
    nodes = ["a"] + [Null(f"n{i}") for i in range(rng.randint(1, 3))]
    concepts = [("A", n) for n in nodes if rng.random() < 0.4]
    edges = [
        (Role(rng.choice("rq")), x, y)
        for x in nodes
        for y in nodes
        if rng.random() < 0.3
    ]
    interp = Interpretation.of(concepts, edges, nodes=nodes)
    got = mapping_set(enumerate_endomorphisms(interp))
    want = {frozenset(m.items()) for m in naive_endos(interp)}
    assert got == want


# =============================================================================
# CORE CHASE AGAINST THE DIRECT CONSTRUCTION
# =============================================================================


def test_pet_core_chase_round_trip():
    sat = SaturatedTBox(PET_TBOX)
    trace = []
    fix = run_core_chase(sat, PET_ABOX, trace=trace)
    can = build_can(sat, complete_abox(sat, PET_ABOX), 1)
    assert is_isomorphic(fix, can)
    assert len(fix.nodes) == 2
    # the trace ends with the no-op round that confirmed the fixpoint
    fired, cored = trace[-1]
    assert is_isomorphic(cored, fix)
    assert len(trace) == 2


def test_oblivious_fixpoint_cores_down_to_the_direct_model():
    fix = run_oblivious_chase(SaturatedTBox(PET_TBOX), PET_ABOX)
    assert len(fix.nodes) == 4  # linda, blu, and two redundant witnesses
    cored = core_of(fix)
    assert is_isomorphic(cored, build_model(PET_TBOX, PET_ABOX, 1))


def test_core_chase_diverges_on_the_chain():
    with pytest.raises(NotTerminated):
        run_core_chase(SaturatedTBox(CHAIN_TBOX), CHAIN_ABOX, max_rounds=6)


def test_core_chase_refuses_too_much_data_before_firing(monkeypatch):
    def no_round(sat, atoms):
        raise AssertionError("fired a round")

    monkeypatch.setattr(chase, "fire_axioms", no_round)
    big = ABox.of(concepts=[("A", f"i{k}") for k in range(MAX_CHASE_NODES + 1)])
    with pytest.raises(SizeGuardExceeded, match=f"{MAX_CHASE_NODES + 1} nodes exceeds"):
        run_core_chase(SaturatedTBox(CHAIN_TBOX), big)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_direct_models_are_rigid(seed):
    """Every endomorphism of a finite direct model is an isomorphism."""
    rng = random.Random(seed)
    tb = gen_tbox(rng)
    ab = gen_abox(rng)
    try:
        can = build_model(tb, ab, SAFE_DEPTH)
    except Exception:
        assume(False)
    assume(can.complete and len(can.nodes) <= 10)
    for h in enumerate_endomorphisms(can):
        assert h.is_isomorphism
