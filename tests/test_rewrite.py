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
multiplying. A shrunk selftest case pins the check that settles a
child's witness claims against its parent, and shuffled rewritings pin
that verdicts do not depend on the order of C_T. The bit-encoded
saturation is checked against the set-based one kept in
``oracles.set_rewrite``, which also stores the vacuous unions, those with
a witness in both P and Q; the bit-encoded one stores none. The oracle
keeps one row per type and witness split, and each head's merged rows
must agree with them on every valuation of their conjuncts that a node
of the completed data can have (``oracles.disagreeing_heads``). Guessing the
witnesses in the reverse order leaves K and C_T as they are, and on a
three-strata fixture each stratum masks a strict subset of the witness
rules; after each stratum, K holds no head and no witness that only a
later stratum may derive. C_T emits only the rows the TBox adds, none
twice: a row whose head the source constraints derive from its own
conjuncts is dropped, by the oracle too, and the verdicts match those of
the oracle's C_T that keeps such rows. Each component is rewritten over its own signature of
concept names; three inputs pin the existential premises it must keep,
and a seeded slice of denser cases checks its verdicts against those over
every concept name. A component is saturated only when one of its steps
is live, and one input per rule of the fixpoint that decides it pins the
verdicts of ``direct``. The pure rewritings must print what substituting
at every occurrence (``oracles.occurrence_pure_*``) prints, and
``pure_rewrite_alchi`` works out the sub-role choices of each distinct
role set of C_T once.
"""
from __future__ import annotations

import itertools
import random

import pytest

from ontoshacl import rewrite as rw
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
from ontoshacl.harness import SAFE_DEPTH, case_rng, gen_abox, gen_case, gen_constraints, gen_tbox
from ontoshacl.model import InconsistentKB, complete_abox
from ontoshacl.rewrite import pure_rewrite_alchi, pure_rewrite_shaclb, rewrite
from ontoshacl.shapes import (
    And,
    ConceptRef,
    Constraint,
    ExistsRoles,
    ShapesGraph,
    compute_stratification,
    normalize,
    shape_names,
)
from ontoshacl.tbox import SaturatedTBox, UnsupportedPattern
from ontoshacl.values import replace
from oracles import (
    Lit,
    derived_lits,
    disagreeing_heads,
    full_signature,
    occurrence_pure_alchi,
    occurrence_pure_shaclb,
    set_rewrite,
)
from test_cli import HASHED_ABOX, HASHED_SHAPES, HASHED_TBOX

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

# defect 4: a path shape and a guarded comparison under the benchmark's
# `paths` ontology
DEFECT_4_TBOX = parse_tbox("A <= some r.B\nB <= some r.C\nr <= s\n")

DEFECT_4_SHAPES = parse_constraints("$s <- some <s/s*>.C\n$u <- (@a & eq(<q>,<q>))\n")

DEFECT_4_DATA = parse_abox("A(a)\nq(a,b)\nq(b,c)\nD(c)\nr(c,a)\n")

DEFECT_4_TARGETS = [("s", "a"), ("s", "b"), ("s", "c"), ("u", "a")]

# one component in three strata: the @a body heads the first, each
# existential one of the others
STRATA_3_SHAPES = parse_constraints("$h <- @a\n$e <- some [p].!$h\n$x <- some [^p].!$e\n")

# one component in two strata whose @a body heads a constraint in each
SHARED_WITNESS_SHAPES = parse_constraints("$h <- @a\n$k <- @a\n$k <- some [p].!$h\n")

# selftest case (6, 39), shrunk: the anonymous p-child of d is an r-edge
# in both directions, so an s0 claim of the child could only rest on d
DISCHARGE_TBOX = parse_tbox("C4 <= some p.top\np <= r\n^p <= r\n")

DISCHARGE_SHAPES = parse_constraints("$s0 <- some [^r].$s0\n")


# the `abox` workload's TBox and shapes (bench/abox.py): 42 of the 50 rows
# of its unmerged C_T say two things
ABOX_TBOX = parse_tbox(
    """
    Mgr <= Emp
    Emp <= some worksFor.Dept
    Mgr <= some manages.Dept
    Emp <= only memberOf.Unit
    worksFor <= memberOf
    manages <= memberOf
    """
)

ABOX_SHAPES = parse_constraints(
    """
    $ok <- Emp | some [worksFor].Unit
    $staffed <- some [^worksFor].Emp
    $orphan <- Dept & !$staffed
    """
)


def flatten(body):
    """The conjuncts of a conjunction tree, as objects."""
    if isinstance(body, And):
        return flatten(body.left) + flatten(body.right)
    return [body]


def conjuncts(body):
    """Flatten a conjunction tree into its printed conjuncts."""
    return [str(x) for x in flatten(body)]


def emitted(tbox, shapes, **kw):
    return rewrite(SaturatedTBox(tbox), compute_stratification(shapes), **kw)


def heads_with_conjuncts(out, head):
    return [frozenset(conjuncts(c.body)) for c in out if c.head == head]


def normal_form(tbox, shapes):
    """The saturated TBox and the stratified normal form of the shapes."""
    nsg, _ = normalize(ShapesGraph.of(shapes))
    return SaturatedTBox(tbox), compute_stratification(nsg.constraints)


def selftest_slice(seed, cases):
    """The TBox and the constraints of the first selftest cases of a seed."""
    for i in range(cases):
        tbox, _, sg = gen_case(case_rng(seed, i))
        yield tbox, sg.constraints


# =============================================================================
# EMISSION GOLDENS
# =============================================================================


def test_chain_emission_contains_the_summary_constraint():
    out = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    want = frozenset({"A", "!(B)", "!(C)", "!(some [p].B)"})
    assert want in heads_with_conjuncts(out, "s")


def test_chain_target_is_valid_over_the_completed_graph():
    out = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    completed = complete_abox(SaturatedTBox(CHAIN_TBOX), CHAIN_DATA)
    assert completed == CHAIN_DATA  # nothing ground to add here
    assert validate(completed, out, [("s", "a")]) == {("s", "a"): True}


def test_two_stratum_emission_threads_the_lower_shape():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    want = frozenset({"A", "some [p].$s_C", "!(some [p].B)"})
    assert want in heads_with_conjuncts(out, "s")


def test_two_stratum_target_is_valid_over_the_completed_graph():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    completed = complete_abox(SaturatedTBox(TWO_STRATUM_TBOX), TWO_STRATUM_DATA)
    assert validate(completed, out, [("s", "a")]) == {("s", "a"): True}


def test_rewrite_is_deterministic_and_reports_work():
    stats = {}
    once = emitted(CHAIN_TBOX, CHAIN_SHAPES, stats=stats)
    again = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    assert once == again
    assert stats["quadruples"] > 0


def test_rewrite_output_never_mentions_fresh_unknown_shapes():
    out = emitted(TWO_STRATUM_TBOX, TWO_STRATUM_SHAPES)
    original = {c.head for c in TWO_STRATUM_SHAPES}
    assert shape_names(out) <= original


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
    # saturated together the two shapes needed 4,020 quadruples
    sg = ShapesGraph.of(DEFECT_4_SHAPES, DEFECT_4_TARGETS)
    kb = prepare(DEFECT_4_TBOX, DEFECT_4_DATA, sg, depth=10)
    verdicts = ROUTES["rewrite"].run(kb).verdicts
    assert verdicts == {("s", "a"): True, ("s", "b"): False, ("s", "c"): True, ("u", "a"): True}
    assert kb.stats["quadruples"] < 2000


# =============================================================================
# CHILD DISCHARGE AND CONSTRAINT ORDER
# =============================================================================


def test_child_claims_are_discharged_against_the_parent():
    # s0 has no base case, so it holds nowhere. A child quadruple that
    # claims s0 only through its parent must not derive s0 for the parent:
    # without the discharge test in ``rewrite._close`` the three rewrite
    # routes call this target VALID
    sg = ShapesGraph.of(DISCHARGE_SHAPES, [("s0", "d")])
    kb = prepare(DISCHARGE_TBOX, parse_abox("C4(d)\n"), sg, depth=10)
    for mode, route in ROUTES.items():
        assert route.run(kb).verdicts == {("s0", "d"): False}, mode


@pytest.mark.parametrize("seed", [0, 1, 2, None], ids=["seed0", "seed1", "seed2", "defect4"])
def test_verdicts_do_not_depend_on_the_constraint_order(seed):
    if seed is None:
        cases = [(DEFECT_4_TBOX, DEFECT_4_DATA, ShapesGraph.of(DEFECT_4_SHAPES, DEFECT_4_TARGETS))]
    else:
        cases = [gen_case(case_rng(seed, i)) for i in range(10)]
    rng = random.Random(seed)
    for tbox, abox, sg in cases:
        kb = prepare(tbox, abox, sg, depth=10)
        try:
            want = validate(kb.completed, kb.c_t, sg.targets)
        except InconsistentKB:
            continue
        for _ in range(3):
            shuffled = rng.sample(kb.c_t, len(kb.c_t))
            assert validate(kb.completed, shuffled, sg.targets) == want


# =============================================================================
# BIT-ENCODED SATURATION
# =============================================================================


@pytest.mark.parametrize(
    "seed", [0, 1, None, "strata3", "abox"], ids=["seed0", "seed1", "defect4", "strata3", "abox"]
)
def test_bit_saturation_matches_set_oracle(seed):
    if seed is None:
        cases = [(DEFECT_4_TBOX, DEFECT_4_SHAPES)]
    elif seed == "strata3":
        cases = [(TWO_STRATUM_TBOX, STRATA_3_SHAPES)]
    elif seed == "abox":
        cases = [(ABOX_TBOX, ABOX_SHAPES)]
    else:
        cases = selftest_slice(seed, 20)
    for tbox, shapes in cases:
        st, strat = normal_form(tbox, shapes)
        stats = {}
        got = rewrite(st, strat, stats=stats)
        want, _, satisfiable = set_rewrite(st, strat)
        # each component's constraints come first and unchanged, then its
        # rows, which merging never makes more of
        source = {c for group in strat.strata for c in group}
        at = 0
        for strata in rw._split(strat):
            cons = [c for group in strata for c in group]
            assert list(got[at:at + len(cons)]) == cons
            at += len(cons)
            heads = {c.head for c in cons}
            rows = list(itertools.takewhile(lambda c: c not in source, got[at:]))
            assert {c.head for c in rows} <= heads
            for head in heads:
                assert sum(c.head == head for c in rows) <= sum(
                    c.head == head and c not in source for c in want
                ), head
            at += len(rows)
        assert at == len(got)
        assert disagreeing_heads(st, strat, got, want) == []
        # the oracle keeps the vacuous unions the merge step never stores
        assert stats["quadruples"] == satisfiable


def test_each_stratum_masks_a_strict_subset_of_the_witness_rules(monkeypatch):
    # on the three-strata fixture each stratum guesses only the witness of
    # its own constraint: the @a first, then each existential
    close = rw._close
    masks = []

    def spy(rules, heads, K):
        masks.append([bool(h & heads) for h, _, _, _ in rules.witnesses])
        close(rules, heads, K)

    monkeypatch.setattr(rw, "_close", spy)
    rewrite(*normal_form(TWO_STRATUM_TBOX, STRATA_3_SHAPES))
    assert masks == [[True, False, False], [False, True, False], [False, False, True]]


@pytest.mark.parametrize(
    "shapes", [STRATA_3_SHAPES, SHARED_WITNESS_SHAPES], ids=["strata3", "shared_witness"]
)
def test_no_stratum_closes_what_a_later_stratum_heads(monkeypatch, shapes):
    # after each stratum is closed, K holds no positive literal of a later
    # stratum's head in H, and no witness in P whose constraints all head
    # later strata
    close = rw._close
    closed = []

    def spy(rules, heads, K):
        close(rules, heads, K)
        closed.append((rules, heads, dict(K)))

    monkeypatch.setattr(rw, "_close", spy)
    rewrite(*normal_form(TWO_STRATUM_TBOX, shapes))
    assert len(closed) > 1
    for n, (rules, _, K) in enumerate(closed):
        later = 0
        for other, other_heads, _ in closed[n + 1:]:
            if other is rules:
                later |= other_heads
        unguessed = sum(w for h, w, _, _ in rules.witnesses if not h & ~later)
        assert K and not [key for key, h in K.items() if h & later], n
        assert not [key for key in K if key[1] & unguessed], n


def test_the_order_of_the_witness_rules_does_not_change_k(monkeypatch):
    # the rules only add, so guessing the witnesses in the reverse order
    # saturates to the same K and emits the same C_T
    inputs = [(parse_tbox(HASHED_TBOX), parse_constraints(HASHED_SHAPES))]
    inputs += selftest_slice(0, 20)
    inputs += merged_slice(0, 235)

    def run():
        out = []
        for tbox, shapes in inputs:
            stats = {}
            c_t = rewrite(*normal_form(tbox, shapes), stats=stats)
            out.append(([str(c) for c in c_t], stats["quadruples"]))
        return out

    want = run()
    init = rw._Rules.__init__
    reordered = []

    def reversed_init(self, *args):
        init(self, *args)
        self.witnesses.reverse()
        kinds = {bool(w & self.codes.inds) for _, w, _, _ in self.witnesses}
        reordered.append(kinds == {True, False})

    monkeypatch.setattr(rw._Rules, "__init__", reversed_init)
    assert run() == want
    assert sum(reordered) == 10  # components that guess both @a and existential witnesses


def test_every_new_key_is_within_the_budget(monkeypatch):
    # one component with existential and constant bodies. Under any budget
    # below the saturated count the rewriting stops with K exactly full: in
    # the seed while the budget is below the seeded count, inside _close
    # from there on. So no rule or merge step stores a key past the budget.
    shapes = TWO_STRATUM_SHAPES + parse_constraints("$s <- @a\n")
    st, strat = normal_form(TWO_STRATUM_TBOX, shapes)
    stats = {}
    rewrite(st, strat, stats=stats)
    stages = []
    for budget in range(1, stats["quadruples"]):
        monkeypatch.setattr(rw, "MAX_QUADRUPLES", budget)
        with pytest.raises(rw.RewriteTooLarge) as info:
            rewrite(st, strat)
        where = [entry.name for entry in info.traceback]
        assert where[-1] == "_slot"
        assert len(info.traceback[-1].frame.f_locals["K"]) == budget
        stages.append("_close" if "_close" in where else "_seed_dict")
    seeded = stages.count("_seed_dict")
    assert stages == ["_seed_dict"] * seeded + ["_close"] * (len(stages) - seeded)
    assert len(stages) - seeded > 1


@pytest.mark.parametrize("seed", [2, 3])
def test_emitted_bodies_are_minimal(seed):
    # no body emitted for a head has all the conjuncts of another one
    for tbox, shapes in selftest_slice(seed, 20):
        st, strat = normal_form(tbox, shapes)
        given = {c for group in strat.strata for c in group}
        bodies = {}
        for c in rewrite(st, strat):
            if c not in given:
                bodies.setdefault(c.head, []).append(frozenset(conjuncts(c.body)))
        for head, found in bodies.items():
            for small in found:
                assert not any(small < other for other in found), (head, sorted(small))


def test_no_stored_quadruple_has_a_witness_in_both_p_and_q(monkeypatch):
    # only a union can put a witness in both P and Q; the merge step stores
    # no such union, so neither closing nor settling a stratum leaves one
    close, completion = rw._close, rw._completion_dict
    checked = []

    def satisfiable(K, stage):
        assert not [key for key in K if key[1] & key[2]], stage
        checked.append(len(K))

    def checked_close(*args):
        close(*args)
        satisfiable(args[-1], "_close")

    def checked_completion(*args):
        K = completion(*args)
        satisfiable(K, "_completion_dict")
        return K

    monkeypatch.setattr(rw, "_close", checked_close)
    monkeypatch.setattr(rw, "_completion_dict", checked_completion)
    hashed_kb().c_t  # C_T is built on first read
    for tbox, shapes in itertools.chain(selftest_slice(0, 20), merged_slice(4, 100)):
        rewrite(*normal_form(tbox, shapes))
    assert len(checked) > 40 and sum(checked) > 1000


# =============================================================================
# WHAT THE TBOX ADDS
# =============================================================================


def kb_cases(seed):
    """The prepared KBs of the first 20 selftest cases and the first 30
    merged cases of a seed, of defect 4 (``None``), or of the first 10
    merged cases of seed 4 (``"merged4"``), and their stratified normal
    forms. No component of the selftest cases alone has a live step on
    either seed."""
    if seed is None:
        cases = [(DEFECT_4_TBOX, DEFECT_4_DATA, ShapesGraph.of(DEFECT_4_SHAPES))]
    elif seed == "merged4":
        cases = [merged_case(4, i) for i in range(10)]
    else:
        cases = [gen_case(case_rng(seed, i)) for i in range(20)]
        cases += [merged_case(seed, i) for i in range(30)]
    for tbox, abox, sg in cases:
        kb = prepare(tbox, abox, sg, SAFE_DEPTH)
        try:
            kb.completed
        except InconsistentKB:
            continue
        yield kb, normal_form(tbox, sg.constraints)[1]


@pytest.mark.parametrize(
    "seed, needed",
    [(0, 1), (1, 0), (None, 1), ("merged4", 2)],
    ids=["seed0", "seed1", "defect4", "merged4"],
)
def test_dropping_derived_rows_keeps_every_verdict(seed, needed):
    # every shape at every individual, over the completed data, against
    # the oracle's C_T with the rows the constraints already derive.
    # ``needed`` counts the cases whose verdicts the source constraints
    # alone get wrong: only there can dropping a row the TBox adds show
    compared = wrong = 0
    for kb, strat in kb_cases(seed):
        full, _, _ = set_rewrite(kb.sat, strat, drop_derived=False)
        shapes = sorted({c.head for c in full})
        targets = [(s, x) for s in shapes for x in kb.completed.individuals()]
        want = validate(kb.completed, full, targets)
        assert validate(kb.completed, kb.c_t, targets) == want
        assert len(set(kb.c_t)) == len(kb.c_t)  # no constraint twice
        given = [c for group in strat.strata for c in group]
        wrong += validate(kb.completed, given, targets) != want
        compared += len(full) > len(kb.c_t)
    assert compared > 0
    assert wrong == needed


@pytest.mark.parametrize("seed", [0, 1, None, "merged4"], ids=["seed0", "seed1", "defect4", "merged4"])
def test_no_emitted_row_is_derived_by_the_constraints(seed):
    # a row's conjuncts name its type's concepts and its present bodies;
    # the constraints alone must not derive its head from them
    kept = 0
    for kb, strat in kb_cases(seed):
        given = [c for group in strat.strata for c in group]
        source = set(given)
        for c in kb.c_t:
            if c in source:
                continue
            parts = flatten(c.body)
            concepts = [x.name for x in parts if isinstance(x, ConceptRef)]
            assert Lit(c.head) not in derived_lits(given, concepts, parts), str(c)
            kept += 1
    assert kept > 0


@pytest.mark.parametrize("n, rows, quadruples", [(4, 3, 164), (6, 3, 1388)])
def test_the_existential_chain_emits_only_what_the_tbox_adds(n, rows, quadruples):
    # K{i+1} <= some r.K{i} for i below n. Past the two normal-form
    # constraints, the one row left is $s <- K2 & !(some [r].K1). With the
    # derived rows C_T had 83 and 731 constraints, and 20 and 164 with one
    # row per type and witness split, from as many quadruples
    chain = parse_tbox("".join(f"K{i + 1} <= some r.K{i}\n" for i in range(1, n)))
    st, strat = normal_form(chain, parse_constraints("$s <- some [r].K1\n"))
    stats = {}
    assert len(rewrite(st, strat, stats=stats)) == rows
    assert stats["quadruples"] == quadruples


def test_a_row_the_tbox_needs_is_kept():
    # $s(@a) rests on the anonymous r-child that A implies, which no
    # constraint reads: only a row over A can say so
    sg = ShapesGraph.of(parse_constraints("$t <- B\n$s <- some [r].$t\n"), [("s", "a"), ("s", "b")])
    kb = prepare(parse_tbox("A <= some r.B\n"), parse_abox("A(a)\nB(b)\nr(b,c)\n"), sg, SAFE_DEPTH)
    for mode in ("direct", "rewrite", "pure-alchi", "pure-shaclb"):
        assert ROUTES[mode].run(kb).verdicts == {("s", "a"): True, ("s", "b"): False}, mode
    assert any(c.head == "s" and "A" in conjuncts(c.body) for c in kb.c_t)


# =============================================================================
# THE SIGNATURE OF A COMPONENT
# =============================================================================

# each verdict rests on a concept name that no shape reads: the premise
# of an existential, a premise that a value restriction adds to one, and
# one that a counting axiom adds when it merges two. The last three rest
# on an existential that only the saturated TBox's roles let the step
# cross: over a super-role of the told one, over an inverse role, and
# over two roles that only the merge of two existentials carries together.
# $s(@a) is VALID
SIGNATURE_CASES = {
    "existential": ("X <= some r.B\n", "X(a)\n", "$s <- some [r].$t\n$t <- B\n"),
    "value": (
        "A <= some r.B\nY <= only r.C\n",
        "A(a)\nY(a)\n",
        "$s <- some [r].$c\n$c <- C\n",
    ),
    "counting": (
        "A <= some r.B\nA <= some r.C\nZ <= max1 r.top\n",
        "A(a)\nZ(a)\n",
        "$s <- some [r].$t\n$t <- $b & $c\n$b <- B\n$c <- C\n",
    ),
    "super_role": ("A <= some r.B\nr <= s\n", "A(a)\n", "$s <- some [s].$b\n$b <- B\n"),
    "inverse": ("A <= some ^r.B\n", "A(a)\n", "$s <- some [^r].$b\n$b <- B\n"),
    "two_roles": (
        "A <= some r.B\nA <= some q.C\nr <= p\nq <= p\nZ <= max1 p.top\n",
        "A(a)\nZ(a)\n",
        "$s <- some [r,q].$t\n$t <- $b & $c\n$b <- B\n$c <- C\n",
    ),
}


@pytest.mark.parametrize("case", sorted(SIGNATURE_CASES))
def test_the_signature_keeps_every_existential_premise(case):
    tbox, abox, shapes = SIGNATURE_CASES[case]
    sg = ShapesGraph.of(parse_constraints(shapes), [("s", "a")])
    kb = prepare(parse_tbox(tbox), parse_abox(abox), sg, depth=10)
    for mode, route in ROUTES.items():
        if route.small_only or (kb.sat.tbox.atmost and not route.counting):
            continue
        assert route.run(kb).verdicts == {("s", "a"): True}, mode


def test_a_component_without_a_role_step_names_only_its_own_concepts():
    # the TBox's names, the existential's premise D among them, cannot
    # change what $s and $t read. Neither takes a role step, so neither
    # component has a live step and neither is saturated: C_T is the
    # constraints, from no quadruple. Their signature is the names they
    # read, not the TBox's B, C, D and E
    tbox = parse_tbox("B & C <= D\nD <= some r.E\n")
    shapes = parse_constraints("$s <- @a\n$t <- A\n")
    stats = {}
    assert emitted(tbox, shapes, stats=stats) == tuple(shapes)
    assert stats["quadruples"] == 0
    st = SaturatedTBox(tbox)
    assert rw._live_steps(st, shapes) == frozenset()
    assert rw._signature(st, shapes, frozenset()) == {"A"}
    assert full_signature(st, shapes, frozenset()) == {"A", "B", "C", "D", "E"}


def merged_case(seed, index):
    """A selftest case drawn over two TBoxes and two ABoxes, merged: more
    existentials, with premises that no shape reads, than one draw gives."""
    rng = case_rng(seed, index)
    tboxes = [gen_tbox(rng) for _ in range(2)]
    aboxes = [gen_abox(rng) for _ in range(2)]
    tbox = TBox.of(ax for t in tboxes for ax in t.axioms())
    abox = ABox.of(
        [atom for a in aboxes for atom in a.concept_atoms],
        [(Role(name), x, y) for a in aboxes for name, x, y in a.role_atoms],
    )
    cons = gen_constraints(rng, abox)
    targets = [(s, x) for s in sorted({c.head for c in cons}) for x in abox.individuals()]
    return tbox, abox, ShapesGraph.of(cons, targets)


def merged_slice(seed, cases):
    """The TBox and the constraints of the first merged cases of a seed."""
    for i in range(cases):
        tbox, _, sg = merged_case(seed, i)
        yield tbox, sg.constraints


def test_the_signature_gives_the_verdicts_of_every_concept_name(monkeypatch):
    # against a reference that saturates every component over every
    # concept name and follows every existential, whether a live step
    # crosses it or not: its one step, over no role, crosses them all. A
    # signature of the shapes' own names answers differently on cases 3,
    # 6, 40 and 57
    def verdicts(kb):
        fresh = replace(kb, _c_t=None)
        return [ROUTES[mode].run(fresh).verdicts for mode in ("rewrite", "pure-shaclb")]

    compared = 0
    for i in range(60):
        kb = prepare(*merged_case(4, i), SAFE_DEPTH)
        try:
            got = verdicts(kb)
        except InconsistentKB:
            continue
        with monkeypatch.context() as m:
            m.setattr(rw, "_signature", full_signature)
            m.setattr(rw, "_live_steps", lambda st, cons: frozenset({frozenset()}))
            assert verdicts(kb) == got, i
        compared += 1
    assert compared == 55  # the other cases are inconsistent


# =============================================================================
# LIVE STEPS
# =============================================================================

# one input per rule of the fixpoint in ``rewrite._live_steps``, each with
# the verdicts of ``direct``: $w's step is live only through a chain of
# shape references, a step back to the parent, a negated reference, and a
# filler that the anonymous child has only from a value restriction. The
# last step is dead, as no anonymous node has D
LIVE_CASES = {
    "shape_chain": (
        "A <= some r.B\n",
        "A(a)\nA(b)\nr(b,c)\n",
        "$w <- some [r].$u\n$u <- $b\n$b <- B\n",
        {("w", "a"): True, ("w", "b"): True, ("w", "c"): False},
    ),
    "parent": (
        "A <= some r.B\n",
        "A(a)\nN(a)\nA(b)\n",
        "$w <- some [r].$u\n$u <- some [^r].$n\n$n <- N\n",
        {("w", "a"): True, ("w", "b"): False},
    ),
    "negation": (
        "A <= some r.B\n",
        "A(a)\nT(b)\nr(b,b)\n",
        "$w <- some [r].!$t\n$t <- T\n",
        {("w", "a"): True, ("w", "b"): False},
    ),
    "value": (
        "A <= some r.B\nA <= only r.C\n",
        "A(a)\nB(b)\n",
        "$w <- some [r].$c\n$c <- C\n",
        {("w", "a"): True, ("w", "b"): False},
    ),
    "dead": (
        "A <= some r.B\n",
        "A(a)\nA(b)\nr(b,c)\nD(c)\n",
        "$w <- some [r].$d\n$d <- D\n",
        {("w", "a"): False, ("w", "b"): True},
    ),
}


@pytest.mark.parametrize("case", sorted(LIVE_CASES))
def test_every_route_gives_the_verdicts_of_direct_over_live_steps(case):
    tbox, abox, shapes, want = LIVE_CASES[case]
    sg = ShapesGraph.of(parse_constraints(shapes), sorted(want))
    kb = prepare(parse_tbox(tbox), parse_abox(abox), sg, SAFE_DEPTH)
    for mode, route in ROUTES.items():
        if not route.small_only:
            assert route.run(kb).verdicts == want, mode
    st, strat = normal_form(parse_tbox(tbox), sg.constraints)
    given = tuple(c for group in strat.strata for c in group)
    if case == "dead":
        assert not rw._live_steps(st, given)
        assert kb.c_t == given and kb.stats["quadruples"] == 0
    else:
        assert rw._live_steps(st, given) and len(kb.c_t) > len(given)


# =============================================================================
# PURE ROUTES
# =============================================================================


def test_pure_alchi_agrees_on_the_chain_fixture():
    c_t = emitted(CHAIN_TBOX, CHAIN_SHAPES)
    plus = pure_rewrite_alchi(SaturatedTBox(CHAIN_TBOX), c_t)
    assert validate(CHAIN_DATA, plus, [("s", "a")]) == {("s", "a"): True}


def test_pure_alchi_refuses_counting_axioms():
    tb = TBox.of(
        [
            ExistsInclusion("A", Role("r"), "B"),
            AtMostOne("A", Role("r"), "top"),
        ]
    )
    with pytest.raises(UnsupportedPattern):
        pure_rewrite_alchi(SaturatedTBox(tb), [])


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

    completed = complete_abox(SaturatedTBox(tb), ab)
    assert ("B", "c") in completed.concept_atoms
    assert validate(completed, c_t, [("s", "a")]) == {("s", "a"): True}

    items = pure_rewrite_shaclb(SaturatedTBox(tb), c_t)
    unary, _ = perfect_assignment_b(ab, items)
    assert "a" in unary["s"]


def hashed_kb():
    """The hash-seed fixture of the CLI tests: its C_T has 96 constraints
    over a few shared role existentials."""
    sg = ShapesGraph.of(parse_constraints(HASHED_SHAPES))
    return prepare(parse_tbox(HASHED_TBOX), parse_abox(HASHED_ABOX), sg, SAFE_DEPTH)


def lines(items):
    return [str(x) for x in items]


def test_pure_rewritings_print_what_substitution_per_occurrence_prints():
    kbs = [hashed_kb()]
    for i in range(40):
        kb = prepare(*gen_case(case_rng(0, i)), SAFE_DEPTH)
        try:
            kb.completed
        except InconsistentKB:
            continue
        kbs.append(kb)
    alchi = 0
    for kb in kbs:
        c_t = kb.c_t
        assert lines(pure_rewrite_shaclb(kb.sat, c_t)) == lines(occurrence_pure_shaclb(kb.sat, c_t))
        if not kb.sat.tbox.atmost:
            assert lines(pure_rewrite_alchi(kb.sat, c_t)) == lines(occurrence_pure_alchi(kb.sat, c_t))
            alchi += 1
    assert (len(kbs), alchi) == (41, 23)  # the first is the hash-seed fixture


# an existential chain under a role inclusion: C_T has 91 constraints,
# whose bodies hold 307 role existentials over 3 role sets
REPEATED_TBOX = "K2 <= some r.K1\nK3 <= some r.K2\nK4 <= some r.K3\nK5 <= some r.K4\nr <= s\n"

REPEATED_SHAPES = "$s <- some [s].K1 | some [r].K3\n$t <- !(some [r].$s) & (K2 | K4)\n"


def test_pure_alchi_simplifies_each_distinct_role_set_once(monkeypatch):
    sg = ShapesGraph.of(parse_constraints(REPEATED_SHAPES))
    kb = prepare(parse_tbox(REPEATED_TBOX), parse_abox("K2(a)\nr(a,b)\n"), sg, SAFE_DEPTH)
    role_sets = []
    work = [c.body for c in kb.c_t]
    while work:
        node = work.pop()
        if isinstance(node, ExistsRoles):
            role_sets.append(node.roles)
        work += [getattr(node, f) for f in ("left", "right", "body") if hasattr(node, f)]
    assert len(role_sets) > 10 * len(set(role_sets))

    calls = 0

    def counted(*args, _fn=rw._simplify_roles):
        nonlocal calls
        calls += 1
        return _fn(*args)

    monkeypatch.setattr(rw, "_simplify_roles", counted)
    pure_rewrite_alchi(kb.sat, kb.c_t)
    # the sub-role choices are worked out once per role set
    assert calls == len(set(role_sets))


@pytest.mark.parametrize(
    "shapes",
    ["$s <- some [q].B\n$t <- !(some [q].C) | D\n", "$s <- some [q].B\n", "$t <- !(some [q].C) | D\n"],
)
def test_pure_routes_read_a_role_only_the_shapes_mention(shapes):
    # the TBox has r and s but not q, so the edges over q, and the choice
    # among q and its sub-roles, come from the shapes alone
    cons = parse_constraints(shapes)
    abox = parse_abox("q(a,b)\nB(b)\nq(c,d)\nC(d)\n")
    targets = [(h, x) for h in sorted({c.head for c in cons}) for x in sorted(abox.individuals())]
    kb = prepare(parse_tbox("A <= some r.B\nr <= s\n"), abox, ShapesGraph.of(cons, targets), SAFE_DEPTH)
    want = ROUTES["direct"].run(kb).verdicts
    expected = {("s", "a"): True, ("s", "c"): False, ("t", "a"): True, ("t", "c"): False}
    assert {k: v for k, v in want.items() if k in expected} == {
        k: v for k, v in expected.items() if k in want
    }
    for mode in ("pure-alchi", "pure-shaclb"):
        assert ROUTES[mode].run(kb).verdicts == want, mode
