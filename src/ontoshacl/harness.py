"""Randomized cross-checking of the validation pipelines.

Each case draws a small knowledge base and a stratified normal-form
constraint set, then demands that every route of ``cli.ROUTES`` returns
the same verdict for every (shape, individual) target: direct evaluation
over the full anonymous tree, the constraint rewriting over the
completed graph, the two pure rewritings over the raw graph, and on
small inputs the core chase.

Generated axioms only ever point to strictly lower concept indices
(conjunction heads, existential fillers, and value-restriction fillers
alike), so a node's maximal index drops along every parent-child step
and the anonymous part bottoms out within one letter per concept name.
That keeps the direct route total: it never has to truncate.
"""
from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from . import model
from .chase import NotTerminated, SizeGuardExceeded
from .cli import ROUTES, prepare
from .core import (
    TOP,
    ABox,
    AtMostOne,
    ConjInclusion,
    ExistsInclusion,
    Role,
    RoleInclusion,
    TBox,
    ValueRestriction,
)
from .evaluate import Verdicts
from .formats import (
    serialize_constraints,
    serialize_interpretation,
    serialize_targets,
    serialize_tbox,
)
from .model import InconsistentKB
from .shapes import (
    And,
    ConceptRef,
    Constraint,
    ExistsRoles,
    IndividualRef,
    NegShapeRef,
    ShapeRef,
    ShapesGraph,
)
from .values import replace, value

CONCEPTS = ("C0", "C1", "C2", "C3", "C4")
ROLES = ("p", "q", "r")
INDIVIDUALS = ("a", "b", "c", "d", "e", "f")
# a generated shapes graph uses at most this many shape names
MAX_SHAPES = 6

# depth that provably exhausts any generated tree: one letter per concept
SAFE_DEPTH = len(CONCEPTS) + 2


def _role(rng: random.Random, names: Sequence[str] = ROLES) -> Role:
    return Role(rng.choice(names), rng.random() < 0.25)


def gen_tbox(rng: random.Random, allow_atmost: bool = True) -> TBox:
    axioms: List = []
    kinds = ["conj", "conj", "exists", "exists", "forall", "role"]
    if allow_atmost:
        kinds.append("atmost")
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(kinds)
        if kind == "conj":
            rhs_i = rng.randint(0, len(CONCEPTS) - 2)
            pool = CONCEPTS[rhs_i + 1 :]
            lhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            axioms.append(ConjInclusion(frozenset(lhs), CONCEPTS[rhs_i]))
        elif kind == "exists":
            lhs_i = rng.randint(1, len(CONCEPTS) - 1)
            filler = rng.choice(CONCEPTS[:lhs_i] + (TOP,))
            axioms.append(ExistsInclusion(CONCEPTS[lhs_i], _role(rng), filler))
        elif kind == "forall":
            lhs_i = rng.randint(1, len(CONCEPTS) - 1)
            filler = rng.choice(CONCEPTS[:lhs_i])
            axioms.append(ValueRestriction(CONCEPTS[lhs_i], _role(rng), filler))
        elif kind == "atmost":
            lhs = rng.choice(CONCEPTS)
            filler = rng.choice(CONCEPTS + (TOP,))
            axioms.append(AtMostOne(lhs, _role(rng), filler))
        else:
            # lower to higher index: never a role cycle (tests/test_harness.py adds them)
            i, j = sorted(rng.sample(range(len(ROLES)), 2))
            sub = Role(ROLES[i], rng.random() < 0.25)
            sup = Role(ROLES[j], rng.random() < 0.25)
            axioms.append(RoleInclusion(sub, sup))
    return TBox.of(axioms)


def gen_abox(rng: random.Random) -> ABox:
    inds = INDIVIDUALS[: rng.randint(1, len(INDIVIDUALS))]
    concepts = {
        (rng.choice(CONCEPTS), rng.choice(inds)) for _ in range(rng.randint(1, 5))
    }
    roles = {
        (Role(rng.choice(ROLES)), rng.choice(inds), rng.choice(inds))
        for _ in range(rng.randint(0, 5))
    }
    return ABox.of(concepts, roles)


def gen_constraints(rng: random.Random, abox: ABox) -> Tuple[Constraint, ...]:
    """Normal-form bodies only; negative references go to strictly lower
    strata so the result is stratified by construction."""
    names = [f"s{i}" for i in range(rng.randint(1, MAX_SHAPES))]
    stratum = {n: rng.randint(0, 1) for n in names}
    inds = abox.individuals() or ("a",)

    def body(head: str):
        low = [n for n in names if stratum[n] < stratum[head]]
        level = [n for n in names if stratum[n] <= stratum[head]]
        while True:
            pick = rng.randint(0, 5)
            if pick == 0:
                return ConceptRef(rng.choice(CONCEPTS + (TOP,)))
            if pick == 1:
                return IndividualRef(rng.choice(inds))
            if pick == 2:
                return ShapeRef(rng.choice(level))
            if pick == 3 and low:
                return NegShapeRef(rng.choice(low))
            if pick == 4:
                return And(ShapeRef(rng.choice(level)), ShapeRef(rng.choice(level)))
            if pick == 5:
                roles = frozenset(
                    _role(rng) for _ in range(rng.randint(1, 2))
                )
                if low and rng.random() < 0.4:
                    return ExistsRoles(roles, NegShapeRef(rng.choice(low)))
                return ExistsRoles(roles, ShapeRef(rng.choice(level)))

    cons: List[Constraint] = []
    for head in names:
        for _ in range(rng.randint(1, 2)):
            cons.append(Constraint(head, body(head)))
    return tuple(cons[:12])


def gen_case(
    rng: random.Random, allow_atmost: bool = True
) -> Tuple[TBox, ABox, ShapesGraph]:
    tbox = gen_tbox(rng, allow_atmost)
    abox = gen_abox(rng)
    cons = gen_constraints(rng, abox)
    shapes = sorted({c.head for c in cons})
    targets = [(s, i) for s in shapes for i in abox.individuals()]
    return tbox, abox, ShapesGraph.of(cons, targets)


# ---------------------------------------------------------------------------
# route comparison

# round budget of the chase cross-check
CHASE_ROUNDS = 12


def compare_routes(
    tbox: TBox,
    abox: ABox,
    sg: ShapesGraph,
    include_chase: bool = False,
) -> Optional[str]:
    """None when every route agrees with ``direct`` on every target, else a
    description. Routes that refuse the TBox are skipped, and the chase
    runs only on small consistent inputs and only when asked.

    Every route must refuse an inconsistent KB as ``direct`` does, with
    the same reason, and answer a consistent one: the pure routes decide
    consistency without completing the data. When every route refuses,
    the InconsistentKB is raised; callers filter those.
    """
    kb = prepare(tbox, abox, sg, SAFE_DEPTH)
    try:
        direct = ROUTES["direct"].run(kb)
    except InconsistentKB as exc:
        direct, refused = None, str(exc)
    else:
        refused = None
        if not direct.interp.complete:
            return f"canonical model still open at depth {SAFE_DEPTH}"
        if not model.is_model(tbox, abox, direct.interp):
            return "direct model fails an axiom or assertion"
        small = len(abox.individuals()) <= 3 and len(direct.interp.nodes) <= 8

    for mode, route in ROUTES.items():
        if mode == "direct" or (tbox.atmost and not route.counting):
            continue
        if route.small_only and (direct is None or not (include_chase and small)):
            continue
        routed = replace(kb, depth=CHASE_ROUNDS) if route.small_only else kb
        try:
            verdicts = route.run(routed).verdicts
        except (NotTerminated, SizeGuardExceeded):  # the chase's budgets
            continue
        except InconsistentKB as exc:
            if str(exc) != refused:
                said = f"refuses ({refused})" if refused else "answers"
                return f"direct {said}, {mode} refuses ({exc})"
            continue
        if direct is None:
            return f"direct refuses ({refused}), {mode} answers"
        if verdicts != direct.verdicts:
            return _diff("direct", direct.verdicts, mode, verdicts)
    if refused is not None:
        raise InconsistentKB(refused)
    return None


def _diff(name_a: str, a: Verdicts, name_b: str, b: Verdicts) -> str:
    lines = [f"{name_a} vs {name_b} disagree:"]
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            s, i = key
            lines.append(f"  ${s}(@{i}): {name_a}={va} {name_b}={vb}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shrinking


def _still_fails(tbox: TBox, abox: ABox, sg: ShapesGraph) -> bool:
    try:
        return compare_routes(tbox, abox, sg) is not None
    except InconsistentKB:
        return False
    except Exception:
        # a crash is as good a repro as a disagreement
        return True


def _roles(atoms) -> List[Tuple[Role, str, str]]:
    return [(Role(r), a, b) for r, a, b in atoms]


def shrink(
    tbox: TBox, abox: ABox, sg: ShapesGraph, budget: int = 400
) -> Tuple[TBox, ABox, ShapesGraph]:
    """Greedy one-at-a-time removal of axioms, atoms, constraints, targets.

    A smaller ABox is built by ``ABox.of``, so an individual whose last
    atom goes is gone too, as it is from the printed repro.
    """

    spent = 0
    changed = True
    while changed and spent < budget:
        changed = False
        for ax in tbox.axioms():
            cand = TBox.of([a for a in tbox.axioms() if a != ax])
            spent += 1
            if _still_fails(cand, abox, sg):
                tbox, changed = cand, True
        for atom in sorted(abox.concept_atoms):
            cand_a = ABox.of(abox.concept_atoms - {atom}, _roles(abox.role_atoms))
            spent += 1
            if _still_fails(tbox, cand_a, sg):
                abox, changed = cand_a, True
        for ratom in sorted(abox.role_atoms):
            cand_a = ABox.of(abox.concept_atoms, _roles(abox.role_atoms - {ratom}))
            spent += 1
            if _still_fails(tbox, cand_a, sg):
                abox, changed = cand_a, True
        for c in sg.constraints:
            cand_s = ShapesGraph.of(
                [x for x in sg.constraints if x != c], sg.targets
            )
            spent += 1
            if _still_fails(tbox, abox, cand_s):
                sg, changed = cand_s, True
        for t in sg.targets:
            cand_s = ShapesGraph.of(sg.constraints, [x for x in sg.targets if x != t])
            spent += 1
            if _still_fails(tbox, abox, cand_s):
                sg, changed = cand_s, True
    return tbox, abox, sg


def render_bundle(tbox: TBox, abox: ABox, sg: ShapesGraph) -> str:
    return (
        "-- tbox --\n"
        + serialize_tbox(tbox)
        + "-- abox --\n"
        + serialize_interpretation(abox)
        + "-- shapes --\n"
        + serialize_constraints(sg.constraints)
        + "-- targets --\n"
        + serialize_targets(sg.targets)
    )


# ---------------------------------------------------------------------------
# driver


@value
class SelftestReport:
    seed: int
    requested: int
    ran: int
    skipped: int
    failing_case: Optional[int] = None
    failure: Optional[str] = None
    bundle: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def render(self) -> str:
        lines = [
            f"selftest seed={self.seed} cases={self.requested}",
            f"ran={self.ran} skipped={self.skipped}",
        ]
        if self.passed:
            lines.append("result: PASS")
            return "\n".join(lines) + "\n"
        lines.append(f"result: FAIL at case {self.failing_case}")
        lines.append(self.failure or "")
        if self.bundle:
            lines.append("minimized repro:")
            lines.append(self.bundle.rstrip("\n"))
        return "\n".join(lines) + "\n"


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def run_selftest(seed: int, cases: int, inject_bug: bool = False) -> SelftestReport:
    previous = model.INJECT_SUCC_FILTER_BUG
    model.INJECT_SUCC_FILTER_BUG = inject_bug
    ran = skipped = 0
    try:
        for i in range(cases):
            rng = case_rng(seed, i)
            tbox, abox, sg = gen_case(rng)
            try:
                failure = compare_routes(tbox, abox, sg, include_chase=(i % 10 == 0))
            except InconsistentKB:
                skipped += 1
                continue
            ran += 1
            if failure is not None:
                tbox, abox, sg = shrink(tbox, abox, sg)
                return SelftestReport(
                    seed,
                    cases,
                    ran,
                    skipped,
                    failing_case=i,
                    failure=failure,
                    bundle=render_bundle(tbox, abox, sg),
                )
    finally:
        model.INJECT_SUCC_FILTER_BUG = previous
    return SelftestReport(seed, cases, ran, skipped)
