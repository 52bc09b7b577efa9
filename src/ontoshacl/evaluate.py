"""Fixpoint evaluation of shape constraints over finite interpretations.

One engine serves unary and binary (SHACL^b) shapes alike. It computes
the perfect assignment stratum by stratum, in the strata of
``shapes.compute_stratification``: each stratum is a least fixpoint that
grows unary and binary atoms jointly, seeded with the finished lower
strata and reading negation as failure against them. ``validate`` reads
per-target verdicts off the unary atoms; ``perfect_assignment_b`` returns
both kinds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from .core import TOP, Individual, Interpretation, Node
from .paths import NFA, Regex, regex_to_nfa
from .shapes import (
    And,
    BinConstraint,
    BinRef,
    ConceptRef,
    ExistsPath,
    ExistsRoles,
    ExistsVia,
    GuardedDisj,
    GuardedEq,
    IndividualRef,
    Item,
    NegShapeRef,
    Not,
    Or,
    PathExpr,
    PConcat,
    PDiff,
    PInter,
    PInverse,
    PStar,
    PUnion,
    RoleStep,
    ShapeBody,
    ShapeRef,
    ShapesGraph,
    Stratification,
    Test,
    UnguardedComparison,
    compute_stratification,
    has_negation,
)

Assignment = FrozenSet[Tuple[str, Node]]
BinAssignment = FrozenSet[Tuple[str, Node, Node]]
# path automata compiled during one evaluation, dropped when it returns
NFAs = Dict[Regex, NFA]


class TruncationRefused(RuntimeError):
    """Negation over a cut-off model approximation is unreliable."""


def _nfa(nfas: NFAs, path: Regex) -> NFA:
    if path not in nfas:
        nfas[path] = regex_to_nfa(path)
    return nfas[path]


def _path_reach(interp: Interpretation, start: Node, nfa: NFA) -> FrozenSet[Node]:
    """Nodes reachable from start along words of the path language."""
    seen: Set[Tuple[Node, int]] = {(start, q) for q in nfa.eps_closure({nfa.initial})}
    work = list(seen)
    while work:
        n, q = work.pop()
        for a, r, b in nfa.transitions:
            if a != q:
                continue
            for m in interp.successors(n, r):
                for q2 in nfa.eps_closure({b}):
                    if (m, q2) not in seen:
                        seen.add((m, q2))
                        work.append((m, q2))
    return frozenset(n for n, q in seen if q == nfa.final)


# ---------------------------------------------------------------------------
# expression evaluation


def eval_body(
    body: ShapeBody,
    interp: Interpretation,
    assign: Assignment,
    bin_assign: BinAssignment = frozenset(),
    nfas: Optional[NFAs] = None,
) -> FrozenSet[Node]:
    nfas = {} if nfas is None else nfas

    def sub(b: ShapeBody) -> FrozenSet[Node]:
        return eval_body(b, interp, assign, bin_assign, nfas)

    domain = frozenset(interp.nodes)
    if isinstance(body, IndividualRef):
        node = Individual(body.name)
        return frozenset({node}) if node in domain else frozenset()
    if isinstance(body, ShapeRef):
        return frozenset(n for s, n in assign if s == body.name)
    if isinstance(body, NegShapeRef):
        has = {n for s, n in assign if s == body.name}
        return frozenset(domain - has)
    if isinstance(body, ConceptRef):
        if body.name == TOP:
            return domain
        return frozenset(n for c, n in interp.concepts if c == body.name)
    if isinstance(body, Or):
        return sub(body.left) | sub(body.right)
    if isinstance(body, And):
        return sub(body.left) & sub(body.right)
    if isinstance(body, Not):
        return frozenset(domain - sub(body.body))
    if isinstance(body, ExistsRoles):
        targets = sub(body.body)
        out = set()
        for e in domain:
            for e2 in targets:
                if all(interp.has_edge(r, e, e2) for r in body.roles):
                    out.add(e)
                    break
        return frozenset(out)
    if isinstance(body, ExistsPath):
        targets = sub(body.body)
        nfa = _nfa(nfas, body.path)
        return frozenset(e for e in domain if _path_reach(interp, e, nfa) & targets)
    if isinstance(body, (GuardedEq, GuardedDisj)):
        if body.guard is None:
            raise UnguardedComparison(
                "eq/disj must be guarded by an individual: without the guard, "
                "nodes reached over the two paths cannot be told apart"
            )
        node = Individual(body.guard)
        if node not in domain:
            return frozenset()
        left = _path_reach(interp, node, _nfa(nfas, body.left))
        right = _path_reach(interp, node, _nfa(nfas, body.right))
        if isinstance(body, GuardedEq):
            ok = left == right
        else:
            ok = not (left & right)
        return frozenset({node}) if ok else frozenset()
    if isinstance(body, ExistsVia):
        pairs = eval_path(body.path, interp, assign, bin_assign)
        targets = sub(body.body)
        return frozenset(e for e, e2 in pairs if e2 in targets)
    raise TypeError(f"unknown body {body!r}")


def eval_path(
    p: PathExpr,
    interp: Interpretation,
    assign: Assignment,
    bin_assign: BinAssignment,
) -> FrozenSet[Tuple[Node, Node]]:
    if isinstance(p, RoleStep):
        out = set()
        for name, a, b in interp.edges:
            if name != p.role.name:
                continue
            out.add((b, a) if p.role.inverted else (a, b))
        return frozenset(out)
    if isinstance(p, BinRef):
        return frozenset((x, y) for b, x, y in bin_assign if b == p.name)
    if isinstance(p, Test):
        return frozenset((n, n) for s, n in assign if s == p.shape)
    if isinstance(p, PUnion):
        return eval_path(p.left, interp, assign, bin_assign) | eval_path(
            p.right, interp, assign, bin_assign
        )
    if isinstance(p, PInter):
        return eval_path(p.left, interp, assign, bin_assign) & eval_path(
            p.right, interp, assign, bin_assign
        )
    if isinstance(p, PDiff):
        return eval_path(p.left, interp, assign, bin_assign) - eval_path(
            p.right, interp, assign, bin_assign
        )
    if isinstance(p, PConcat):
        left = eval_path(p.left, interp, assign, bin_assign)
        right = eval_path(p.right, interp, assign, bin_assign)
        by_mid: Dict[Node, Set[Node]] = {}
        for x, y in left:
            by_mid.setdefault(y, set()).add(x)
        out = set()
        for y, z in right:
            for x in by_mid.get(y, ()):
                out.add((x, z))
        return frozenset(out)
    if isinstance(p, PInverse):
        return frozenset((y, x) for x, y in eval_path(p.inner, interp, assign, bin_assign))
    if isinstance(p, PStar):
        base = eval_path(p.inner, interp, assign, bin_assign)
        closure: Set[Tuple[Node, Node]] = {(n, n) for n in interp.nodes}
        closure |= base
        changed = True
        while changed:
            changed = False
            adj: Dict[Node, Set[Node]] = {}
            for x, y in closure:
                adj.setdefault(x, set()).add(y)
            add = set()
            for x, y in closure:
                for z in adj.get(y, ()):
                    if (x, z) not in closure:
                        add.add((x, z))
            if add:
                closure |= add
                changed = True
        return frozenset(closure)
    raise TypeError(f"unknown path {p!r}")


# ---------------------------------------------------------------------------
# the fixpoint engine


def _fixpoint(
    interp: Interpretation, strata: Sequence[Sequence[Item]]
) -> Tuple[Assignment, BinAssignment]:
    """Unary and binary atoms of the perfect assignment, stratum by stratum.

    Within a stratum every round evaluates each item against the atoms of
    the round before, until a round adds nothing.
    """
    unary: Set[Tuple[str, Node]] = set()
    binary: Set[Tuple[str, Node, Node]] = set()
    nfas: NFAs = {}
    for group in strata:
        while True:
            before = (len(unary), len(binary))
            fu, fb = frozenset(unary), frozenset(binary)
            for it in group:
                if isinstance(it, BinConstraint):
                    binary.update((it.head, x, y) for x, y in eval_path(it.body, interp, fu, fb))
                else:
                    unary.update((it.head, n) for n in eval_body(it.body, interp, fu, fb, nfas))
            if (len(unary), len(binary)) == before:
                break
    return frozenset(unary), frozenset(binary)


def perfect_assignment(interp: Interpretation, strat: Stratification) -> Assignment:
    return _fixpoint(interp, strat.strata)[0]


@dataclass(frozen=True)
class TargetResult:
    shape: str
    node: str
    valid: bool


@dataclass(frozen=True)
class ValidationResult:
    targets: Tuple[TargetResult, ...]
    valid: bool
    lower_bound: bool  # evaluated over a truncated model, positive-only
    undefined_shapes: Tuple[str, ...]


def validate(interp: Interpretation, sg: ShapesGraph) -> ValidationResult:
    """Per-target verdicts from the perfect assignment."""
    strat = compute_stratification(sg.constraints)
    negation = any(has_negation(c.body) for c in sg.constraints)
    if not interp.complete and negation:
        raise TruncationRefused(
            "constraints use negation but the model is a truncated "
            "approximation; negative facts at the frontier are unreliable"
        )
    pa = perfect_assignment(interp, strat)
    named = {n.name: n for n in interp.named()}
    defined = {c.head for c in sg.constraints}
    results = []
    undefined = []
    for shape, ind in sg.targets:
        if shape not in defined:
            undefined.append(shape)
        node = named.get(ind)
        results.append(
            TargetResult(shape, ind, node is not None and (shape, node) in pa)
        )
    return ValidationResult(
        tuple(results),
        all(r.valid for r in results),
        not interp.complete,
        tuple(sorted(set(undefined))),
    )


@dataclass(frozen=True)
class ShapeAssignmentB:
    unary: Assignment
    binary: BinAssignment


def perfect_assignment_b(
    interp: Interpretation, constraints: Sequence[Item]
) -> ShapeAssignmentB:
    """Joint unary/binary perfect assignment of a SHACL^b constraint set."""
    return ShapeAssignmentB(*_fixpoint(interp, compute_stratification(constraints).strata))
