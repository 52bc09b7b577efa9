"""Fixpoint evaluation of shape constraints over finite interpretations.

One engine, ``_fixpoint``, serves unary and binary (SHACL^b) shapes
alike. It computes the perfect assignment stratum by stratum, in the
strata of ``shapes.compute_stratification``: each stratum is a least
fixpoint that grows unary and binary atoms jointly, seeded with the
finished lower strata and reading negation as failure against them. The
perfect assignment does not depend on the order of the constraints, so
they are evaluated in the order given. ``validate`` returns the verdict
of each target, read off the unary table; ``perfect_assignment_b``
returns the unary and binary tables.

Evaluation reads the interpretation's index (``core.GraphIndex``) and never
scans all node pairs. The fixpoint keeps its atoms as tables from shape
name to nodes or node pairs, so a shape reference is one lookup. A concept
is its extension; ``some [r1,...,rk].B`` walks back from each node of B
along the inverse adjacency of every ri and intersects, so it costs
O(edges) rather than O(nodes x |B|). One walk over the product of the data
and the ε-free path automaton serves both path readers: ``some <path>.B``
walks it backwards from B's nodes in the final states, and ``eq``/``disj``
forwards from the guard in the initial state. A role step reads the role's
adjacency. Semi-naive rounds are not used: each round re-evaluates every
item of its stratum.
"""
from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .core import Interpretation, Node, Role
from .paths import NFA, Regex, regex_to_nfa
from .shapes import (
    And,
    BinConstraint,
    BinRef,
    ConceptRef,
    Constraint,
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
    Test,
    UnguardedComparison,
    compute_stratification,
    has_negation,
)

Pair = Tuple[Node, Node]
# shape name -> nodes, and edge-shape name -> node pairs
Tables = Tuple[Dict[str, Set[Node]], Dict[str, Set[Pair]]]
# (shape, individual) -> verdict; None where a truncated model cannot tell
Verdicts = Dict[Tuple[str, str], Optional[bool]]
# path automata compiled during one evaluation, dropped when it returns
NFAs = Dict[Regex, NFA]

_EMPTY: FrozenSet = frozenset()


class TruncationRefused(RuntimeError):
    """Negation over a cut-off model approximation is unreliable."""


def _nfa(nfas: NFAs, path: Regex) -> NFA:
    if path not in nfas:
        nfas[path] = regex_to_nfa(path)
    return nfas[path]


def _walk(
    interp: Interpretation, nfa: NFA, seeds: Iterable[Tuple[Node, int]], backward: bool
) -> Set[Tuple[Node, int]]:
    """The (node, state) pairs of the data x automaton product reachable
    from seeds along the transitions, or against them when backward."""
    steps: Dict[int, List[Tuple[Role, int]]] = {}
    for a, r, b in nfa.transitions:
        if backward:
            steps.setdefault(b, []).append((r.invert(), a))
        else:
            steps.setdefault(a, []).append((r, b))
    seen = set(seeds)
    work = list(seen)
    while work:
        n, q = work.pop()
        for r, q2 in steps.get(q, ()):
            for m in interp.adjacency(r).get(n, ()):
                if (m, q2) not in seen:
                    seen.add((m, q2))
                    work.append((m, q2))
    return seen


def _path_reach(interp: Interpretation, start: Node, nfa: NFA) -> FrozenSet[Node]:
    """Nodes reachable from start along words of the path language."""
    seen = _walk(interp, nfa, [(start, nfa.initial)], backward=False)
    return frozenset(n for n, q in seen if q in nfa.finals)


def _path_sources(interp: Interpretation, nfa: NFA, targets: AbstractSet[Node]) -> Set[Node]:
    """Nodes from which some word of the path language reaches a target."""
    seeds = [(t, f) for t in targets for f in nfa.finals]
    return {n for n, q in _walk(interp, nfa, seeds, backward=True) if q == nfa.initial}


# ---------------------------------------------------------------------------
# expression evaluation


class _Evaluator:
    """Shape bodies and path expressions over one interpretation, reading
    the shape atoms from ``unary`` and ``binary`` (shape name to nodes or
    node pairs). A result may be a set of those tables or of the
    interpretation's index itself, so callers must not mutate it."""

    def __init__(
        self,
        interp: Interpretation,
        unary: Dict[str, Set[Node]],
        binary: Dict[str, Set[Pair]],
        nfas: NFAs,
    ) -> None:
        self.interp = interp
        self.unary = unary
        self.binary = binary
        self.nfas = nfas

    def body(self, body: ShapeBody) -> AbstractSet[Node]:
        interp = self.interp
        if isinstance(body, IndividualRef):
            return {body.name} if body.name in interp.nodes else _EMPTY
        if isinstance(body, ShapeRef):
            return self.unary.get(body.name, _EMPTY)
        if isinstance(body, NegShapeRef):
            return interp.nodes - self.unary.get(body.name, _EMPTY)
        if isinstance(body, ConceptRef):
            return interp.extension(body.name)
        if isinstance(body, Or):
            return self.body(body.left) | self.body(body.right)
        if isinstance(body, And):
            return self.body(body.left) & self.body(body.right)
        if isinstance(body, Not):
            return interp.nodes - self.body(body.body)
        if isinstance(body, ExistsRoles):
            return self._exists_roles(body)
        if isinstance(body, ExistsPath):
            return _path_sources(interp, _nfa(self.nfas, body.path), self.body(body.body))
        if isinstance(body, (GuardedEq, GuardedDisj)):
            if body.guard is None:
                raise UnguardedComparison(
                    "eq/disj must be guarded by an individual: without the guard, "
                    "nodes reached over the two paths cannot be told apart"
                )
            node = body.guard
            if node not in interp.nodes:
                return _EMPTY
            left = _path_reach(interp, node, _nfa(self.nfas, body.left))
            right = _path_reach(interp, node, _nfa(self.nfas, body.right))
            if isinstance(body, GuardedEq):
                ok = left == right
            else:
                ok = not (left & right)
            return {node} if ok else _EMPTY
        if isinstance(body, ExistsVia):
            pairs = self.path(body.path)
            targets = self.body(body.body)
            return {e for e, e2 in pairs if e2 in targets}
        raise TypeError(f"unknown body {body!r}")

    def _exists_roles(self, body: ExistsRoles) -> AbstractSet[Node]:
        # walk back from each target along every role and keep the nodes
        # that reach that one target over all of them
        targets = self.body(body.body)
        first, *rest = [self.interp.adjacency(r.invert()) for r in body.roles]
        out: Set[Node] = set()
        for t in targets:
            preds = first.get(t, _EMPTY)
            for back in rest:
                if not preds:
                    break
                preds = preds & back.get(t, _EMPTY)
            out |= preds
        return out

    def path(self, p: PathExpr) -> AbstractSet[Pair]:
        if isinstance(p, RoleStep):
            return {(x, y) for x, ys in self.interp.adjacency(p.role).items() for y in ys}
        if isinstance(p, BinRef):
            return self.binary.get(p.name, _EMPTY)
        if isinstance(p, Test):
            return {(n, n) for n in self.unary.get(p.shape, _EMPTY)}
        if isinstance(p, PUnion):
            return self.path(p.left) | self.path(p.right)
        if isinstance(p, PInter):
            return self.path(p.left) & self.path(p.right)
        if isinstance(p, PDiff):
            return self.path(p.left) - self.path(p.right)
        if isinstance(p, PConcat):
            by_mid: Dict[Node, Set[Node]] = {}
            for x, y in self.path(p.left):
                by_mid.setdefault(y, set()).add(x)
            return {(x, z) for y, z in self.path(p.right) for x in by_mid.get(y, ())}
        if isinstance(p, PInverse):
            return {(y, x) for x, y in self.path(p.inner)}
        if isinstance(p, PStar):
            succ: Dict[Node, Set[Node]] = {}
            for x, y in self.path(p.inner):
                succ.setdefault(x, set()).add(y)
            out: Set[Pair] = set()
            for n in self.interp.nodes | succ.keys():
                seen = {n}
                work = [n]
                while work:
                    for y in succ.get(work.pop(), ()):
                        if y not in seen:
                            seen.add(y)
                            work.append(y)
                out.update((n, y) for y in seen)
            return out
        raise TypeError(f"unknown path {p!r}")


# ---------------------------------------------------------------------------
# the fixpoint engine


def _fixpoint(interp: Interpretation, strata: Sequence[Sequence[Item]]) -> Tables:
    """Unary and binary atoms of the perfect assignment, stratum by stratum.

    Within a stratum every round evaluates each item and adds its atoms at
    once, until a round adds nothing. Items read their own stratum only
    positively, so the order of the additions does not change the result.
    """
    ev = _Evaluator(interp, {}, {}, {})
    for group in strata:
        grew = True
        while grew:
            grew = False
            for it in group:
                if isinstance(it, BinConstraint):
                    new, table = ev.path(it.body), ev.binary
                else:
                    new, table = ev.body(it.body), ev.unary
                have = table.setdefault(it.head, set())
                size = len(have)
                have |= new
                grew = grew or len(have) > size
    return ev.unary, ev.binary


def validate(
    interp: Interpretation,
    constraints: Sequence[Constraint],
    targets: Iterable[Tuple[str, str]],
) -> Verdicts:
    """Per-target verdicts from the perfect assignment. Over a truncated
    model only a target that holds is definitive; one that fails is None."""
    strat = compute_stratification(constraints)
    if not interp.complete and any(has_negation(c.body) for c in constraints):
        raise TruncationRefused(
            "constraints use negation but the model is a truncated "
            "approximation; negative facts at the frontier are unreliable"
        )
    unary, _ = _fixpoint(interp, strat.strata)
    failed = False if interp.complete else None
    return {(shape, ind): ind in unary.get(shape, _EMPTY) or failed for shape, ind in targets}


def perfect_assignment_b(interp: Interpretation, constraints: Sequence[Item]) -> Tables:
    """The unary and binary tables of a SHACL^b constraint set's perfect
    assignment."""
    return _fixpoint(interp, compute_stratification(constraints).strata)
