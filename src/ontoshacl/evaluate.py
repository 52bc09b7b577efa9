"""Fixpoint evaluation of shape constraints over finite interpretations.

One engine, ``_fixpoint``, serves unary and binary (SHACL^b) shapes
alike. It computes the perfect assignment one strongly connected
component of the dependency graph at a time, in the topological order
that ``shapes.compute_stratification`` gives: each component reads only
the finished components before it, negation included, and itself only
positively. A component that reads none of its own heads is evaluated in
one round; a recursive one is a least fixpoint that grows its unary and
binary atoms jointly, round after round, until a round adds nothing. The
perfect assignment does not depend on the order of the constraints, so
each component's constraints are evaluated in the order given.
``validate`` returns the verdict of each target, read off the unary
table; ``perfect_assignment_b`` returns the unary and binary tables.

Evaluation reads the interpretation's index (``core.GraphIndex``) and never
scans all node pairs. The fixpoint keeps its atoms as tables from shape
name to nodes or node pairs, so a shape reference is one lookup. A concept
is its extension; ``some [r1,...,rk].B`` walks back from each node of B
along the inverse adjacency of every ri and intersects, so it costs
O(edges) rather than O(nodes x |B|). One walk over the product of the data
and the ε-free path automaton serves both path readers: ``some <path>.B``
walks it backwards from B's nodes in the final states, and ``eq``/``disj``
forwards from the guard in the initial state. A role step reads the role's
adjacency. A node's case is found by its type in one table. Semi-naive
rounds are not used: each round of a recursive component re-evaluates
every item of that component.

A body is evaluated wherever it occurs, even one that many constraints
read, as in the rewriting C_T: a table of values probed by body hashes
the whole body, which cost more than evaluating it again.
"""
from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union
)

from .core import Interpretation, Node, Role
from .paths import NFA, regex_to_nfa
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
    PInter,
    PInverse,
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

_EMPTY: FrozenSet = frozenset()


class TruncationRefused(RuntimeError):
    """Negation over a cut-off model approximation is unreliable."""


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
    interpretation's index itself, so callers must not mutate it.
    """

    def __init__(
        self,
        interp: Interpretation,
        unary: Dict[str, Set[Node]],
        binary: Dict[str, Set[Pair]],
    ) -> None:
        self.interp = interp
        self.unary = unary
        self.binary = binary

    def body(self, body: ShapeBody) -> AbstractSet[Node]:
        case = self._BODIES.get(type(body))
        if case is None:
            raise TypeError(f"unknown body {body!r}")
        return case(self, body)

    def path(self, p: PathExpr) -> AbstractSet[Pair]:
        case = self._PATHS.get(type(p))
        if case is None:
            raise TypeError(f"unknown path {p!r}")
        return case(self, p)

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

    def _comparison(self, body: Union[GuardedEq, GuardedDisj]) -> AbstractSet[Node]:
        if body.guard is None:
            raise UnguardedComparison()
        node = body.guard
        if node not in self.interp.nodes:
            return _EMPTY
        left = _path_reach(self.interp, node, regex_to_nfa(body.left))
        right = _path_reach(self.interp, node, regex_to_nfa(body.right))
        if isinstance(body, GuardedEq):
            ok = left == right
        else:
            ok = not (left & right)
        return {node} if ok else _EMPTY

    def _exists_via(self, body: ExistsVia) -> AbstractSet[Node]:
        pairs = self.path(body.path)
        targets = self.body(body.body)
        return {e for e, e2 in pairs if e2 in targets}

    def _concat(self, p: PConcat) -> AbstractSet[Pair]:
        by_mid: Dict[Node, Set[Node]] = {}
        for x, y in self.path(p.left):
            by_mid.setdefault(y, set()).add(x)
        return {(x, z) for y, z in self.path(p.right) for x in by_mid.get(y, ())}

    # the case of each node type, called as case(evaluator, node): a body's
    # nodes, or a path expression's node pairs
    _BODIES = {
        IndividualRef: lambda ev, b: {b.name} if b.name in ev.interp.nodes else _EMPTY,
        ShapeRef: lambda ev, b: ev.unary.get(b.name, _EMPTY),
        NegShapeRef: lambda ev, b: ev.interp.nodes - ev.unary.get(b.name, _EMPTY),
        ConceptRef: lambda ev, b: ev.interp.extension(b.name),
        Or: lambda ev, b: ev.body(b.left) | ev.body(b.right),
        And: lambda ev, b: ev.body(b.left) & ev.body(b.right),
        Not: lambda ev, b: ev.interp.nodes - ev.body(b.body),
        ExistsRoles: _exists_roles,
        ExistsPath: lambda ev, b: _path_sources(ev.interp, regex_to_nfa(b.path), ev.body(b.body)),
        GuardedEq: _comparison,
        GuardedDisj: _comparison,
        ExistsVia: _exists_via,
    }
    _PATHS = {
        RoleStep: lambda ev, p: {
            (x, y) for x, ys in ev.interp.adjacency(p.role).items() for y in ys
        },
        BinRef: lambda ev, p: ev.binary.get(p.name, _EMPTY),
        Test: lambda ev, p: {(n, n) for n in ev.unary.get(p.shape, _EMPTY)},
        PInter: lambda ev, p: ev.path(p.left) & ev.path(p.right),
        PConcat: _concat,
        PInverse: lambda ev, p: {(y, x) for x, y in ev.path(p.inner)},
    }


# ---------------------------------------------------------------------------
# the fixpoint engine


def _round(ev: _Evaluator, group: Sequence[Item]) -> bool:
    """Evaluate each item once and add its atoms; whether any were new."""
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
    return grew


def _fixpoint(
    interp: Interpretation, components: Sequence[Tuple[Sequence[Item], bool]]
) -> Tables:
    """Unary and binary atoms of the perfect assignment, one group at a time.

    Each (items, recursive) group reads only the groups before it and
    itself, and itself only positively. A recursive group repeats rounds
    until one adds nothing; any other group is final after one round.
    """
    ev = _Evaluator(interp, {}, {})
    for group, recursive in components:
        while _round(ev, group) and recursive:
            pass
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
    unary, _ = _fixpoint(interp, strat.components)
    failed = False if interp.complete else None
    return {(shape, ind): ind in unary.get(shape, _EMPTY) or failed for shape, ind in targets}


def perfect_assignment_b(interp: Interpretation, constraints: Sequence[Item]) -> Tables:
    """The unary and binary tables of a SHACL^b constraint set's perfect
    assignment."""
    return _fixpoint(interp, compute_stratification(constraints).components)
