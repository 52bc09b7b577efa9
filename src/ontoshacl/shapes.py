"""Shape constraints: expression syntax, normal form, stratification.

Unary shapes have bodies over concepts, roles and regular paths. Binary
(edge) shapes of SHACL^b have bodies in a path algebra, which unary
bodies can also walk with ``ExistsVia``.

The normal form restricts unary bodies to six cases: an individual, a
shape ref, a concept, a conjunction of two shape refs, a role-conjunction
existential over a shape ref, or a negated shape ref. ``normalize``
compiles the richer source grammar down to these, introducing fresh
shape names under a reserved prefix.

``compute_stratification`` is the one stratifier for both kinds, and its
condensation also fixes the order in which ``evaluate`` runs the items.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .core import TOP, Role
from .paths import NFA, Regex, regex_str, regex_to_nfa
from .values import value

# every shape name the package makes starts with this, and the parser
# refuses it in every shape name it reads
RESERVED_PREFIX = "_"


class UnguardedComparison(ValueError):
    """eq/disj without an individual guard cannot be compiled faithfully."""

    def __str__(self) -> str:
        return ("eq/disj must be guarded by an individual: without the guard, "
                "nodes reached over the two paths cannot be told apart")


# ---------------------------------------------------------------------------
# unary shape expressions


@value(frozen=True)
class IndividualRef:
    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@value(frozen=True)
class ShapeRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@value(frozen=True)
class NegShapeRef:
    name: str

    def __str__(self) -> str:
        return f"!${self.name}"


@value(frozen=True)
class ConceptRef:
    name: str  # concept name or the top token

    def __str__(self) -> str:
        return self.name


@value(frozen=True)
class Or:
    left: "ShapeBody"
    right: "ShapeBody"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@value(frozen=True)
class And:
    left: "ShapeBody"
    right: "ShapeBody"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@value(frozen=True)
class Not:
    """General complement, written ``!(...)``; ``normalize`` compiles it to
    a negated shape reference."""

    body: "ShapeBody"

    def __str__(self) -> str:
        return f"!({self.body})"


@value(frozen=True)
class ExistsRoles:
    roles: FrozenSet[Role]
    body: "ShapeBody"

    def __str__(self) -> str:
        rs = ",".join(str(r) for r in sorted(self.roles))
        return f"some [{rs}].{self.body}"


@value(frozen=True)
class ExistsPath:
    path: Regex
    body: "ShapeBody"

    def __str__(self) -> str:
        return f"some <{regex_str(self.path)}>.{self.body}"


@value(frozen=True)
class GuardedEq:
    guard: Optional[str]  # individual name; None means unguarded (rejected)
    left: Regex
    right: Regex

    def __str__(self) -> str:
        # self-parenthesized so the guard survives reparsing in any context
        inner = f"eq(<{regex_str(self.left)}>,<{regex_str(self.right)}>)"
        return f"(@{self.guard} & {inner})" if self.guard else inner


@value(frozen=True)
class GuardedDisj:
    guard: Optional[str]
    left: Regex
    right: Regex

    def __str__(self) -> str:
        inner = f"disj(<{regex_str(self.left)}>,<{regex_str(self.right)}>)"
        return f"(@{self.guard} & {inner})" if self.guard else inner


# ---------------------------------------------------------------------------
# SHACL^b path algebra (binary shapes): the operators the pure rewritings
# emit


@value(frozen=True)
class RoleStep:
    role: Role

    def __str__(self) -> str:
        return str(self.role)


@value(frozen=True)
class BinRef:
    name: str

    def __str__(self) -> str:
        return self.name


@value(frozen=True)
class Test:
    shape: str

    def __str__(self) -> str:
        return f"${self.shape}?"


@value(frozen=True)
class PInter:
    left: "PathExpr"
    right: "PathExpr"

    def __str__(self) -> str:
        return f"({self.left} ^ {self.right})"


@value(frozen=True)
class PConcat:
    left: "PathExpr"
    right: "PathExpr"

    def __str__(self) -> str:
        return f"({self.left} . {self.right})"


@value(frozen=True)
class PInverse:
    inner: "PathExpr"

    def __str__(self) -> str:
        return f"({self.inner})-"


PathExpr = Union[RoleStep, BinRef, Test, PInter, PConcat, PInverse]


@value(frozen=True)
class ExistsVia:
    """Unary body: some node reachable over a path-algebra expression."""

    path: PathExpr
    body: "ShapeBody"

    def __str__(self) -> str:
        return f"some ({self.path}).{self.body}"


ShapeBody = Union[
    IndividualRef,
    ShapeRef,
    NegShapeRef,
    ConceptRef,
    Or,
    And,
    Not,
    ExistsRoles,
    ExistsPath,
    GuardedEq,
    GuardedDisj,
    ExistsVia,
]


@value(frozen=True)
class Constraint:
    head: str
    body: ShapeBody

    def __str__(self) -> str:
        return f"${self.head} <- {self.body}"


@value(frozen=True)
class BinConstraint:
    head: str
    body: PathExpr

    def __str__(self) -> str:
        return f"{self.head} <- {self.body}"


Item = Union[Constraint, BinConstraint]


@value(frozen=True)
class ShapesGraph:
    constraints: Tuple[Constraint, ...]
    targets: Tuple[Tuple[str, str], ...]  # (shape name, individual name)

    @staticmethod
    def of(
        constraints: Sequence[Constraint], targets: Sequence[Tuple[str, str]] = ()
    ) -> "ShapesGraph":
        """Deduplicated and sorted, constraints by printed form: the order
        every later layer keeps."""
        return ShapesGraph(
            tuple(sorted(set(constraints), key=str)), tuple(sorted(set(targets)))
        )

    def shape_names(self) -> FrozenSet[str]:
        return shape_names(self.constraints) | {s for s, _ in self.targets}

    def undefined_target_shapes(self) -> Tuple[str, ...]:
        """Target shapes that no constraint has as its head, sorted."""
        defined = {c.head for c in self.constraints}
        return tuple(sorted({s for s, _ in self.targets} - defined))


def shape_names(items: Iterable[Item]) -> FrozenSet[str]:
    """The heads and the shape names the bodies read."""
    out: Set[str] = set()
    for it in items:
        out.add(it.head)
        out |= {n for n, _ in shape_occurrences(it.body)}
    return frozenset(out)


def concept_names(items: Iterable[Constraint]) -> FrozenSet[str]:
    """The concept names the bodies read, the top token excluded."""
    out: Set[str] = set()
    for c in items:
        out |= _concepts_in(c.body)
    return frozenset(out - {TOP})


def _concepts_in(body: Union[ShapeBody, PathExpr]) -> Set[str]:
    if isinstance(body, ConceptRef):
        return {body.name}
    out: Set[str] = set()
    for child, _ in _children(body, False):
        out |= _concepts_in(child)
    return out


_PAIRS = frozenset({Or, And, PInter, PConcat})

_Read = Tuple[str, bool]  # a shape or edge-shape name, read negatively or not
_NO_READS: FrozenSet[_Read] = frozenset()


def _children(body: Union[ShapeBody, PathExpr], negative: bool) -> tuple:
    """The bodies and path expressions ``body`` holds, each paired with
    ``negative``, which only a complement flips. Leaves have none."""
    kind = type(body)
    if kind in _PAIRS:
        return ((body.left, negative), (body.right, negative))
    if kind is Not:
        return ((body.body, True),)
    if kind is ExistsVia:
        return ((body.path, negative), (body.body, negative))
    if kind is ExistsRoles or kind is ExistsPath:
        return ((body.body, negative),)
    if kind is PInverse:
        return ((body.inner, negative),)
    return ()


def shape_occurrences(
    body: Union[ShapeBody, PathExpr], negative: bool = False
) -> FrozenSet[_Read]:
    """The distinct (name, occurs-negatively) pairs for the shape and
    edge-shape names a shape body or path expression reads.

    A read is negative inside any complement or negated reference.
    """
    kind = type(body)
    if kind is ShapeRef or kind is BinRef:
        return frozenset(((body.name, negative),))
    if kind is NegShapeRef:
        return frozenset(((body.name, True),))
    if kind is Test:
        return frozenset(((body.shape, negative),))
    out = _NO_READS
    for child, neg in _children(body, negative):
        sub = shape_occurrences(child, neg)
        if sub:
            out = out | sub if out else sub
    return out


def has_negation(body: Union[ShapeBody, PathExpr]) -> bool:
    """Anything non-monotone: shape complement or path comparison."""
    if isinstance(body, (NegShapeRef, Not, GuardedEq, GuardedDisj)):
        return True
    return any(has_negation(child) for child, _ in _children(body, False))


# ---------------------------------------------------------------------------
# normal form


def is_normal(c: Constraint) -> bool:
    b = c.body
    if isinstance(b, (IndividualRef, ShapeRef, NegShapeRef, ConceptRef)):
        return True
    if isinstance(b, And):
        return isinstance(b.left, ShapeRef) and isinstance(b.right, ShapeRef)
    if isinstance(b, ExistsRoles):
        return bool(b.roles) and isinstance(b.body, (ShapeRef, NegShapeRef))
    return False


class _Namer:
    def __init__(self, taken: Set[str]):
        self.taken = set(taken)
        self.counter = 0

    def fresh(self, hint: str) -> str:
        while True:
            name = f"{RESERVED_PREFIX}{hint}{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def normalize(sg: ShapesGraph) -> Tuple[ShapesGraph, Dict[str, str]]:
    """Compile to normal form; returns the new graph and aux-name origins.

    A path compiles through its automaton (``paths.regex_to_nfa``) into one
    shape per state and one existential per transition. ``some <path>.B``
    adds one constraint ``f <- B`` per final state f; each side of a guarded
    ``eq``/``disj`` marks the states forward from the guard and unions its
    final states into one shape.
    """
    out: List[Constraint] = []
    namer = _Namer(set(sg.shape_names()))
    origin: Dict[str, str] = {}

    def aux(body: ShapeBody, owner: str) -> str:
        if isinstance(body, ShapeRef):
            return body.name
        name = namer.fresh("s")
        origin[name] = owner
        compile_into(name, body, owner)
        return name

    def state_names(nfa: NFA, owner: str) -> List[str]:
        names = [namer.fresh("q") for _ in range(nfa.n_states)]
        for q in names:
            origin[q] = owner
        return names

    def compile_into(head: str, body: ShapeBody, owner: str) -> None:
        if isinstance(body, (IndividualRef, ShapeRef, NegShapeRef, ConceptRef)):
            out.append(Constraint(head, body))
        elif isinstance(body, Or):
            compile_into(head, body.left, owner)
            compile_into(head, body.right, owner)
        elif isinstance(body, And):
            left = aux(body.left, owner)
            right = aux(body.right, owner)
            out.append(Constraint(head, And(ShapeRef(left), ShapeRef(right))))
        elif isinstance(body, Not):
            if isinstance(body.body, ShapeRef):
                out.append(Constraint(head, NegShapeRef(body.body.name)))
            else:
                out.append(Constraint(head, NegShapeRef(aux(body.body, owner))))
        elif isinstance(body, ExistsRoles):
            out.append(
                Constraint(head, ExistsRoles(body.roles, ShapeRef(aux(body.body, owner))))
            )
        elif isinstance(body, ExistsPath):
            nfa = regex_to_nfa(body.path)
            states = state_names(nfa, owner)
            out.append(Constraint(head, ShapeRef(states[nfa.initial])))
            for q, role, q2 in nfa.transitions:
                out.append(
                    Constraint(
                        states[q], ExistsRoles(frozenset({role}), ShapeRef(states[q2]))
                    )
                )
            target = ShapeRef(aux(body.body, owner))
            for f in sorted(nfa.finals):
                out.append(Constraint(states[f], target))
        elif isinstance(body, (GuardedEq, GuardedDisj)):
            _compile_comparison(head, body, owner)
        else:
            raise TypeError(f"unknown body {body!r}")

    def _compile_comparison(head: str, body, owner: str) -> None:
        if body.guard is None:
            raise UnguardedComparison()
        left_nfa = regex_to_nfa(body.left)
        right_nfa = regex_to_nfa(body.right)
        sides = []
        for nfa in (left_nfa, right_nfa):
            states = state_names(nfa, owner)
            # forward marking from the guard along the automaton
            out.append(Constraint(states[nfa.initial], IndividualRef(body.guard)))
            for q, role, q2 in nfa.transitions:
                out.append(
                    Constraint(
                        states[q2],
                        ExistsRoles(frozenset({role.invert()}), ShapeRef(states[q])),
                    )
                )
            side = namer.fresh("side")
            origin[side] = owner
            for f in sorted(nfa.finals):
                out.append(Constraint(side, ShapeRef(states[f])))
            sides.append(side)
        err = namer.fresh("err")
        origin[err] = owner
        if isinstance(body, GuardedEq):
            pos = namer.fresh("pos")
            neg = namer.fresh("neg")
            origin[pos] = origin[neg] = owner
            out.append(Constraint(pos, ShapeRef(sides[0])))
            out.append(Constraint(pos, ShapeRef(sides[1])))
            out.append(Constraint(neg, NegShapeRef(sides[0])))
            out.append(Constraint(neg, NegShapeRef(sides[1])))
            out.append(Constraint(err, And(ShapeRef(pos), ShapeRef(neg))))
        else:
            out.append(Constraint(err, And(ShapeRef(sides[0]), ShapeRef(sides[1]))))
        alphabet = left_nfa.alphabet() | right_nfa.alphabet()
        for role in sorted(alphabet):
            out.append(Constraint(err, ExistsRoles(frozenset({role}), ShapeRef(err))))
        noerr = namer.fresh("ok")
        origin[noerr] = owner
        out.append(Constraint(noerr, NegShapeRef(err)))
        guard_shape = namer.fresh("at")
        origin[guard_shape] = owner
        out.append(Constraint(guard_shape, IndividualRef(body.guard)))
        out.append(Constraint(head, And(ShapeRef(guard_shape), ShapeRef(noerr))))

    for c in sg.constraints:
        compile_into(c.head, c.body, c.head)

    deduped = ShapesGraph.of(out, sg.targets)
    assert all(is_normal(c) for c in deduped.constraints)
    return deduped, origin


# ---------------------------------------------------------------------------
# stratification


@value(frozen=True)
class Stratification:
    strata: Tuple[Tuple[Item, ...], ...]
    # (items, recursive) per strongly connected component, in evaluation order
    components: Tuple[Tuple[Tuple[Item, ...], bool], ...]


class NotStratified(ValueError):
    def __init__(self, cycle: Tuple[str, ...]):
        pretty = " -> ".join(cycle + (cycle[0],)) if cycle else "?"
        super().__init__(f"not stratified: negation inside a recursive cycle: {pretty}")
        self.cycle = cycle


def compute_stratification(items: Sequence[Item]) -> Stratification:
    """Strata and evaluation order from the condensation of the marked
    dependency graph.

    An edge s -> s' says s occurs in a body with head s'; it is marked
    when the occurrence is negative. A strongly connected component that
    holds a marked edge is rejected with a cycle through that edge.
    Otherwise a name's stratum is the largest number of marked edges on
    any path into it. Empty strata are dropped, and each stratum keeps
    the order of ``items``.

    ``components`` groups the items by the component of their head, each
    group after every group it reads and in the order of ``items``. A
    group is recursive when its component has an edge inside it: more
    than one name, or a name that reads itself. Only a recursive group
    needs more than one round of evaluation.
    """
    succ: Dict[str, Set[str]] = {}
    marked: Set[Tuple[str, str]] = set()
    for it in items:
        succ.setdefault(it.head, set())
        for occ, neg in shape_occurrences(it.body):
            succ.setdefault(occ, set()).add(it.head)
            if neg:
                marked.add((occ, it.head))
    adj = {n: sorted(succ[n]) for n in sorted(succ)}

    comps = _components(adj)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    for s, t in sorted(marked):
        if comp_of[s] == comp_of[t]:
            raise NotStratified(_path(adj, t, s))
    level = dict.fromkeys(adj, 0)
    for comp in reversed(comps):  # every edge into comp comes from earlier
        lvl = max(level[n] for n in comp)
        for n in comp:
            level[n] = lvl
            for m in adj[n]:
                if comp_of[m] != comp_of[n]:
                    level[m] = max(level[m], lvl + ((n, m) in marked))

    used = sorted({level[it.head] for it in items})
    renum = {lvl: i for i, lvl in enumerate(used)}
    strata: List[List[Item]] = [[] for _ in used]
    groups: Dict[int, List[Item]] = {}
    for it in items:
        strata[renum[level[it.head]]].append(it)
        groups.setdefault(comp_of[it.head], []).append(it)
    components = tuple(
        (tuple(groups[i]), len(comps[i]) > 1 or comps[i][0] in succ[comps[i][0]])
        for i in sorted(groups, reverse=True)
    )
    return Stratification(tuple(map(tuple, strata)), components)


def _components(adj: Dict[str, List[str]]) -> List[List[str]]:
    """Strongly connected components, each after every component it
    reaches (Tarjan's algorithm, without recursion)."""
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    out: List[List[str]] = []
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    comp: List[str] = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def _path(adj: Dict[str, List[str]], start: str, goal: str) -> Tuple[str, ...]:
    """A shortest path from start to goal, found breadth-first."""
    prev: Dict[str, Optional[str]] = {start: None}
    work = deque([start])
    while goal not in prev:
        x = work.popleft()
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                work.append(y)
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return tuple(reversed(path))
