"""Slow reference implementations the test suite compares against.

Everything here is deliberately naive: explicit fixpoints over atom
sets, exhaustive enumeration where instances are small enough, and a
from-scratch ground chase. None of it shares code with the package
beyond the plain AST types, so agreement is evidence rather than
tautology. The exceptions are the last four sections: entry points that
only the tests call, kept here rather than in the package; the
set-based quadruple saturation that the bit-encoded one in
``ontoshacl.rewrite`` replaced, which emits one row per type and witness
split, with the truth tables that check the package's merged rows
against those and the full signature of every concept name that the
per-component one is checked against; the pure
rewritings as they were before they substituted each shared node once;
and the readers of every line kind and the JSON report as they were
before patterns read the flat lines and the report was written directly.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ontoshacl.chase import (
    NotTerminated,
    _guard,
    fire_axioms,
    homomorphisms,
)
from ontoshacl.core import (
    BOT,
    TOP,
    ABox,
    AtMostOne,
    Axiom,
    ConjInclusion,
    ExistsInclusion,
    Interpretation,
    Node,
    OneHalfType,
    Role,
    RoleInclusion,
    TBox,
    TwoType,
    ValueRestriction,
    node_key,
    type_key,
)
from ontoshacl.formats import (
    _body_alt,
    _concept,
    _Cursor,
    _lead,
    _lines,
    _peek_word,
    _role,
    _shape_name,
    parse_constraints,
)
from ontoshacl.model import InconsistentKB, build_can, complete_abox, succ_config
from ontoshacl.paths import NFA, RAlt, RSeq, RStar, RSym, Regex
from ontoshacl.rewrite import (
    Entry,
    _alchi_tbox,
    _and_chain,
    _classify as _classify_constraints,
    _concept_seeds,
    _concept_shape,
    _crossed,
    _entry_key,
    _exists_via_edge_shapes,
    _live_steps,
    _role_bases,
    _shaclb_tbox,
    _signature,
    _simplify_roles,
    _split,
    _type_universe,
)
from ontoshacl.shapes import (
    And,
    BinRef,
    ConceptRef,
    Constraint,
    ExistsPath,
    ExistsRoles,
    ExistsVia,
    IndividualRef,
    Item,
    NegShapeRef,
    Not,
    Or,
    PConcat,
    PInter,
    PInverse,
    ShapeBody,
    ShapeRef,
    Stratification,
    Test,
    concept_names,
    shape_names,
)
from ontoshacl.tbox import SaturatedTBox


# ---------------------------------------------------------------------------
# role hierarchy by brute-force reachability


def role_reach(tbox: TBox) -> Dict[Role, FrozenSet[Role]]:
    """Reflexive-transitive closure of the inclusion edges, both polarities."""
    roles: Set[Role] = set()
    for n in tbox.role_names():
        roles.add(Role(n))
        roles.add(Role(n, True))
    edges: Set[Tuple[Role, Role]] = set()
    for ax in tbox.roles:
        edges.add((ax.sub, ax.sup))
        edges.add((ax.sub.invert(), ax.sup.invert()))
    reach = {r: {r} for r in roles}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for r in roles:
                if a in reach[r] and b not in reach[r]:
                    reach[r].add(b)
                    changed = True
    return {r: frozenset(v) for r, v in reach.items()}


# ---------------------------------------------------------------------------
# concept closure by plain iteration


def conj_close(tbox: TBox, concepts: Iterable[str]) -> FrozenSet[str]:
    out = {c for c in concepts if c != TOP}
    changed = True
    while changed:
        changed = False
        for ax in tbox.conj:
            if ax.lhs <= out and ax.rhs not in out:
                out.add(ax.rhs)
                changed = True
    return frozenset(out)


class _TypeTable:
    """Joint fixpoint over entailed concept sets, no counting axioms.

    E[S] is the set of concepts every node with base type S must carry.
    Growth comes from plain inclusions, from value restrictions pushed
    down a required child edge, and from value restrictions at a child
    pushed back up through an inverse role. Child filler sets are E
    entries themselves, so arbitrarily deep feedback settles in the one
    shared fixpoint.
    """

    def __init__(self, tbox: TBox):
        assert not tbox.atmost
        self.tbox = tbox
        self.reach = role_reach(tbox)
        self.table: Dict[FrozenSet[str], Set[str]] = {}

    def entailed(self, concepts: Iterable[str]) -> FrozenSet[str]:
        key = frozenset(c for c in concepts if c != TOP)
        self._settle(key)
        return frozenset(self.table[key])

    def pairs(
        self, concepts: Iterable[str]
    ) -> Set[Tuple[FrozenSet[Role], FrozenSet[str]]]:
        key = frozenset(c for c in concepts if c != TOP)
        self._settle(key)
        pairs = self._pairs_of(key)
        return {
            p
            for p in pairs
            if not any(q != p and p[0] <= q[0] and p[1] <= q[1] for q in pairs)
        }

    def _pairs_of(
        self, key: FrozenSet[str]
    ) -> List[Tuple[FrozenSet[Role], FrozenSet[str]]]:
        base = self.table[key]
        out = []
        for ax in self.tbox.exists:
            if ax.lhs != TOP and ax.lhs not in base:
                continue
            roles = self.reach.get(ax.role, frozenset({ax.role}))
            fillers = {ax.filler} - {TOP}
            for vx in self.tbox.value:
                if (vx.lhs == TOP or vx.lhs in base) and vx.role in roles:
                    fillers.add(vx.filler)
            child = self.table.setdefault(frozenset(fillers), set(fillers))
            out.append((roles, frozenset(child)))
        return out

    def _settle(self, key: FrozenSet[str]) -> None:
        self.table.setdefault(key, set(key))
        changed = True
        while changed:
            changed = False
            n_keys = len(self.table)
            for s in list(self.table):
                grown = set(conj_close(self.tbox, self.table[s]))
                for roles, child in self._pairs_of(s):
                    for vx in self.tbox.value:
                        if (
                            (vx.lhs == TOP or vx.lhs in child)
                            and vx.role.invert() in roles
                        ):
                            grown.add(vx.filler)
                if not grown <= self.table[s]:
                    self.table[s] |= grown
                    changed = True
            if len(self.table) != n_keys:
                changed = True


def brute_existentials(
    tbox: TBox, concepts: Iterable[str]
) -> Set[Tuple[FrozenSet[Role], FrozenSet[str]]]:
    """Maximal successor requirements, valid only without counting axioms."""
    return _TypeTable(tbox).pairs(concepts)


def brute_entailed(tbox: TBox, concepts: Iterable[str]) -> FrozenSet[str]:
    """Entailed concept memberships, valid only without counting axioms."""
    return _TypeTable(tbox).entailed(concepts)


# ---------------------------------------------------------------------------
# ground chase with equality repair; the consistency / completion oracle


class OracleBudgetExceeded(RuntimeError):
    pass


def find_ground_model(
    tbox: TBox, abox: ABox, max_rounds: int = 60, max_nodes: int = 120
) -> Optional[Tuple[Set[Tuple[str, str]], Set[Tuple[str, str, str]]]]:
    """Chase to a fixpoint; None means no model (clash or named merge).

    Nodes are strings; fresh witnesses get "?k" names. Counted roles are
    repaired by merging, with named individuals never merged into each
    other (distinct names denote distinct things here).
    """
    named = set(abox.individuals())
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: str, y: str) -> bool:
        x, y = find(x), find(y)
        if x == y:
            return True
        if x in named and y in named:
            return False
        if y in named:
            x, y = y, x
        parent[y] = x
        return True

    concepts: Set[Tuple[str, str]] = set(abox.concept_atoms)
    edges: Set[Tuple[str, str, str]] = set(abox.role_atoms)
    nodes: Set[str] = set(named)
    for _, x, y in abox.role_atoms:
        nodes.update({x, y})
    fired: Set[Tuple[str, int]] = set()
    fresh = itertools.count()

    def canon() -> None:
        nonlocal concepts, edges, nodes
        concepts = {(c, find(x)) for c, x in concepts}
        edges = {(r, find(x), find(y)) for r, x, y in edges}
        nodes = {find(x) for x in nodes}

    def ctype(x: str) -> Set[str]:
        return {c for c, y in concepts if y == x}

    def succ(x: str, role: Role) -> List[str]:
        if role.inverted:
            return sorted({a for r, a, b in edges if r == role.name and b == x})
        return sorted({b for r, a, b in edges if r == role.name and a == x})

    def add_edge(role: Role, x: str, y: str) -> None:
        if role.inverted:
            edges.add((role.name, y, x))
        else:
            edges.add((role.name, x, y))

    exists_list = list(tbox.exists)
    for _ in range(max_rounds):
        canon()
        if len(nodes) > max_nodes:
            raise OracleBudgetExceeded(f"{len(nodes)} nodes")
        before = (len(concepts), len(edges), len(nodes), len(parent))
        for ax in tbox.conj:
            for x in sorted(nodes):
                if ax.lhs <= ctype(x):
                    concepts.add((ax.rhs, x))
        if any(c == BOT for c, _ in concepts):
            return None
        for ax in tbox.roles:
            for r, x, y in sorted(edges):
                if Role(r) == ax.sub:
                    add_edge(ax.sup, x, y)
                elif Role(r, True) == ax.sub:
                    add_edge(ax.sup, y, x)
        for ax in tbox.value:
            for x in sorted(nodes):
                if ax.lhs == TOP or ax.lhs in ctype(x):
                    for y in succ(x, ax.role):
                        if ax.filler != TOP:
                            concepts.add((ax.filler, y))
        for i, ax in enumerate(exists_list):
            for x in sorted(nodes):
                if (x, i) in fired:
                    continue
                if ax.lhs == TOP or ax.lhs in ctype(x):
                    y = f"?{next(fresh)}"
                    nodes.add(y)
                    add_edge(ax.role, x, y)
                    if ax.filler != TOP:
                        concepts.add((ax.filler, y))
                    fired.add((x, i))
        for ax in tbox.atmost:
            for x in sorted(nodes):
                if ax.lhs != TOP and ax.lhs not in ctype(x):
                    continue
                wits = [
                    y
                    for y in succ(x, ax.role)
                    if ax.filler == TOP or ax.filler in ctype(y)
                ]
                if len(wits) >= 2:
                    if not union(wits[0], wits[1]):
                        return None
        canon()
        if (len(concepts), len(edges), len(nodes), len(parent)) == before:
            return concepts, edges
    raise OracleBudgetExceeded(f"no fixpoint in {max_rounds} rounds")


def check_ground_model(
    tbox: TBox, concepts: Set[Tuple[str, str]], edges: Set[Tuple[str, str, str]]
) -> bool:
    nodes = {x for _, x in concepts} | {x for _, x, y in edges} | {
        y for _, x, y in edges
    }

    def ctype(x: str) -> Set[str]:
        return {c for c, y in concepts if y == x}

    def succ(x: str, role: Role) -> List[str]:
        if role.inverted:
            return [a for r, a, b in edges if r == role.name and b == x]
        return [b for r, a, b in edges if r == role.name and a == x]

    if any(c == BOT for c, _ in concepts):
        return False
    for ax in tbox.conj:
        for x in nodes:
            if ax.lhs <= ctype(x) and ax.rhs != TOP and ax.rhs not in ctype(x):
                return False
    for ax in tbox.roles:
        for r, x, y in edges:
            if Role(r) == ax.sub:
                pair = (y, x) if ax.sup.inverted else (x, y)
                if (ax.sup.name, *pair) not in edges:
                    return False
            if Role(r, True) == ax.sub:
                pair = (x, y) if ax.sup.inverted else (y, x)
                if (ax.sup.name, *pair) not in edges:
                    return False
    for ax in tbox.value:
        for x in nodes:
            if ax.lhs == TOP or ax.lhs in ctype(x):
                for y in succ(x, ax.role):
                    if ax.filler != TOP and ax.filler not in ctype(y):
                        return False
    for ax in tbox.exists:
        for x in nodes:
            if ax.lhs == TOP or ax.lhs in ctype(x):
                ok = any(
                    ax.filler == TOP or ax.filler in ctype(y)
                    for y in succ(x, ax.role)
                )
                if not ok:
                    return False
    for ax in tbox.atmost:
        for x in nodes:
            if ax.lhs == TOP or ax.lhs in ctype(x):
                wits = {
                    y
                    for y in succ(x, ax.role)
                    if ax.filler == TOP or ax.filler in ctype(y)
                }
                if len(wits) > 1:
                    return False
    return True


def oracle_complete(
    tbox: TBox, abox: ABox
) -> Optional[Tuple[FrozenSet[Tuple[str, str]], FrozenSet[Tuple[str, str, str]]]]:
    """Entailed ground atoms via the chase, or None when inconsistent."""
    model = find_ground_model(tbox, abox)
    if model is None:
        return None
    concepts, edges = model
    named = set(abox.individuals())
    return (
        frozenset((c, x) for c, x in concepts if x in named and c != TOP),
        frozenset((r, x, y) for r, x, y in edges if x in named and y in named),
    )


# ---------------------------------------------------------------------------
# endomorphisms by exhaustive products


def naive_endos(interp: Interpretation) -> List[Dict[Node, Node]]:
    nodes = sorted(interp.nodes, key=str)
    anon = [n for n in nodes if not isinstance(n, str)]
    fixed = {n: n for n in nodes if isinstance(n, str)}
    out: List[Dict[Node, Node]] = []
    for image in itertools.product(nodes, repeat=len(anon)):
        m = dict(fixed)
        m.update(dict(zip(anon, image)))
        if all(
            (c, m[n]) in interp.concept_atoms for c, n in interp.concept_atoms
        ) and all((r, m[x], m[y]) in interp.role_atoms for r, x, y in interp.role_atoms):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# regex membership by derivatives


_EMPTY = RAlt(())
_EPSILON = RSeq(())


def _nullable(e: Regex) -> bool:
    if isinstance(e, RSym):
        return False
    if isinstance(e, RSeq):
        return all(_nullable(p) for p in e.parts)
    if isinstance(e, RAlt):
        return any(_nullable(o) for o in e.options)
    if isinstance(e, RStar):
        return True
    raise TypeError(e)


def _seq(parts: Sequence[Regex]) -> Regex:
    flat: List[Regex] = []
    for p in parts:
        if p == _EMPTY:
            return _EMPTY
        if isinstance(p, RSeq):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return _EPSILON
    return flat[0] if len(flat) == 1 else RSeq(tuple(flat))


def _alt(options: Sequence[Regex]) -> Regex:
    flat: List[Regex] = []
    for o in options:
        if isinstance(o, RAlt):
            flat.extend(x for x in o.options if x not in flat)
        elif o not in flat:
            flat.append(o)
    if not flat:
        return _EMPTY
    return flat[0] if len(flat) == 1 else RAlt(tuple(flat))


def _deriv(e: Regex, a: Role) -> Regex:
    if isinstance(e, RSym):
        return _EPSILON if e.role == a else _EMPTY
    if isinstance(e, RSeq):
        out: List[Regex] = []
        for i, p in enumerate(e.parts):
            out.append(_seq([_deriv(p, a)] + list(e.parts[i + 1 :])))
            if not _nullable(p):
                break
        return _alt(out) if out else _EMPTY
    if isinstance(e, RAlt):
        return _alt([_deriv(o, a) for o in e.options])
    if isinstance(e, RStar):
        return _seq([_deriv(e.inner, a), e])
    raise TypeError(e)


def regex_word_match(e: Regex, word: Sequence[Role]) -> bool:
    for a in word:
        e = _deriv(e, a)
        if e == _EMPTY:
            return False
    return _nullable(e)


# ---------------------------------------------------------------------------
# Thompson automata: a second path automaton, built with ε-moves


@dataclass(frozen=True)
class ThompsonNFA:
    """Nondeterministic automaton over roles, single initial and final state."""

    n_states: int
    initial: int
    final: int
    transitions: Tuple[Tuple[int, Role, int], ...]
    eps: Tuple[Tuple[int, int], ...]

    def eps_closure(self, states: Set[int]) -> FrozenSet[int]:
        out = set(states)
        work = list(states)
        while work:
            q = work.pop()
            for a, b in self.eps:
                if a == q and b not in out:
                    out.add(b)
                    work.append(b)
        return frozenset(out)

    def accepts(self, word: Sequence[Role]) -> bool:
        current = self.eps_closure({self.initial})
        for letter in word:
            nxt = {b for a, r, b in self.transitions if a in current and r == letter}
            current = self.eps_closure(nxt)
            if not current:
                return False
        return self.final in current

    def reach(self, interp: Interpretation, start: Node) -> FrozenSet[Node]:
        """Nodes reachable from start along words of the language, stepping
        over the role atoms themselves rather than the interpretation's index."""
        seen: Set[Tuple[Node, int]] = {(start, q) for q in self.eps_closure({self.initial})}
        work = list(seen)
        while work:
            n, q = work.pop()
            for a, r, b in self.transitions:
                if a != q:
                    continue
                for name, x, y in interp.role_atoms:
                    src, dst = (y, x) if r.inverted else (x, y)
                    if name != r.name or src != n:
                        continue
                    for q2 in self.eps_closure({b}):
                        if (dst, q2) not in seen:
                            seen.add((dst, q2))
                            work.append((dst, q2))
        return frozenset(n for n, q in seen if q == self.final)


def thompson_nfa(e: Regex) -> ThompsonNFA:
    transitions: List[Tuple[int, Role, int]] = []
    eps: List[Tuple[int, int]] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(x: Regex) -> Tuple[int, int]:
        if isinstance(x, RSym):
            i, f = fresh(), fresh()
            transitions.append((i, x.role, f))
            return i, f
        if isinstance(x, RSeq):
            first_i, prev_f = build(x.parts[0])
            for part in x.parts[1:]:
                i, f = build(part)
                eps.append((prev_f, i))
                prev_f = f
            return first_i, prev_f
        if isinstance(x, RAlt):
            i, f = fresh(), fresh()
            for opt in x.options:
                oi, of = build(opt)
                eps.append((i, oi))
                eps.append((of, f))
            return i, f
        i, f = fresh(), fresh()
        ii, ff = build(x.inner)
        eps.append((i, f))
        eps.append((i, ii))
        eps.append((ff, f))
        eps.append((ff, ii))
        return i, f

    init, final = build(e)
    return ThompsonNFA(counter[0], init, final, tuple(transitions), tuple(eps))


# ---------------------------------------------------------------------------
# naive bottom-up evaluation of positive normal constraints


def naive_assignment(
    interp: Interpretation, constraints: Sequence[Constraint]
) -> FrozenSet[Tuple[str, Node]]:
    assign: Set[Tuple[str, Node]] = set()

    def sat_by(body, n: Node) -> bool:
        if isinstance(body, IndividualRef):
            return n == body.name
        if isinstance(body, ShapeRef):
            return (body.name, n) in assign
        if isinstance(body, ConceptRef):
            return body.name == TOP or interp.has_concept(body.name, n)
        if isinstance(body, And):
            return sat_by(body.left, n) and sat_by(body.right, n)
        if isinstance(body, Or):
            return sat_by(body.left, n) or sat_by(body.right, n)
        if isinstance(body, ExistsRoles):
            for m in interp.domain():
                if all(interp.has_edge(r, n, m) for r in body.roles) and sat_by(
                    body.body, m
                ):
                    return True
            return False
        raise TypeError(f"not positive: {body!r}")

    changed = True
    while changed:
        changed = False
        for c in constraints:
            for n in interp.domain():
                if (c.head, n) not in assign and sat_by(c.body, n):
                    assign.add((c.head, n))
                    changed = True
    return frozenset(assign)


# ---------------------------------------------------------------------------
# stratification by relaxing levels


def _reads(node, negative: bool, out: List[Tuple[str, bool]]) -> None:
    """Names a shape body or path expression reads, marked when the read
    sits inside any negation: a complement or a negated reference."""
    if isinstance(node, (ShapeRef, BinRef)):
        out.append((node.name, negative))
    elif isinstance(node, NegShapeRef):
        out.append((node.name, True))
    elif isinstance(node, Test):
        out.append((node.shape, negative))
    elif isinstance(node, Not):
        _reads(node.body, True, out)
    elif isinstance(node, (And, Or, PInter, PConcat)):
        _reads(node.left, negative, out)
        _reads(node.right, negative, out)
    elif isinstance(node, ExistsVia):
        _reads(node.path, negative, out)
        _reads(node.body, negative, out)
    elif isinstance(node, (ExistsRoles, ExistsPath)):
        _reads(node.body, negative, out)
    elif isinstance(node, PInverse):
        _reads(node.inner, negative, out)


def dependency_edges(items) -> Set[Tuple[str, str, bool]]:
    """(read name, head, negative) for every read of every item."""
    out: Set[Tuple[str, str, bool]] = set()
    for it in items:
        reads: List[Tuple[str, bool]] = []
        _reads(it.body, False, reads)
        out |= {(name, it.head, neg) for name, neg in reads}
    return out


def naive_levels(items) -> Optional[Dict[str, int]]:
    """Each name's level: the most negative reads on any dependency path
    into it, found by relaxing every edge until nothing changes. None once
    a level passes the number of names, which only a cycle through a
    negative read can cause."""
    edges = sorted(dependency_edges(items))
    level = {it.head: 0 for it in items}
    for s, t, _ in edges:
        level.setdefault(s, 0)
    changed = True
    while changed:
        changed = False
        for s, t, neg in edges:
            if level[s] + neg > level[t]:
                level[t] = level[s] + neg
                if level[t] > len(level):
                    return None
                changed = True
    return level


# ---------------------------------------------------------------------------
# entry points only the tests call: endomorphism classification, the
# oblivious chase, consistency, automaton membership and reading a path
# expression. Unlike the oracles above they drive package internals
# (``chase.homomorphisms``, ``chase.fire_axioms``, ``model.complete_abox``,
# ``paths.NFA``, ``formats.parse_constraints``).


def parse_regex(text: str) -> Regex:
    """The path expression ``text``, read as the shapes parser reads it
    between ``<`` and ``>``."""
    (c,) = parse_constraints(f"$s <- some <{text}>.top")
    return c.body.path


def nfa_accepts(nfa: NFA, word: Sequence[Role]) -> bool:
    current = {nfa.initial}
    for letter in word:
        current = {b for a, r, b in nfa.transitions if a in current and r == letter}
    return not current.isdisjoint(nfa.finals)


@dataclass(frozen=True)
class Homomorphism:
    mapping: Tuple[Tuple[Node, Node], ...]
    injective: bool
    surjective: bool
    strong: bool

    @property
    def is_embedding(self) -> bool:
        return self.strong and self.injective

    @property
    def is_isomorphism(self) -> bool:
        return self.is_embedding and self.surjective

    def image(self) -> FrozenSet[Node]:
        return frozenset(b for _, b in self.mapping)


def _classify(interp: Interpretation, m: Dict[Node, Node]) -> Homomorphism:
    image = set(m.values())
    injective = len(image) == len(m)
    surjective = image == set(interp.nodes)

    def is_strong() -> bool:
        cdict = {n: interp.concepts_of(n) for n in interp.nodes}
        for x in interp.nodes:
            if cdict[x] != cdict[m[x]]:
                return False
        for r, a, b in interp.role_atoms:
            if (r, m[a], m[b]) not in interp.role_atoms:
                return False
        # reflection: an atom between images must come from an atom
        roles = {r for r, _, _ in interp.role_atoms}
        for x in interp.nodes:
            for y in interp.nodes:
                for r in roles:
                    if (r, m[x], m[y]) in interp.role_atoms and (r, x, y) not in interp.role_atoms:
                        return False
        return True

    mapping = tuple(sorted(m.items(), key=lambda kv: node_key(kv[0])))
    return Homomorphism(mapping, injective, surjective, is_strong())


# the most nodes enumerate_endomorphisms takes
MAX_ENDO_NODES = 12


def enumerate_endomorphisms(interp: Interpretation) -> List[Homomorphism]:
    """All endomorphisms, each tagged injective/surjective/strong."""
    _guard(interp, MAX_ENDO_NODES)
    out = [_classify(interp, m) for m in homomorphisms(interp, interp)]
    return sorted(out, key=lambda h: tuple(node_key(b) for _, b in h.mapping))


def run_oblivious_chase(
    sat: SaturatedTBox, abox: ABox, max_rounds: int = 32, max_nodes: int = 512
) -> Interpretation:
    """Fire rounds until nothing changes; witnesses are never reused."""
    current = abox
    for _ in range(max_rounds):
        _guard(current, max_nodes)
        fired = fire_axioms(sat, current)
        if fired == current:
            return current
        current = fired
    raise NotTerminated(max_rounds, current)


def build_model(tbox: TBox, abox: ABox, depth: int) -> Interpretation:
    """``model.build_can`` over the completion of the raw data."""
    sat = SaturatedTBox(tbox)
    return build_can(sat, complete_abox(sat, abox), depth)


def is_consistent(tbox: TBox, abox: ABox) -> bool:
    """Whether the knowledge base has a model (standard names assumed)."""
    try:
        complete_abox(SaturatedTBox(tbox), abox)
    except InconsistentKB:
        return False
    return True


# ---------------------------------------------------------------------------
# the set-based quadruple saturation: a quadruple is a (2-type, present
# witnesses P, absent witnesses Q) key holding a set of shape literals H.
# ``rewrite.rewrite`` encodes the same quadruples as integer masks and
# must emit the same constraints in the same order from as many
# quadruples. Like the last section it drives package internals
# (``rewrite._classify``, ``_split``, ``_type_universe``). A shape witness
# is the ``some [roles].$s`` body of the constraint that reads it. Both
# emit a row only for the heads that the component's constraints do not
# already derive from its own conjuncts; here that check runs on the
# entry sets and literals of each row.


@dataclass(frozen=True)
class Lit:
    """A shape literal: the name, possibly negated."""

    name: str
    neg: bool = False


def _inner_lit(body: ExistsRoles, flip: bool = False) -> Lit:
    """The literal under a shape existential, or its complement."""
    return Lit(body.body.name, isinstance(body.body, NegShapeRef) != flip)


class _Ctx:
    """Each type's concept witnesses that a step of the component crosses
    (``rewrite._crossed``): its successor candidates, the existentials its
    concepts imply, and the implied ones that are not candidates (pinned
    by the one listed neighbor)."""

    def __init__(self, st: SaturatedTBox, steps: FrozenSet[FrozenSet[Role]]):
        self.st = st
        self.steps = steps

    def cand_exprs(self, t: TwoType) -> FrozenSet[OneHalfType]:
        owed = succ_config(self.st, t.concepts, [(t.roles, t.others)])
        return frozenset(u for u in owed if _crossed(self.steps, u))

    def ie_exprs(self, concepts: FrozenSet[str]) -> FrozenSet[OneHalfType]:
        implied = self.st.implied_existentials(concepts)
        return frozenset(u for u in implied if _crossed(self.steps, u))

    def pinned(self, t: TwoType) -> FrozenSet[OneHalfType]:
        return self.ie_exprs(t.concepts) - self.cand_exprs(t)


_SetKey = Tuple[TwoType, FrozenSet[Entry], FrozenSet[Entry]]
_SetK = Dict[_SetKey, Set[Lit]]


def _set_slot(K: _SetK, key: _SetKey) -> Set[Lit]:
    return K.setdefault(key, set())


def _concept_part(entries: Iterable[Entry]) -> FrozenSet[OneHalfType]:
    return frozenset(e for e in entries if isinstance(e, OneHalfType))


def _set_seed(ctx: _Ctx, universe: Sequence[TwoType]) -> _SetK:
    K: _SetK = {}
    for t in universe:
        cand = sorted(ctx.cand_exprs(t), key=_entry_key)
        ie = ctx.ie_exprs(t.concepts)
        for n in range(len(cand) + 1):
            for combo in itertools.combinations(cand, n):
                q = frozenset(combo)
                p: FrozenSet[Entry] = frozenset(ie - q)
                _set_slot(K, (t, p, q))
    return K


def _set_close(cons: Sequence[Constraint], K: _SetK, ctx: _Ctx) -> None:
    by_concept, by_ind, by_ref, by_and, by_neg, by_exists = _classify_constraints(cons)
    read: Dict[_SetKey, int] = {}  # |H| of each key when the last merge step ran
    while True:
        changed = False
        items = list(K.items())

        for (t, p, q), h in items:
            bare = not t.roles and not t.others
            for head, a in by_concept:
                if (a == TOP or a in t.concepts) and Lit(head) not in h:
                    h.add(Lit(head))
                    changed = True
            for head, ref in by_ind:
                if ref in q:
                    continue
                lit = Lit(head)
                tgt = _set_slot(K, (t, p | {ref}, q))
                need = (h | {lit}) - tgt
                if need:
                    tgt.update(h | {lit})
                    changed = True
            for head, e in by_exists:
                if e in q:
                    continue
                ok = e.roles <= t.roles or bare
                if not ok:
                    ok = any(
                        e.roles <= b.roles
                        for b in p
                        if isinstance(b, OneHalfType)
                    )
                if not ok:
                    continue
                lit = Lit(head)
                tgt = _set_slot(K, (t, p | {e}, q))
                need = (h | {lit}) - tgt
                if need:
                    tgt.update(h | {lit})
                    changed = True
            for head, inner in by_ref:
                if Lit(inner) in h and Lit(head) not in h:
                    h.add(Lit(head))
                    changed = True
            for head, left, right in by_and:
                if Lit(left) in h and Lit(right) in h and Lit(head) not in h:
                    h.add(Lit(head))
                    changed = True
            for head, inner in by_neg:
                if Lit(inner, neg=True) in h and Lit(head) not in h:
                    h.add(Lit(head))
                    changed = True

        if by_exists:
            items = list(K.items())
            children = []
            for (tc, pc, qc), hc in items:
                if any(isinstance(e, IndividualRef) for e in pc):
                    continue
                if _concept_part(pc) != ctx.pinned(tc):
                    continue
                edge = frozenset(r.invert() for r in tc.roles)
                discharge_a = frozenset(
                    _inner_lit(e) for e in pc if isinstance(e, ExistsRoles)
                )
                discharge_b = frozenset(
                    _inner_lit(e, flip=True)
                    for e in qc
                    if isinstance(e, ExistsRoles) and e.roles <= tc.roles
                )
                children.append((tc, edge, hc, discharge_a | discharge_b))
            for (t, p, q), h in items:
                for head, e in by_exists:
                    if Lit(head) in h:
                        continue
                    for tc, edge, hc, discharge in children:
                        if _inner_lit(e) not in hc:
                            continue
                        if tc.others != t.concepts or not e.roles <= edge:
                            continue
                        if OneHalfType(edge, tc.concepts) not in q:
                            continue
                        if not discharge <= h:
                            continue
                        h.add(Lit(head))
                        changed = True
                        break

        buckets: Dict[
            Tuple[TwoType, FrozenSet[OneHalfType]],
            Tuple[List[_SetKey], List[_SetKey]],
        ] = {}
        for key, h in K.items():
            t, _, q = key
            fresh, old = buckets.setdefault((t, _concept_part(q)), ([], []))
            (fresh if read.get(key) != len(h) else old).append(key)
        read = {key: len(h) for key, h in K.items()}
        for fresh, old in buckets.values():
            pairs = itertools.chain(
                itertools.combinations(fresh, 2), itertools.product(fresh, old)
            )
            for k1, k2 in pairs:
                merged = (k1[0], k1[1] | k2[1], k1[2] | k2[2])
                lits = K[k1] | K[k2]
                tgt = _set_slot(K, merged)
                if not lits <= tgt:
                    tgt.update(lits)
                    changed = True

        if not changed:
            return


def _set_completion(
    K: _SetK, cons: Sequence[Constraint], extra_settled: FrozenSet[str]
) -> _SetK:
    settled = sorted(shape_names(cons) | extra_settled)
    _, by_ind, _, _, _, by_exists = _classify_constraints(cons)
    out: _SetK = {}
    for (t, p, q), h in K.items():
        q_new = set(q)
        for head, e in by_exists:
            if Lit(head) not in h:
                q_new.add(e)
        for head, ref in by_ind:
            if Lit(head) not in h:
                q_new.add(ref)
        h_new = set(h)
        for name in settled:
            if Lit(name) not in h:
                h_new.add(Lit(name, neg=True))
        out.setdefault((t, frozenset(p), frozenset(q_new)), set()).update(h_new)
    return out


def _set_key_sort(item: Tuple[_SetKey, Set[Lit]]) -> Tuple:
    (t, p, q), _ = item
    return (
        type_key(t),
        tuple(sorted(str(e) for e in p)),
        tuple(sorted(str(e) for e in q)),
    )


def _entry_body(e: Entry) -> ShapeBody:
    """The conjunct an entry stands for, built fresh."""
    if isinstance(e, OneHalfType):
        return ExistsRoles(e.roles, _and_chain([ConceptRef(c) for c in sorted(e.concepts)]))
    return e


def derived_lits(
    cons: Sequence[Constraint], concepts: Iterable[str], present: Iterable[ShapeBody]
) -> Set[Lit]:
    """The literals the normal-form constraints ``cons`` alone derive at a
    node with the concept names ``concepts`` where the bodies ``present``
    hold, reading no negated reference."""
    by_concept, by_ind, by_ref, by_and, _, by_exists = _classify_constraints(cons)
    concepts, present = set(concepts), set(present)
    h = {Lit(head) for head, a in by_concept if a == TOP or a in concepts}
    h |= {Lit(head) for head, body in by_ind + by_exists if body in present}
    while True:
        more = {Lit(head) for head, inner in by_ref if Lit(inner) in h}
        more |= {Lit(head) for head, left, right in by_and if {Lit(left), Lit(right)} <= h}
        if more <= h:
            return h
        h |= more


def _set_emit(
    K: _SetK, heads: FrozenSet[str], sig: FrozenSet[str], cons: Sequence[Constraint]
) -> List[Constraint]:
    """The rows for ``heads`` that the component's constraints ``cons`` do
    not already derive from their own conjuncts, minimal per head."""
    per_head: Dict[str, Dict[FrozenSet[str], List[ShapeBody]]] = {}
    for (t, p, q), h in sorted(K.items(), key=_set_key_sort):
        if p & q:
            continue
        fired = {lit for lit in h if not lit.neg and lit.name in heads}
        names = sorted(lit.name for lit in fired - derived_lits(cons, t.concepts, p))
        if not names:
            continue
        parts: List[ShapeBody] = [ConceptRef(a) for a in sorted(t.concepts)]
        parts += [Not(ConceptRef(a)) for a in sorted(sig - t.concepts)]
        parts += [_entry_body(e) for e in sorted(p, key=_entry_key)]
        parts += [Not(_entry_body(e)) for e in sorted(q, key=_entry_key)]
        tokens = frozenset(str(x) for x in parts)
        for name in names:
            per_head.setdefault(name, {}).setdefault(tokens, parts)
    out: List[Constraint] = []
    for head in sorted(per_head):
        cands = per_head[head]
        # a body whose conjuncts include all of another body's is subsumed
        for tok in sorted(cands, key=lambda t: (len(t), sorted(t))):
            if any(other < tok for other in cands):
                continue
            out.append(Constraint(head, _and_chain(cands[tok])))
    return out


def set_rewrite(
    st: SaturatedTBox, strat: Stratification, drop_derived: bool = True
) -> Tuple[Tuple[Constraint, ...], int, int]:
    """``rewrite.rewrite`` over sets of objects, combining every pair of a
    merge bucket, vacuous unions too: the rewriting, the summed quadruple
    count and the summed count of satisfiable quadruples, those whose P
    and Q share no witness, with no budget. With ``drop_derived`` false it
    also emits the rows the constraints already derive."""
    out: List[Constraint] = []
    quadruples = satisfiable = 0
    for strata in _split(strat):
        cons = [c for group in strata for c in group]
        steps = _live_steps(st, cons)
        out.extend(cons)
        if not steps:
            continue
        sig = _signature(st, cons, steps)
        ctx = _Ctx(st, steps)
        K = _set_seed(ctx, _type_universe(st, sig, steps))
        occurring = shape_names(cons)
        for i, group in enumerate(strata):
            scope = tuple(c for g in strata[:i] for c in g)
            later_heads = {c.head for g in strata[i:] for c in g}
            settled = frozenset(n for n in occurring if n not in later_heads)
            K = _set_completion(K, scope, settled)
            _set_close(group, K, ctx)
            heads = frozenset(c.head for c in group)
            out.extend(_set_emit(K, heads, sig, cons if drop_derived else ()))
        quadruples += len(K)
        satisfiable += sum(not p & q for _, p, q in K)
    return tuple(dict.fromkeys(out)), quadruples, satisfiable


# ---------------------------------------------------------------------------
# C_T's rows as Boolean functions. ``rewrite._emit`` merges each head's
# rows, and ``_set_emit`` above keeps one row per type and witness split.
# The two must agree as disjunctions on every valuation of their conjuncts
# that a node of consistent completed data can have: one whose concept
# names agree on the signature with a type of the component's universe.
# Each printed atom is a variable, and each function a truth table with
# one bit per valuation of the head's atoms.


def _row_literals(body: ShapeBody) -> List[Tuple[str, bool]]:
    """A row's conjuncts, each its printed atom and whether it is negated;
    the empty row ``top`` has none."""
    if isinstance(body, And):
        return _row_literals(body.left) + _row_literals(body.right)
    if body == ConceptRef(TOP):
        return []
    if isinstance(body, Not):
        return [(str(body.body), True)]
    return [(str(body), False)]


def disagreeing_heads(
    st: SaturatedTBox, strat: Stratification, got: Sequence[Constraint], want: Sequence[Constraint]
) -> List[str]:
    """The heads whose rows, the items of ``got`` and ``want`` that are not
    normal-form constraints of ``strat``, differ as disjunctions on some
    valuation whose concept names agree with a type of the component's
    universe on its signature."""
    source = {c for group in strat.strata for c in group}
    bad = []
    for strata in _split(strat):
        cons = [c for group in strata for c in group]
        steps = _live_steps(st, cons)
        if not steps:
            continue
        sig = _signature(st, cons, steps)
        parts = {t.concepts & sig for t in _type_universe(st, sig, steps)}
        heads = {c.head for c in cons}
        rows: Dict[str, Tuple[list, list]] = {}
        for k, out in enumerate((got, want)):
            for c in out:
                if c.head in heads and c not in source:
                    rows.setdefault(c.head, ([], []))[k].append(_row_literals(c.body))
        for head, pair in sorted(rows.items()):
            atoms = sorted({a for lits in pair[0] + pair[1] for a, _ in lits})
            full = (1 << (1 << len(atoms))) - 1
            table = {}
            for k, a in enumerate(atoms):
                half = 1 << k
                table[a] = full // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half)

            def conj(lits) -> int:
                m = full
                for a, neg in lits:
                    m &= full ^ table[a] if neg else table[a]
                return m

            named = [a for a in atoms if a in sig]
            domain = 0
            for part in parts:
                domain |= conj((a, a not in part) for a in named)
            merged, reference = (reduce(int.__or__, map(conj, side), 0) for side in pair)
            if (merged ^ reference) & domain:
                bad.append(head)
    return bad


def full_signature(
    st: SaturatedTBox, cons: Sequence[Constraint], steps: FrozenSet[FrozenSet[Role]]
) -> FrozenSet[str]:
    """Every concept name of the TBox and of the constraints, whatever the
    steps: the widest signature a component's rewriting can range over,
    and so a stand-in for ``rewrite._signature`` that drops nothing."""
    return (st.tbox.concept_names() | concept_names(cons)) - {TOP, BOT}


# ---------------------------------------------------------------------------
# the pure rewritings, substituted at every occurrence: ``_subst`` rebuilds
# a node each time a body reaches it, the sub-role choices are recomputed
# at each role existential, and the concept names and roles of C_T come
# from walking its bodies again. ``rewrite.pure_rewrite_alchi`` and
# ``pure_rewrite_shaclb`` visit each shared node once and must print the
# same items in the same order. The TBox's part of each is the package's.


def occurrence_subst(
    body: ShapeBody, exists: Callable[[FrozenSet[Role], ShapeBody], ShapeBody]
) -> ShapeBody:
    if isinstance(body, ConceptRef):
        if body.name in (TOP, BOT):
            return body
        return ShapeRef(_concept_shape(body.name))
    if isinstance(body, (IndividualRef, ShapeRef, NegShapeRef)):
        return body
    if isinstance(body, (And, Or)):
        return type(body)(occurrence_subst(body.left, exists), occurrence_subst(body.right, exists))
    if isinstance(body, Not):
        return Not(occurrence_subst(body.body, exists))
    if isinstance(body, ExistsRoles):
        return exists(body.roles, occurrence_subst(body.body, exists))
    raise ValueError(f"cannot substitute inside {body!r}")


def occurrence_roles_in(body: ShapeBody) -> Set[Role]:
    if isinstance(body, ExistsRoles):
        return set(body.roles) | occurrence_roles_in(body.body)
    if isinstance(body, (And, Or)):
        return occurrence_roles_in(body.left) | occurrence_roles_in(body.right)
    if isinstance(body, Not):
        return occurrence_roles_in(body.body)
    return set()


def occurrence_pure_alchi(st: SaturatedTBox, c_t: Sequence[Constraint]) -> Tuple[Constraint, ...]:
    """``rewrite.pure_rewrite_alchi`` for a TBox without counting axioms."""
    ts = _alchi_tbox(st) + _concept_seeds(st, concept_names(c_t))
    all_roles = sorted(st.tbox.all_roles())
    subroles = {
        r: [r] + [s for s in all_roles if s != r and r in st.superroles(s)]
        for r in all_roles
    }

    def exists(roles: FrozenSet[Role], inner: ShapeBody) -> ShapeBody:
        choices = [subroles.get(r, [r]) for r in sorted(_simplify_roles(st, roles))]
        picks = itertools.product(*choices)
        return reduce(Or, [ExistsRoles(frozenset(pick), inner) for pick in picks])

    replaced = [Constraint(c.head, occurrence_subst(c.body, exists)) for c in c_t]
    return tuple(dict.fromkeys(replaced + ts))


def occurrence_pure_shaclb(st: SaturatedTBox, c_t: Sequence[Constraint]) -> Tuple[Item, ...]:
    """``rewrite.pure_rewrite_shaclb``."""
    base_roles = set(st.tbox.all_roles())
    for c in c_t:
        base_roles.update(occurrence_roles_in(c.body))
    ts = _shaclb_tbox(st) + _role_bases(base_roles) + _concept_seeds(st, concept_names(c_t))
    replaced: List[Item] = [
        Constraint(c.head, occurrence_subst(c.body, _exists_via_edge_shapes)) for c in c_t
    ]
    return tuple(dict.fromkeys(replaced + ts))


# ---------------------------------------------------------------------------
# axiom, constraint, data and target lines read by the cursor alone, and
# the report through ``json.dumps``: ``formats.parse_tbox``,
# ``parse_constraints``, ``parse_abox``, ``parse_targets`` and
# ``report_to_json`` must return the same values, raise the same errors
# and write the same bytes.


def cursor_parse_tbox(text: str, source: str = "<tbox>") -> TBox:
    axioms: List[Axiom] = []
    for line_no, body in _lines(text):
        cur = _Cursor(body, line_no, source)
        first = _lead(cur)
        if isinstance(first, Role):
            cur.eat("<=")
            sup = _role(cur)
            cur.expect_done()
            axioms.append(RoleInclusion(first, sup))
            continue
        lhs = [first]
        while cur.try_eat("&"):
            lhs.append(_concept(cur))
        cur.eat("<=")
        kind = _peek_word(cur)
        if kind in ("some", "only", "max1"):
            cur.ident("a keyword")
            if len(lhs) != 1:
                raise cur.error("restrictions take a single concept on the left")
            role = _role(cur)
            cur.eat(".")
            if cur.peek() == "(":
                raise cur.error("compound fillers are not allowed; name the conjunction")
            filler = _concept(cur)
            cur.expect_done()
            ctor = {"some": ExistsInclusion, "only": ValueRestriction, "max1": AtMostOne}[kind]
            axioms.append(ctor(lhs[0], role, filler))
        else:
            rhs = _concept(cur)
            cur.expect_done()
            axioms.append(ConjInclusion(frozenset(lhs), rhs))
    return TBox.of(axioms)


def cursor_parse_constraints(
    text: str, source: str = "<shacl>", renaming: Optional[Dict[str, Role]] = None
) -> List[Constraint]:
    out: List[Constraint] = []
    for line_no, body in _lines(text):
        cur = _Cursor(body, line_no, source, renaming)
        head = _shape_name(cur)
        cur.eat("<-")
        expr = _body_alt(cur)
        cur.expect_done()
        out.append(Constraint(head, expr))
    return out


def cursor_parse_abox(
    text: str, source: str = "<abox>", renaming: Optional[Dict[str, Role]] = None
) -> ABox:
    concepts: List[Tuple[str, str]] = []
    roles: List[Tuple[Role, str, str]] = []
    for line_no, body in _lines(text):
        cur = _Cursor(body, line_no, source, renaming)
        first = _lead(cur)
        if isinstance(first, Role):
            cur.eat("(")
            a = cur.ident("an individual")
            cur.eat(",")
            b = cur.ident("an individual")
            cur.eat(")")
            cur.expect_done()
            roles.append((first, a, b))
        else:
            c = first
            if c in (TOP, BOT):
                raise cur.error(f"{c!r} cannot be asserted", len(c))
            cur.eat("(")
            a = cur.ident("an individual")
            cur.eat(")")
            cur.expect_done()
            concepts.append((c, a))
    return ABox.of(concepts=concepts, roles=roles)


def cursor_parse_targets(text: str, source: str = "<targets>") -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for line_no, body in _lines(text):
        cur = _Cursor(body, line_no, source)
        shape = _shape_name(cur)
        cur.eat("(")
        cur.eat("@")
        ind = cur.ident("an individual")
        cur.eat(")")
        cur.expect_done()
        out.append((shape, ind))
    return out


def json_report(
    consistent: bool,
    mode: str,
    targets: Sequence[Tuple[str, str, Optional[bool]]],
    stats: Dict[str, int],
) -> str:
    doc = {
        "consistent": consistent,
        "mode": mode,
        "targets": [{"shape": s, "node": n, "valid": v} for s, n, v in targets],
        "stats": {k: stats[k] for k in sorted(stats)},
    }
    return json.dumps(doc, indent=2) + "\n"
