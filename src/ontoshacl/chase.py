"""Chase procedures and core computation, sized for test instances.

``fire_axioms`` performs one parallel oblivious round: every
existential fires regardless of existing witnesses, with nulls keyed by
(trigger, parent) so a refire is a no-op. ``core_of`` shrinks a finite
structure by iterated proper retractions. ``run_core_chase`` alternates
the two. Endomorphism enumeration is plain backtracking and guarded by
a node bound; this module exists to cross-check the model builder, not
to validate production data.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .core import (
    TOP,
    ABox,
    Interpretation,
    Node,
    Null,
    Role,
    node_key,
)
from .tbox import SaturatedTBox

DEFAULT_NODE_BOUND = 12


class SizeGuardExceeded(ValueError):
    pass


class NotTerminated(RuntimeError):
    """Core chase did not reach a fixpoint within the round budget."""

    def __init__(self, rounds: int, last: Interpretation):
        super().__init__(f"no fixpoint after {rounds} rounds")
        self.rounds = rounds
        self.last = last


def _node_sig(n: Node) -> str:
    if isinstance(n, str):
        return n
    if isinstance(n, Null):
        return f"_n:{n.key}"
    return n.base + "".join("." + str(t) for t in n.path)


# ---------------------------------------------------------------------------
# oblivious firing


def fire_axioms(sat: SaturatedTBox, atoms: Interpretation) -> Interpretation:
    """One parallel oblivious step followed by the at-most-one substitution."""
    tbox = sat.tbox
    nodes: Set[Node] = set(atoms.nodes)
    concepts: Set[Tuple[str, Node]] = set(atoms.concept_atoms)
    edges: Set[Tuple[str, Node, Node]] = set(atoms.role_atoms)

    def holds(c: str, n: Node) -> bool:
        return c == TOP or (c, n) in atoms.concept_atoms

    for ax in tbox.conj:
        for x in atoms.domain():
            if ax.lhs <= atoms.concepts_of(x):
                concepts.add((ax.rhs, x))
    for ax in tbox.value:
        for x in atoms.domain():
            if not holds(ax.lhs, x):
                continue
            for y in atoms.successors(x, ax.role):
                concepts.add((ax.filler, y))
    for ax in tbox.exists:
        for x in atoms.domain():
            if not holds(ax.lhs, x):
                continue
            y = Null(f"{_node_sig(x)}!{ax.lhs}.{ax.role}.{ax.filler}")
            nodes.add(y)
            if ax.role.inverted:
                edges.add((ax.role.name, y, x))
            else:
                edges.add((ax.role.name, x, y))
            if ax.filler != TOP:
                concepts.add((ax.filler, y))
    for ax in tbox.roles:
        for name, x, y in atoms.role_atoms:
            if Role(name) == ax.sub:
                pair = (y, x) if ax.sup.inverted else (x, y)
                edges.add((ax.sup.name, *pair))
            if Role(name, True) == ax.sub:
                pair = (x, y) if ax.sup.inverted else (y, x)
                edges.add((ax.sup.name, *pair))

    return _merge_counted(tbox, Interpretation(frozenset(concepts), frozenset(edges), frozenset(nodes), atoms.complete))


def _merge_counted(tbox, interp: Interpretation) -> Interpretation:
    """Substitute away duplicate witnesses of at-most-one axioms.

    Keeps named individuals; among nulls keeps the smallest. Two named
    witnesses are left alone (that KB is inconsistent and gated
    elsewhere).
    """
    nodes = set(interp.nodes)
    concepts = set(interp.concept_atoms)
    edges = set(interp.role_atoms)

    def substitute(drop: Node, keep: Node) -> None:
        nodes.discard(drop)
        for c, n in list(concepts):
            if n == drop:
                concepts.discard((c, n))
                concepts.add((c, keep))
        for r, a, b in list(edges):
            if a == drop or b == drop:
                edges.discard((r, a, b))
                edges.add((r, keep if a == drop else a, keep if b == drop else b))

    changed = True
    while changed:
        changed = False
        view = Interpretation(frozenset(concepts), frozenset(edges), frozenset(nodes))
        for ax in sorted(tbox.atmost, key=str):
            for x in view.domain():
                if ax.lhs != TOP and not view.has_concept(ax.lhs, x):
                    continue
                wits = [
                    y
                    for y in view.successors(x, ax.role)
                    if ax.filler == TOP or view.has_concept(ax.filler, y)
                ]
                if len(wits) < 2:
                    continue
                named = [w for w in wits if isinstance(w, str)]
                unnamed = [w for w in wits if not isinstance(w, str)]
                if not unnamed or (not named and len(unnamed) < 2):
                    continue
                if named:
                    keep = min(named, key=node_key)
                    drop = min(unnamed, key=node_key)
                else:
                    keep, drop, *_ = sorted(unnamed, key=node_key)
                substitute(drop, keep)
                changed = True
                break
            if changed:
                break
    return Interpretation(
        frozenset(concepts), frozenset(edges), frozenset(nodes), interp.complete
    )


# ---------------------------------------------------------------------------
# morphisms


def _guard(interp: Interpretation, max_nodes: int) -> None:
    if len(interp.nodes) > max_nodes:
        raise SizeGuardExceeded(
            f"{len(interp.nodes)} nodes exceeds the configured bound {max_nodes}"
        )


def _search_endos(
    interp: Interpretation,
    forbidden_image: FrozenSet[Node] = frozenset(),
    first_only: bool = False,
) -> List[Dict[Node, Node]]:
    nodes = interp.domain()
    ctypes = {n: interp.concepts_of(n) for n in nodes}
    out_edges: Dict[Node, List[Tuple[str, Node]]] = {n: [] for n in nodes}
    in_edges: Dict[Node, List[Tuple[str, Node]]] = {n: [] for n in nodes}
    for r, a, b in sorted(interp.role_atoms, key=lambda e: (e[0], node_key(e[1]), node_key(e[2]))):
        out_edges[a].append((r, b))
        in_edges[b].append((r, a))
    results: List[Dict[Node, Node]] = []

    def ok(x: Node, y: Node, partial: Dict[Node, Node]) -> bool:
        if y in forbidden_image:
            return False
        if not ctypes[x] <= ctypes[y]:
            return False
        for r, b in out_edges[x]:
            if b in partial and (r, y, partial[b]) not in interp.role_atoms:
                return False
            if b == x and (r, y, y) not in interp.role_atoms:
                return False
        for r, a in in_edges[x]:
            if a in partial and (r, partial[a], y) not in interp.role_atoms:
                return False
        return True

    def rec(i: int, partial: Dict[Node, Node]) -> bool:
        if i == len(nodes):
            results.append(dict(partial))
            return first_only
        x = nodes[i]
        cands = [x] if isinstance(x, str) else nodes
        for y in cands:
            if ok(x, y, partial):
                partial[x] = y
                if rec(i + 1, partial):
                    return True
                del partial[x]
        return False

    rec(0, {})
    return results


def core_of(atoms: Interpretation, max_nodes: int = DEFAULT_NODE_BOUND) -> Interpretation:
    """The unique-up-to-isomorphism core, by iterated proper retraction."""
    _guard(atoms, max_nodes)
    current = atoms
    shrunk = True
    while shrunk:
        shrunk = False
        for v in current.domain():
            if isinstance(v, str):
                continue
            found = _search_endos(current, forbidden_image=frozenset({v}), first_only=True)
            if found:
                current = current.restrict(set(found[0].values()))
                shrunk = True
                break
    return current


def run_core_chase(
    sat: SaturatedTBox,
    abox: ABox,
    max_rounds: int = 10,
    trace: Optional[List[Tuple[Interpretation, Interpretation]]] = None,
) -> Interpretation:
    """Alternate firing and coring until a round changes nothing.

    When given, ``trace`` collects each round's (fired, cored) pair,
    including the final no-op round that confirms the fixpoint.
    """
    current = abox
    for _ in range(max_rounds):
        fired = fire_axioms(sat, current)
        cored = core_of(fired, max_nodes=max(DEFAULT_NODE_BOUND, len(fired.nodes)))
        if trace is not None:
            trace.append((fired, cored))
        if is_isomorphic(cored, current):
            return current
        current = cored
    raise NotTerminated(max_rounds, current)


def is_isomorphic(a: Interpretation, b: Interpretation, max_nodes: int = 64) -> bool:
    """Bijective strong homomorphism fixing named individuals."""
    _guard(a, max_nodes)
    _guard(b, max_nodes)
    if len(a.nodes) != len(b.nodes):
        return False
    if len(a.concept_atoms) != len(b.concept_atoms) or len(a.role_atoms) != len(b.role_atoms):
        return False
    if a.individuals() != b.individuals():
        return False

    a_nodes = a.domain()
    b_nodes = b.domain()
    a_ct = {n: a.concepts_of(n) for n in a_nodes}
    b_ct = {n: b.concepts_of(n) for n in b_nodes}
    if sorted(map(sorted, a_ct.values())) != sorted(map(sorted, b_ct.values())):
        return False

    def ok(x: Node, y: Node, partial: Dict[Node, Node]) -> bool:
        if a_ct[x] != b_ct[y]:
            return False
        for r, s, t in a.role_atoms:
            if s == x and (t in partial or t == x):
                if (r, y, y if t == x else partial[t]) not in b.role_atoms:
                    return False
            if t == x and s in partial and s != x:
                if (r, partial[s], y) not in b.role_atoms:
                    return False
        for r, s, t in b.role_atoms:
            inv = {v: k for k, v in partial.items()}
            inv[y] = x
            if s == y and t in inv and (r, x, inv[t]) not in a.role_atoms:
                return False
            if t == y and s in inv and (r, inv[s], x) not in a.role_atoms:
                return False
        return True

    def rec(i: int, partial: Dict[Node, Node], used: Set[Node]) -> bool:
        if i == len(a_nodes):
            return True
        x = a_nodes[i]
        if isinstance(x, str):
            cands = [x]
        else:
            cands = [y for y in b_nodes if not isinstance(y, str) and y not in used]
        for y in cands:
            if y in used:
                continue
            if ok(x, y, partial):
                partial[x] = y
                used.add(y)
                if rec(i + 1, partial, used):
                    return True
                del partial[x]
                used.discard(y)
        return False

    return rec(0, {}, set())
