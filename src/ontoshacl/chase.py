"""Chase procedures and core computation, sized for test instances.

``fire_axioms`` performs one parallel oblivious round: every
existential fires regardless of existing witnesses, with nulls keyed by
(trigger, parent) so a refire is a no-op. ``core_of`` shrinks a finite
structure by iterated proper retractions. ``run_core_chase`` alternates
the two. ``homomorphisms`` is the one search for structure-preserving
maps: ``core_of`` takes its first retraction from it and
``is_isomorphic`` its first injective map. It is plain backtracking,
guarded by a node bound; this module exists to cross-check the model
builder, not to validate production data.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

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
# the most nodes the chase's isomorphism test takes, and so its data
MAX_CHASE_NODES = 64


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


def homomorphisms(
    src: Interpretation,
    dst: Interpretation,
    avoid: FrozenSet[Node] = frozenset(),
    injective: bool = False,
) -> Iterator[Dict[Node, Node]]:
    """Every homomorphism from src to dst that fixes named individuals and
    has no image in ``avoid``, by backtracking: src nodes in ``domain()``
    order, candidates in ``dst.domain()`` order."""
    nodes = src.domain()
    targets = dst.domain()

    def ok(x: Node, y: Node, partial: Dict[Node, Node]) -> bool:
        if y in avoid or (injective and y in partial.values()):
            return False
        if not src.concepts_of(x) <= dst.concepts_of(y):
            return False
        for z, roles in src.links(x).items():
            image = y if z == x else partial.get(z)
            if image is not None and not roles <= dst.roles_between(y, image):
                return False
        return True

    def rec(i: int, partial: Dict[Node, Node]) -> Iterator[Dict[Node, Node]]:
        if i == len(nodes):
            yield dict(partial)
            return
        x = nodes[i]
        if isinstance(x, str):
            cands = [x] if x in dst.nodes else []
        else:
            cands = targets
        for y in cands:
            if ok(x, y, partial):
                partial[x] = y
                yield from rec(i + 1, partial)
                del partial[x]

    return rec(0, {})


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
            found = next(homomorphisms(current, current, avoid=frozenset({v})), None)
            if found is not None:
                current = current.restrict(set(found.values()))
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
        # refuse before firing: coring keeps every named individual, so
        # the isomorphism test would refuse too many only after the round
        _guard(current, MAX_CHASE_NODES)
        fired = fire_axioms(sat, current)
        cored = core_of(fired, max_nodes=max(DEFAULT_NODE_BOUND, len(fired.nodes)))
        if trace is not None:
            trace.append((fired, cored))
        if is_isomorphic(cored, current):
            return current
        current = cored
    raise NotTerminated(max_rounds, current)


def is_isomorphic(
    a: Interpretation, b: Interpretation, max_nodes: int = MAX_CHASE_NODES
) -> bool:
    """Bijective strong homomorphism fixing named individuals.

    With equal node and atom counts, an injective homomorphism is one: it
    maps the atoms of a one to one into those of b, so onto them.
    """
    _guard(a, max_nodes)
    _guard(b, max_nodes)
    if a.individuals() != b.individuals():
        return False
    if len(a.nodes) != len(b.nodes):
        return False
    if len(a.concept_atoms) != len(b.concept_atoms) or len(a.role_atoms) != len(b.role_atoms):
        return False
    return next(homomorphisms(a, b, injective=True), None) is not None
