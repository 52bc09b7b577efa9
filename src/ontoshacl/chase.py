"""Chase procedures and core computation, sized for test instances.

``fire_axioms`` performs one parallel oblivious round: every
existential fires regardless of existing witnesses, with nulls keyed by
(trigger, parent) so a refire is a no-op. ``core_of`` shrinks a finite
structure by iterated proper retractions. ``run_core_chase`` alternates
the two. ``homomorphisms`` is the one search for structure-preserving
maps: ``core_of`` takes its first retraction from it and
``is_isomorphic`` its first injective map. It is plain backtracking,
guarded by one node bound, ``MAX_CHASE_NODES``, which
``run_core_chase`` also applies to each state before firing; this
module exists to cross-check the model builder, not to validate
production data.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .core import (
    TOP,
    ABox,
    GraphIndex,
    Interpretation,
    Node,
    Null,
    node_key,
)
from .tbox import SaturatedTBox

# the chase's one bound: the most nodes its isomorphism test takes, and
# so the most a state may have before a round fires
MAX_CHASE_NODES = 64


class SizeGuardExceeded(ValueError):
    pass


class NotTerminated(RuntimeError):
    """Core chase did not reach a fixpoint within the round budget."""

    def __init__(self, rounds: int, last: Interpretation):
        super().__init__(f"no fixpoint after {rounds} rounds")
        self.rounds = rounds
        self.last = last


# ---------------------------------------------------------------------------
# oblivious firing


def fire_axioms(sat: SaturatedTBox, atoms: Interpretation) -> Interpretation:
    """One parallel oblivious step followed by the at-most-one substitution."""
    tbox = sat.tbox
    index = GraphIndex.of(atoms)
    nodes: Set[Node] = set(atoms.nodes)
    domain = atoms.domain()

    for ax in tbox.conj:
        for x in domain:
            if ax.lhs <= atoms.concepts_of(x):
                index.add_concept(ax.rhs, x)
    for ax in tbox.value:
        for x, ys in atoms.adjacency(ax.role).items():
            if atoms.has_concept(ax.lhs, x):
                for y in ys:
                    index.add_concept(ax.filler, y)
    for ax in tbox.exists:
        for x in domain:
            if not atoms.has_concept(ax.lhs, x):
                continue
            y = Null(f"{x}!{ax.lhs}.{ax.role}.{ax.filler}")
            nodes.add(y)
            index.add_role(ax.role, x, y)
            if ax.filler != TOP:
                index.add_concept(ax.filler, y)
    for ax in tbox.roles:
        for x, ys in atoms.adjacency(ax.sub).items():
            for y in ys:
                index.add_role(ax.sup, x, y)

    return _merge_counted(tbox, index.seal(nodes, atoms.complete))


def _merge_counted(tbox, interp: Interpretation) -> Interpretation:
    """Substitute away duplicate witnesses of at-most-one axioms, one
    pair per scan.

    Keeps named individuals; among nulls keeps the smallest. Two named
    witnesses are left alone (that KB is inconsistent and gated
    elsewhere).
    """
    axioms = sorted(tbox.atmost, key=str)
    while (pair := _first_merge(axioms, interp)) is not None:
        drop, keep = pair
        swap = {drop: keep}
        interp = GraphIndex(
            ((c, swap.get(n, n)) for c, n in interp.concept_atoms),
            ((r, swap.get(a, a), swap.get(b, b)) for r, a, b in interp.role_atoms),
        ).seal(interp.nodes - {drop}, interp.complete)
    return interp


def _first_merge(axioms, interp: Interpretation) -> Optional[Tuple[Node, Node]]:
    """The first pair of witnesses to merge, as (drop, keep): axioms in
    the given order, nodes in ``domain()`` order; None when none is left."""
    for ax in axioms:
        for x in interp.domain():
            if not interp.has_concept(ax.lhs, x):
                continue
            wits = [y for y in interp.successors(x, ax.role) if interp.has_concept(ax.filler, y)]
            named = [w for w in wits if isinstance(w, str)]
            unnamed = sorted((w for w in wits if not isinstance(w, str)), key=node_key)
            if named and unnamed:
                return unnamed[0], min(named)
            if len(unnamed) > 1:
                return unnamed[1], unnamed[0]
    return None


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
    links = src.links()

    def ok(x: Node, y: Node, partial: Dict[Node, Node]) -> bool:
        if y in avoid or (injective and y in partial.values()):
            return False
        if not src.concepts_of(x) <= dst.concepts_of(y):
            return False
        for z, roles in links.get(x, {}).items():
            image = y if z == x else partial.get(z)
            if image is not None and not all(dst.has_edge(r, y, image) for r in roles):
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


def core_of(atoms: Interpretation) -> Interpretation:
    """The unique-up-to-isomorphism core, by iterated proper retraction."""
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
        cored = core_of(fired)
        if trace is not None:
            trace.append((fired, cored))
        if is_isomorphic(cored, current):
            return current
        current = cored
    raise NotTerminated(max_rounds, current)


def is_isomorphic(a: Interpretation, b: Interpretation) -> bool:
    """Bijective strong homomorphism fixing named individuals.

    With equal node and atom counts, an injective homomorphism is one: it
    maps the atoms of a one to one into those of b, so onto them.
    """
    _guard(a, MAX_CHASE_NODES)
    _guard(b, MAX_CHASE_NODES)
    if a.individuals() != b.individuals():
        return False
    if len(a.nodes) != len(b.nodes):
        return False
    if len(a.concept_atoms) != len(b.concept_atoms) or len(a.role_atoms) != len(b.role_atoms):
        return False
    return next(homomorphisms(a, b, injective=True), None) is not None
