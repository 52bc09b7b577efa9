"""Canonical model machinery.

``complete_abox`` closes the data graph under the TBox (the named part
of the core universal model) inside the ``core.GraphIndex`` that its
result reads. ``build_can`` grows the anonymous part breadth-first, in
a copy of that index (``GraphIndex.of``), up to a depth bound, tracking
whether the result is the whole model or a truncation.

Anonymous nodes are words over 2-type letters. A letter (X, R, Y) says:
the parent satisfies exactly X, the edge into the child carries exactly
the roles R, and the child satisfies exactly Y.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Set, Tuple

from .core import (
    BOT,
    TOP,
    ABox,
    Anon,
    GraphIndex,
    Interpretation,
    Node,
    OneHalfType,
    Role,
    TBox,
    TwoType,
    bare_type,
    half_type_key,
    type_key,
)
from .tbox import SaturatedTBox

# Selftest mutation hook: when true, the subsumption filter in succ_config is
# skipped, which breaks the austere-model guarantees in a detectable way.
INJECT_SUCC_FILTER_BUG = False


# build_can refuses to make a model prefix with more nodes than this
MAX_MODEL_NODES = 100_000


class InconsistentKB(ValueError):
    pass


class ModelTooLarge(RuntimeError):
    """The model prefix asked for has more nodes than ``MAX_MODEL_NODES``."""


# ---------------------------------------------------------------------------
# ABox completion


def complete_abox(sat: SaturatedTBox, abox: ABox) -> ABox:
    """The data closed under the TBox, closed inside the ``GraphIndex``
    that the returned interpretation reads; raises InconsistentKB, with
    the reason, when the knowledge base is inconsistent."""
    tbox = sat.tbox
    individuals = abox.individuals()
    index = GraphIndex.of(abox)
    ctype, succ = index.ctype, index.adjacency

    changed = True
    while changed:
        before = len(index)
        # role hierarchy closure
        for name, a, b in list(index.role_atoms):
            for sup in sat.superroles(Role(name)):
                index.add_role(sup, a, b)
        # entailed concept closure
        for a in individuals:
            for c in sat.cl(ctype.get(a, ())):
                index.add_concept(c, a)
        # value restrictions
        for ax in tbox.value:
            for a, bs in succ.get(ax.role, {}).items():
                if ax.lhs == TOP or ax.lhs in ctype.get(a, ()):
                    for b in bs:
                        index.add_concept(ax.filler, b)
        # at-most-one: an implied existential merges onto an existing witness
        for ax in tbox.atmost:
            for a in list(succ.get(ax.role, {})):
                if ax.lhs != TOP and ax.lhs not in ctype.get(a, ()):
                    continue
                for cand in sat.implied_existentials(ctype.get(a, ())):
                    if ax.role not in cand.roles:
                        continue
                    if ax.filler != TOP and ax.filler not in cand.concepts:
                        continue
                    for b in list(succ[ax.role][a]):
                        if ax.filler != TOP and ax.filler not in ctype.get(b, ()):
                            continue
                        for c in cand.concepts:
                            index.add_concept(c, b)
                        for r in cand.roles:
                            index.add_role(r, a, b)
        changed = len(index) != before

    done = index.seal(abox.nodes)
    # consistency: bottom membership
    for a in individuals:
        if done.has_concept(BOT, a):
            raise InconsistentKB(f"bot holds at {a}")
    # consistency: two distinct named witnesses under a counted role
    for ax in tbox.atmost:
        for a in individuals:
            if not done.has_concept(ax.lhs, a):
                continue
            wits = [b for b in done.successors(a, ax.role) if done.has_concept(ax.filler, b)]
            if len(wits) > 1:
                raise InconsistentKB(
                    f"{a} has {len(wits)} named {ax.role}.{ax.filler} successors "
                    f"but at most one is allowed"
                )
    return done


# ---------------------------------------------------------------------------
# successor configurations


def succ_config(
    sat: SaturatedTBox, types: Iterable[TwoType]
) -> Tuple[OneHalfType, ...]:
    """Successor candidates still owed by a node with the given 2-types.

    All types must agree on their first component (they describe one
    node). A candidate is dropped when some given 2-type already
    witnesses it.
    """
    ts = sorted(set(types), key=type_key)
    if not ts:
        raise ValueError("need at least one 2-type")
    first = ts[0].concepts
    for t in ts[1:]:
        if t.concepts != first:
            raise ValueError("2-types describe different nodes")
    cands = sat.implied_existentials(first)
    if INJECT_SUCC_FILTER_BUG:
        return cands
    out = [
        u
        for u in cands
        if not any(u.roles <= t.roles and u.concepts <= t.others for t in ts)
    ]
    return tuple(sorted(out, key=half_type_key))


def children(sat: SaturatedTBox, t: TwoType) -> Tuple[TwoType, ...]:
    """Letters that may follow letter t in an anonymous word."""
    out = [
        TwoType(t.others, u.roles, u.concepts)
        for u in succ_config(sat, [t.invert()])
    ]
    return tuple(sorted(out, key=type_key))


def root_frontier(sat: SaturatedTBox, completed: ABox, a: str) -> Tuple[TwoType, ...]:
    """The 2-types a named individual presents to the successor computation."""
    mine = completed.concepts_of(a)
    out = [bare_type(mine)]
    for b, roles in completed.links(a).items():
        out.append(TwoType(mine, roles, completed.concepts_of(b)))
    return tuple(sorted(set(out), key=type_key))


# ---------------------------------------------------------------------------
# finite approximations of the core universal model


def build_can(sat: SaturatedTBox, completed: ABox, depth: int) -> Interpretation:
    """Approximation of the core universal model up to the given depth,
    grown from ``completed``, the data's completion.

    Depth counts anonymous letters: 0 is just the completed data graph.
    The returned ``complete`` flag is true iff nothing was cut off.
    """
    index = GraphIndex.of(completed)
    nodes: Set[Node] = set(completed.nodes)

    def attach(parent: Node, child: Anon, letter: TwoType) -> None:
        nodes.add(child)
        for c in letter.others:
            index.add_concept(c, child)
        for r in letter.roles:
            index.add_role(r, parent, child)

    kids: Dict[TwoType, Tuple[TwoType, ...]] = {}

    def kids_of(t: TwoType) -> Tuple[TwoType, ...]:
        if t not in kids:
            kids[t] = children(sat, t)
        return kids[t]

    roots: List[Tuple[str, TwoType]] = []
    for a in completed.individuals():
        mine = completed.concepts_of(a)
        for u in succ_config(sat, root_frontier(sat, completed, a)):
            roots.append((a, TwoType(mine, u.roles, u.concepts)))
    if depth == 0:
        return index.seal(nodes, not roots)

    # count the nodes before making them. size[t] is the size, capped just
    # above the budget, of a subtree whose root ends in letter t, one more
    # level deep after each round; it settles once every count is exact or
    # capped.
    letters = {t for _, t in roots}
    work = list(letters)
    while work:
        for c in kids_of(work.pop()):
            if c not in letters:
                letters.add(c)
                work.append(c)
    size = dict.fromkeys(letters, 1)
    for _ in range(depth - 1):
        deeper = {
            t: min(1 + sum(size[c] for c in kids_of(t)), MAX_MODEL_NODES + 1)
            for t in letters
        }
        if deeper == size:
            break
        size = deeper
    if len(nodes) + sum(size[t] for _, t in roots) > MAX_MODEL_NODES:
        raise ModelTooLarge(
            f"the model prefix of depth {depth} has more than "
            f"{MAX_MODEL_NODES} nodes"
        )

    complete = True
    frontier: Deque[Anon] = deque()
    for a, letter in roots:
        child = Anon(a, (letter,))
        attach(a, child, letter)
        frontier.append(child)
    while frontier:
        w = frontier.popleft()
        tail = w.path[-1]
        if w.depth == depth:
            if kids_of(tail):
                complete = False
            continue
        for letter in kids_of(tail):
            child = w.child(letter)
            attach(w, child, letter)
            frontier.append(child)

    return index.seal(nodes, complete)


# ---------------------------------------------------------------------------
# model checking


def is_model(tbox: TBox, abox: ABox, interp: Interpretation) -> bool:
    """Does the interpretation satisfy every axiom and every ABox atom?"""
    if not (
        abox.concept_atoms <= interp.concept_atoms
        and abox.role_atoms <= interp.role_atoms
    ):
        return False

    domain = interp.domain()
    for ax in tbox.conj:
        for x in domain:
            if ax.lhs <= interp.concepts_of(x):
                if ax.rhs == BOT or not interp.has_concept(ax.rhs, x):
                    return False
    for ax in tbox.value:
        for x in domain:
            if ax.lhs != TOP and not interp.has_concept(ax.lhs, x):
                continue
            for y in interp.successors(x, ax.role):
                if not interp.has_concept(ax.filler, y):
                    return False
    for ax in tbox.exists:
        for x in domain:
            if ax.lhs != TOP and not interp.has_concept(ax.lhs, x):
                continue
            if not any(
                interp.has_concept(ax.filler, y) for y in interp.successors(x, ax.role)
            ):
                return False
    for ax in tbox.atmost:
        for x in domain:
            if ax.lhs != TOP and not interp.has_concept(ax.lhs, x):
                continue
            wits = [
                y
                for y in interp.successors(x, ax.role)
                if ax.filler == TOP or interp.has_concept(ax.filler, y)
            ]
            if len(set(wits)) > 1:
                return False
    for ax in tbox.roles:
        for name, x, y in interp.role_atoms:
            if Role(name) == ax.sub:
                if not interp.has_edge(ax.sup, x, y):
                    return False
            if Role(name, True) == ax.sub:
                if not interp.has_edge(ax.sup, y, x):
                    return False
    return True
