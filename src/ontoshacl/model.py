"""Canonical model machinery.

``complete_abox`` closes the data graph under the TBox (the named part
of the core universal model) inside the ``core.GraphIndex`` that its
result reads. It is semi-naive: a rule fires again only on an atom that
the last round added and that is one of its premises, so each round's
work follows what is new, not the size of the data. Its first round
reads the data's atoms off those tables. ``build_can`` grows the
anonymous part breadth-first, in an index started from the completion's
(``GraphIndex.of``), up to a depth bound, tracking whether the result
is the whole model or a truncation. Both copy only the table ``dict``s
and the sets of the nodes they grow, and share every other node's
frozensets with their input, which they leave as it was. A node's
letters are keyed by its concepts and its neighbours, and nodes with
equal keys, named or anonymous, share one ``succ_config``.

Each anonymous node hangs under a parent by a 2-type letter. A letter
(X, R, Y) says: the parent satisfies exactly X, the edge into the child
carries exactly the roles R, and the child satisfies exactly Y. A node
is named by its place in the tree: ``a.1.2`` is the second child, in
``type_key`` order of the letters, of the first child of the individual
a. ``build_can`` names each node when it makes it.
"""
from __future__ import annotations

from collections import deque
from typing import (
    Callable, Collection, Deque, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple,
)

from .core import (
    BOT,
    TOP,
    ABox,
    Anon,
    AtMostOne,
    GraphIndex,
    Interpretation,
    Node,
    OneHalfType,
    Role,
    TBox,
    TwoType,
    ValueRestriction,
    _stored,
    invert_roles,
)
from .tbox import SaturatedTBox

# Selftest mutation hook: when true, the subsumption filter in succ_config is
# skipped, which breaks the austere-model guarantees in a detectable way.
INJECT_SUCC_FILTER_BUG = False


# build_can refuses to add more anonymous nodes than this to the data
MAX_MODEL_NODES = 100_000


class InconsistentKB(ValueError):
    pass


class ModelTooLarge(RuntimeError):
    """The model prefix asked for has more anonymous nodes than
    ``MAX_MODEL_NODES``."""


# ---------------------------------------------------------------------------
# ABox completion


def complete_abox(sat: SaturatedTBox, abox: ABox) -> ABox:
    """The data closed under the TBox, closed inside the ``GraphIndex``
    that the returned interpretation reads; raises InconsistentKB, with
    the reason, when the knowledge base is inconsistent.

    Semi-naive: each round reads only the atoms the last round added (at
    first, every atom, and every individual as grown), against all atoms
    so far:

    - a new role atom fires the role hierarchy and, read in either
      direction, the value restrictions and at-most-one merges on its
      role;
    - an individual whose concepts grew gets its ``cl``;
    - a new concept atom fires the value restrictions whose left-hand
      side it is, onto the node's successors, and the merges that read it
      as their filler, from the node's predecessors;
    - a node whose concepts grew fires the merges onto its successors,
      since a merge reads all of the node's concepts.

    A rule applied at a node or an edge reads only the concepts of its
    nodes and that edge, so it is applied again in the round after any
    of them grows, and the result is closed under every rule. Every rule
    is monotone (a merge's implied existentials at more concepts cover
    those at fewer), so nothing it adds from fewer atoms is missing from
    the least closed set. The result is that least set: what applying
    every rule to every atom until nothing changes reaches too.
    """
    tbox = sat.tbox
    individuals = abox.individuals()
    index = GraphIndex.of(abox)
    ctype, succ = index.ctype, index.adjacency

    # the rules that a new concept atom fires, by its concept
    value_at: Dict[str, List[ValueRestriction]] = {}
    for ax in tbox.value:
        value_at.setdefault(ax.lhs, []).append(ax)
    atmost_at: Dict[str, List[Tuple[AtMostOne, Role]]] = {}
    for ax in tbox.atmost:
        atmost_at.setdefault(ax.filler, []).append((ax, ax.role.invert()))
    # the rules that a new role atom fires, by its name, built once per
    # name: its strict super-roles, then the value restrictions and the
    # at-most-one axioms on the name read forwards, then backwards
    on_name: Dict[str, Tuple[List, ...]] = {}

    def rules_on(name: str) -> Tuple[List, ...]:
        rules = on_name.get(name)
        if rules is None:
            fwd = Role(name)
            bwd = fwd.invert()
            rules = on_name[name] = (
                [s for s in sat.superroles(fwd) if s != fwd],
                [ax for ax in tbox.value if ax.role == fwd],
                [ax for ax in tbox.atmost if ax.role == fwd],
                [ax for ax in tbox.value if ax.role == bwd],
                [ax for ax in tbox.atmost if ax.role == bwd],
            )
        return rules

    new_concepts: List[Tuple[str, Node]] = []
    new_roles: List[Tuple[str, Node, Node]] = []

    def add_concept(c: str, n: Node) -> None:
        if index.add_concept(c, n):
            new_concepts.append((c, n))

    def add_role(role: Role, x: Node, y: Node) -> None:
        if index.add_role(role, x, y):
            new_roles.append(_stored(role, x, y))

    def merge(ax: AtMostOne, a: Node, b: Node) -> None:
        """The at-most-one rule at the ``ax.role`` edge from a to b: an
        implied existential of a that b would witness merges onto b."""
        here = ctype.get(a, ())
        if ax.lhs != TOP and ax.lhs not in here:
            return
        if ax.filler != TOP and ax.filler not in ctype.get(b, ()):
            return
        for cand in sat.implied_existentials(here):
            if ax.role not in cand.roles:
                continue
            if ax.filler != TOP and ax.filler not in cand.concepts:
                continue
            for c in cand.concepts:
                add_concept(c, b)
            for r in cand.roles:
                add_role(r, a, b)

    # the first round's atoms are the data's, read off the tables before any add
    concepts = [(c, n) for c, ns in index.extension.items() for n in ns]
    roles = [
        (r.name, a, b) for r, t in succ.items() if not r.inverted for a, bs in t.items() for b in bs
    ]
    grown = set(individuals)
    while grown or roles:
        # role hierarchy; what it adds joins this round and needs no pass
        # of its own: a super-role's super-roles are the name's already
        for name, a, b in list(roles):
            for sup in rules_on(name)[0]:
                if index.add_role(sup, a, b):
                    roles.append(_stored(sup, a, b))
        # entailed concept closure; what it adds joins this round, and
        # cl of a closed set adds nothing
        for a in grown:
            have = ctype.get(a, frozenset())
            for c in sat.cl(have) - have:
                index.add_concept(c, a)
                concepts.append((c, a))
        # value restrictions and merges, on each new atom
        for name, a, b in roles:
            _, fwd_value, fwd_atmost, bwd_value, bwd_atmost = rules_on(name)
            for ax in fwd_value:
                if ax.lhs == TOP or ax.lhs in ctype.get(a, ()):
                    add_concept(ax.filler, b)
            for ax in bwd_value:
                if ax.lhs == TOP or ax.lhs in ctype.get(b, ()):
                    add_concept(ax.filler, a)
            for ax in fwd_atmost:
                merge(ax, a, b)
            for ax in bwd_atmost:
                merge(ax, b, a)
        for c, a in concepts:
            for ax in value_at.get(c, ()):
                for b in succ.get(ax.role, {}).get(a, ()):
                    add_concept(ax.filler, b)
            for ax, back in atmost_at.get(c, ()):
                for x in list(succ.get(back, {}).get(a, ())):
                    merge(ax, x, a)
        for a in grown:
            for ax in tbox.atmost:
                for b in list(succ.get(ax.role, {}).get(a, ())):
                    merge(ax, a, b)
        concepts, roles, new_concepts, new_roles = new_concepts, new_roles, [], []
        grown = {a for _, a in concepts}

    done = index.seal(abox.nodes)
    check_consistency(
        tbox, individuals, done.has_concept, lambda r, a: done.adjacency(r).get(a, ())
    )
    return done


def check_consistency(
    tbox: TBox,
    individuals: Sequence[str],
    has: Callable[[str, Node], bool],
    succ: Callable[[Role, Node], Iterable[Node]],
) -> None:
    """Raise InconsistentKB, with the reason, where completed data clashes:
    ``bot`` at an individual, or an individual with two named witnesses
    under an at-most-one axiom. ``has(c, n)`` and ``succ(r, n)`` read the
    completed data's concepts and role successors. The bot check runs
    first, and each names the first individual in the given order."""
    for a in individuals:
        if has(BOT, a):
            raise InconsistentKB(f"bot holds at {a}")
    for ax in tbox.atmost:
        for a in individuals:
            if not has(ax.lhs, a):
                continue
            wits = sum(has(ax.filler, b) for b in succ(ax.role, a))
            if wits > 1:
                raise InconsistentKB(
                    f"{a} has {wits} named {ax.role}.{ax.filler} successors "
                    f"but at most one is allowed"
                )


# ---------------------------------------------------------------------------
# successor configurations


# a neighbour of a node: the roles to it and its concepts
_Link = Tuple[FrozenSet[Role], FrozenSet[str]]


def succ_config(
    sat: SaturatedTBox, concepts: FrozenSet[str], neighbours: Collection[_Link]
) -> Tuple[OneHalfType, ...]:
    """Successor candidates still owed by a node with the given concepts:
    its implied existentials, in their order, but for those that a
    (roles to, concepts of) pair of its neighbours already witnesses."""
    cands = sat.implied_existentials(concepts)
    if INJECT_SUCC_FILTER_BUG:
        return cands
    return tuple(
        u
        for u in cands
        if not any(u.roles <= roles and u.concepts <= theirs for roles, theirs in neighbours)
    )


def letters(
    sat: SaturatedTBox, concepts: FrozenSet[str], neighbours: Collection[_Link]
) -> Tuple[TwoType, ...]:
    """The first letters of the anonymous words under a node with the
    given concepts and neighbours, one per ``succ_config`` candidate, in
    ``type_key`` order."""
    owed = succ_config(sat, concepts, neighbours)
    return tuple(TwoType(concepts, u.roles, u.concepts) for u in owed)


def key_after(t: TwoType) -> Tuple[FrozenSet[str], FrozenSet[_Link]]:
    """The concepts and neighbours of the node after letter t: it has the
    concepts ``t.others`` and one neighbour, its parent, over the inverted
    roles of t."""
    return t.others, frozenset({(invert_roles(t.roles), t.concepts)})


# ---------------------------------------------------------------------------
# finite approximations of the core universal model


def build_can(sat: SaturatedTBox, completed: ABox, depth: int) -> Interpretation:
    """Approximation of the core universal model up to the given depth,
    grown from ``completed``, the data's completion.

    Depth counts anonymous letters: 0 is just the completed data graph.
    The returned ``complete`` flag is true iff nothing was cut off.
    Raises ModelTooLarge, before making any node, when the prefix would
    add more than ``MAX_MODEL_NODES`` anonymous nodes.

    A node's ``letters`` are keyed by its concepts and the set of (roles
    to, concepts of) pairs of its neighbours, and built once per distinct
    key. An individual's key comes from one pass over the role tables
    (``Interpretation.links``), an anonymous node's from its last letter
    (``key_after``).

    The result shares ``completed``'s frozensets but for those it adds
    to: the extension of each concept that an anonymous node has, and an
    individual's neighbours under each role to the anonymous children it
    gains.
    """
    index = GraphIndex.of(completed)
    nodes: Set[Node] = set(completed.nodes)

    # a child's label is its parent's plus its rank among its siblings,
    # whose letters come in type_key order
    frontier: Deque[Tuple[Anon, TwoType, int]] = deque()

    def attach(parent: Node, label: str, letter: TwoType, d: int) -> None:
        """Make the node ``label`` at depth d under parent, over letter."""
        child = Anon(label)
        nodes.add(child)
        for c in letter.others:
            index.add_concept(c, child)
        for r in letter.roles:
            index.add_role(r, parent, child)
        frontier.append((child, letter, d))

    owed: Dict[Tuple[FrozenSet[str], FrozenSet[_Link]], Tuple[TwoType, ...]] = {}

    def letters_of(concepts: FrozenSet[str], neighbours: FrozenSet[_Link]) -> Tuple[TwoType, ...]:
        key = (concepts, neighbours)
        found = owed.get(key)
        if found is None:
            found = owed[key] = letters(sat, concepts, neighbours)
        return found

    concepts_of = completed.concepts_of
    links = completed.links()
    # (individual, rank, letter) of each anonymous child of an individual
    roots: List[Tuple[str, int, TwoType]] = []
    for a in completed.individuals():
        theirs = [(roles, concepts_of(b)) for b, roles in links.get(a, {}).items()]
        for k, letter in enumerate(letters_of(concepts_of(a), frozenset(theirs)), start=1):
            roots.append((a, k, letter))
    if depth == 0:
        return index.seal(nodes, not roots)

    # the letters that follow each letter reachable from the roots
    kids: Dict[TwoType, Tuple[TwoType, ...]] = {}
    work = [t for _, _, t in roots]
    while work:
        t = work.pop()
        if t not in kids:
            kids[t] = letters_of(*key_after(t))
            work.extend(kids[t])

    # count the nodes before making them. size[t] is the size, capped just
    # above the budget, of a subtree whose root ends in letter t, one more
    # level deep after each round; it settles once every count is exact or
    # capped.
    size = dict.fromkeys(kids, 1)
    for _ in range(depth - 1):
        deeper = {
            t: min(1 + sum(size[c] for c in after), MAX_MODEL_NODES + 1)
            for t, after in kids.items()
        }
        if deeper == size:
            break
        size = deeper
    if sum(size[t] for _, _, t in roots) > MAX_MODEL_NODES:
        raise ModelTooLarge(
            f"the model prefix of depth {depth} has more than "
            f"{MAX_MODEL_NODES} anonymous nodes"
        )

    complete = True
    for a, k, letter in roots:
        attach(a, f"{a}.{k}", letter, 1)
    while frontier:
        w, tail, d = frontier.popleft()
        if d == depth:
            if kids[tail]:
                complete = False
            continue
        for k, letter in enumerate(kids[tail], start=1):
            attach(w, f"{w.label}.{k}", letter, d + 1)

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
        for x, ys in interp.adjacency(ax.sub).items():
            if not ys <= interp.adjacency(ax.sup).get(x, frozenset()):
                return False
    return True
