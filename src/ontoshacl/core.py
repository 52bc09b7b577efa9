"""Core vocabulary for Horn-SHIQ knowledge bases.

Concept names are plain strings starting with an uppercase letter; the
reserved tokens ``top`` and ``bot`` stand for the universal and empty
concept. Roles carry an inversion flag, so ``Role("p", True)`` is p
read backwards. Interpretations list role atoms under the non-inverted
name only; their index holds both polarities.

Everything here is immutable and orderable so that the rest of the
package can iterate deterministically.

A named individual is a node that is its name (a ``str``); an anonymous
model node is an ``Anon``, named by its place in the tree under an
individual, and a chase null is a ``Null``. Data is an
interpretation of names: the raw ABox, its completion, model prefixes
and chase states are all one ``Interpretation``, and ``ABox`` is only
another name for that class. Its atoms are kept once, in the tables of
a sealed ``GraphIndex``, which every lookup reads and which builds it:
``add_concept`` and ``add_role`` grow the tables (the storage rule above
lives in ``add_role``), and ``seal`` freezes them into an
interpretation. ``Interpretation.of`` and ``restrict`` build through an
index too. ``GraphIndex.of`` starts an index from an interpretation's,
to add more: it copies each table ``dict`` and shares every frozenset in
them, and an add copies an entry only on its first write to it (path
copying, as in Driscoll, Sarnak, Sleator and Tarjan, "Making Data
Structures Persistent", 1989). So the data, its completion and a model
prefix share the set of each node that the later one leaves as it was.
``concept_atoms`` and ``role_atoms`` are sets read off the tables on
each call. Equality and hashing read the tables, the nodes
and the ``complete`` flag only.
"""
from __future__ import annotations

from functools import cached_property
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from .values import value

TOP = "top"
BOT = "bot"

RESERVED_CONCEPTS = frozenset({TOP, BOT})


# ---------------------------------------------------------------------------
# roles


@value(frozen=True, order=True)
class Role:
    """A role name with polarity. ``invert`` is an involution."""

    name: str
    inverted: bool = False

    def invert(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return "^" + self.name if self.inverted else self.name


def invert_roles(roles: Iterable[Role]) -> FrozenSet[Role]:
    return frozenset(r.invert() for r in roles)


# ---------------------------------------------------------------------------
# axioms

# Normal form families:
#   ConjInclusion     A0 & ... & An <= B        (F1)
#   AtMostOne         A <= max1 r.B             (F2)
#   ValueRestriction  A <= only r.B             (F3)
#   ExistsInclusion   A <= some r.B             (F4)
#   RoleInclusion     r <= s


@value(frozen=True)
class ConjInclusion:
    lhs: FrozenSet[str]
    rhs: str

    def __str__(self) -> str:
        left = " & ".join(sorted(self.lhs)) if self.lhs else TOP
        return f"{left} <= {self.rhs}"


@value(frozen=True)
class AtMostOne:
    lhs: str
    role: Role
    filler: str

    def __str__(self) -> str:
        return f"{self.lhs} <= max1 {self.role}.{self.filler}"


@value(frozen=True)
class ValueRestriction:
    lhs: str
    role: Role
    filler: str

    def __str__(self) -> str:
        return f"{self.lhs} <= only {self.role}.{self.filler}"


@value(frozen=True)
class ExistsInclusion:
    lhs: str
    role: Role
    filler: str

    def __str__(self) -> str:
        return f"{self.lhs} <= some {self.role}.{self.filler}"


@value(frozen=True)
class RoleInclusion:
    sub: Role
    sup: Role

    def __str__(self) -> str:
        return f"{self.sub} <= {self.sup}"


Axiom = Union[ConjInclusion, AtMostOne, ValueRestriction, ExistsInclusion, RoleInclusion]


def _conj_key(ax: ConjInclusion) -> Tuple:
    return (tuple(sorted(ax.lhs)), ax.rhs)


@value(frozen=True)
class TBox:
    """A normalized Horn-SHIQ TBox, axioms sorted per family."""

    conj: Tuple[ConjInclusion, ...] = ()
    atmost: Tuple[AtMostOne, ...] = ()
    value: Tuple[ValueRestriction, ...] = ()
    exists: Tuple[ExistsInclusion, ...] = ()
    roles: Tuple[RoleInclusion, ...] = ()

    @staticmethod
    def of(axioms: Iterable[Axiom]) -> "TBox":
        conj: List[ConjInclusion] = []
        atmost: List[AtMostOne] = []
        value: List[ValueRestriction] = []
        exists: List[ExistsInclusion] = []
        roles: List[RoleInclusion] = []
        for ax in axioms:
            if isinstance(ax, ConjInclusion):
                # drop vacuous A <= top, normalize top out of premises
                lhs = frozenset(c for c in ax.lhs if c != TOP)
                if ax.rhs == TOP:
                    continue
                conj.append(ConjInclusion(lhs, ax.rhs))
            elif isinstance(ax, AtMostOne):
                atmost.append(ax)
            elif isinstance(ax, ValueRestriction):
                if ax.filler == TOP:
                    continue
                value.append(ax)
            elif isinstance(ax, ExistsInclusion):
                exists.append(ax)
            elif isinstance(ax, RoleInclusion):
                if ax.sub != ax.sup:
                    roles.append(ax)
            else:
                raise TypeError(f"not an axiom: {ax!r}")
        return TBox(
            conj=tuple(sorted(set(conj), key=_conj_key)),
            atmost=tuple(sorted(set(atmost), key=lambda a: (a.lhs, a.role, a.filler))),
            value=tuple(sorted(set(value), key=lambda a: (a.lhs, a.role, a.filler))),
            exists=tuple(sorted(set(exists), key=lambda a: (a.lhs, a.role, a.filler))),
            roles=tuple(sorted(set(roles), key=lambda a: (a.sub, a.sup))),
        )

    def axioms(self) -> Iterator[Axiom]:
        yield from self.conj
        yield from self.atmost
        yield from self.value
        yield from self.exists
        yield from self.roles

    def concept_names(self) -> FrozenSet[str]:
        """Concept names occurring in the TBox, reserved tokens excluded."""
        out = set()
        for ax in self.conj:
            out.update(ax.lhs)
            out.add(ax.rhs)
        for ax in (*self.atmost, *self.value, *self.exists):
            out.add(ax.lhs)
            out.add(ax.filler)
        return frozenset(out - RESERVED_CONCEPTS)

    def role_names(self) -> FrozenSet[str]:
        out = set()
        for ax in (*self.atmost, *self.value, *self.exists):
            out.add(ax.role.name)
        for ax in self.roles:
            out.add(ax.sub.name)
            out.add(ax.sup.name)
        return frozenset(out)

    def all_roles(self) -> Tuple[Role, ...]:
        """Both polarities of every role name, sorted."""
        names = sorted(self.role_names())
        return tuple(Role(n, inv) for n in names for inv in (False, True))

    @cached_property
    def hierarchy(self) -> Hierarchy:
        """The role hierarchy, computed by ``role_hierarchy`` on first read."""
        return role_hierarchy(self)


Hierarchy = Dict[Role, FrozenSet[Role]]


def role_hierarchy(tbox: TBox) -> Hierarchy:
    """Reflexive-transitive super-role map over both polarities: each
    role's super-roles are what one walk reaches from it over the
    inclusions and their mirrored inverses.

    The roles of a cycle share one super-role set.
    ``tbox.collapse_role_cycles`` replaces them by the least of them in
    ``(name, inverted)`` order, and refuses a role that is in a cycle
    with its own inverse, naming the least such role."""
    edges: Dict[Role, List[Role]] = {}
    for ax in tbox.roles:
        edges.setdefault(ax.sub, []).append(ax.sup)
        edges.setdefault(ax.sub.invert(), []).append(ax.sup.invert())
    out: Hierarchy = {}
    for r in tbox.all_roles():
        seen = {r}
        todo = [r]
        while todo:
            for s in edges.get(todo.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        out[r] = frozenset(seen)
    return out


# ---------------------------------------------------------------------------
# 2-types and successor configurations


@value(frozen=True)
class TwoType:
    """(pi1, pi2, pi3): concepts here, roles across, concepts there."""

    concepts: FrozenSet[str]
    roles: FrozenSet[Role]
    others: FrozenSet[str]

    def __str__(self) -> str:
        c = ",".join(sorted(self.concepts))
        r = ",".join(str(x) for x in sorted(self.roles))
        o = ",".join(sorted(self.others))
        return "({%s},{%s},{%s})" % (c, r, o)


@value(frozen=True)
class OneHalfType:
    """A successor candidate: roles into the child and the child's concepts."""

    roles: FrozenSet[Role]
    concepts: FrozenSet[str]

    def subsumed_by(self, other: "OneHalfType") -> bool:
        return self.roles <= other.roles and self.concepts <= other.concepts

    def __str__(self) -> str:
        r = ",".join(str(x) for x in sorted(self.roles))
        c = ",".join(sorted(self.concepts))
        return "({%s},{%s})" % (r, c)


def type_key(t: TwoType) -> Tuple:
    return (tuple(sorted(t.concepts)), tuple(sorted(t.roles)), tuple(sorted(t.others)))


def half_type_key(u: OneHalfType) -> Tuple:
    return (tuple(sorted(u.roles)), tuple(sorted(u.concepts)))


# ---------------------------------------------------------------------------
# nodes


@value(frozen=True)
class Anon:
    """An anonymous tree node, named by its place in the tree under an
    individual: ``a.1.2`` is the second child of the first child of a."""

    label: str

    def __str__(self) -> str:
        return f"_:{self.label}"


@value(frozen=True)
class Null:
    """A labeled null introduced by the chase.

    The key encodes which axiom fired at which parent, so refiring the
    same trigger reproduces the same null instead of a fresh one.
    """

    key: str

    def __str__(self) -> str:
        return f"_n:{self.key}"


# a named individual is its name
Node = Union[str, Anon, Null]


def node_key(n: Node) -> Tuple:
    if isinstance(n, str):
        return (0, n)
    if isinstance(n, Anon):
        return (1, n.label)
    return (2, n.key)


# ---------------------------------------------------------------------------
# the lookup index, which builds and stores every interpretation

_EMPTY: FrozenSet = frozenset()


def _stored(role: Role, x: Node, y: Node) -> Tuple[str, Node, Node]:
    """The atom role(x, y) as interpretations store it: under the
    non-inverted name."""
    return (role.name, y, x) if role.inverted else (role.name, x, y)


def _thawed(table: Dict, key: object) -> Set:
    """``table[key]`` as a set that an add may grow: a shared frozenset,
    or none, is replaced by a new set of its nodes."""
    entry = table.get(key, _EMPTY)
    if entry.__class__ is not set:
        entry = table[key] = set(entry)
    return entry


class GraphIndex:
    """Concept and role tables, the one store of a set of atoms.

    ``extension[c]`` is the nodes with concept c, ``ctype[n]`` the
    concepts of n, and ``adjacency[r][x]`` the r-neighbours of x for both
    polarities of every role. Nodes without atoms of a kind have no
    entry of that kind, so equal atoms give equal tables; equality
    compares them, and hashing reads the concept table and the roles.

    The two polarities of a role name, ``Role(name)`` and
    ``Role(name, True)``, and their two tables are built once per name,
    on its first atom, and every later atom of that name reuses them.

    ``add_concept`` and ``add_role`` return whether their atom is new,
    which they read off the tables. ``seal`` freezes the tables, and
    adding to a sealed index raises ``TypeError``.

    An entry is a ``set`` while an add may still grow it, and a
    ``frozenset`` once sealed or while shared with the sealed index that
    ``of`` started from. An add to a shared entry replaces it with a new
    ``set`` of its nodes and the new one (``_thawed``), and leaves the
    frozenset to its owner. The add finds out from the ``AttributeError``
    that a frozenset raises on ``add``, so the add path of a fresh index,
    where that never happens, checks nothing. Adding twice is adding
    once, so the slow path redoes both of an add's writes.
    """

    __slots__ = ("extension", "ctype", "adjacency", "_tables")

    def __init__(
        self,
        concept_atoms: Iterable[Tuple[str, Node]] = (),
        role_atoms: Iterable[Tuple[str, Node, Node]] = (),
    ) -> None:
        self.extension: Dict[str, AbstractSet[Node]] = {}
        self.ctype: Dict[Node, AbstractSet[str]] = {}
        self.adjacency: Dict[Role, Dict[Node, AbstractSet[Node]]] = {}
        # role name -> its forward and backward tables in ``adjacency``; None once sealed
        self._tables: Optional[Dict[str, Tuple[Dict, Dict]]] = {}
        for c, n in concept_atoms:
            self.add_concept(c, n)
        for atom in role_atoms:
            self._link(atom)

    @staticmethod
    def of(interp: "Interpretation") -> "GraphIndex":
        """An index over ``interp``'s atoms, to add more atoms to: a
        shallow copy of each table, whose entries are ``interp``'s own
        frozensets until an add writes to them."""
        sealed = interp._index
        index = GraphIndex()
        index.extension = dict(sealed.extension)
        index.ctype = dict(sealed.ctype)
        index.adjacency = {r: dict(t) for r, t in sealed.adjacency.items()}
        return index

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GraphIndex:
            return NotImplemented
        return self.extension == other.extension and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((frozenset(self.extension.items()), frozenset(self.adjacency)))

    def add_concept(self, c: str, n: Node) -> bool:
        if self._tables is None:
            raise TypeError("a sealed index takes no atoms")
        ns = self.extension.get(c)
        if ns is None:
            ns = self.extension[c] = set()
        elif n in ns:
            return False
        try:
            ns.add(n)
            self.ctype.setdefault(n, set()).add(c)
        except AttributeError:  # a shared frozenset
            _thawed(self.extension, c).add(n)
            _thawed(self.ctype, n).add(c)
        return True

    def add_role(self, role: Role, x: Node, y: Node) -> bool:
        """Add role(x, y), stored under the non-inverted name and indexed
        under both polarities."""
        return self._link(_stored(role, x, y))

    def _link(self, atom: Tuple[str, Node, Node]) -> bool:
        if self._tables is None:
            raise TypeError("a sealed index takes no atoms")
        name, a, b = atom
        tables = self._tables.get(name)
        if tables is None:
            tables = self._tables[name] = (
                self.adjacency.setdefault(Role(name), {}),
                self.adjacency.setdefault(Role(name, True), {}),
            )
        forward, backward = tables
        bs = forward.get(a)
        if bs is None:
            bs = forward[a] = set()
        elif b in bs:
            return False
        try:
            bs.add(b)
            backward.setdefault(b, set()).add(a)
        except AttributeError:  # a shared frozenset
            _thawed(forward, a).add(b)
            _thawed(backward, b).add(a)
        return True

    def seal(self, nodes: Iterable[Node], complete: bool = True) -> "Interpretation":
        """The atoms added, over the given nodes, which must include every
        node an atom mentions, as the interpretation that holds this
        index, its tables frozen: each entry that is still a ``set``
        becomes a frozenset, and the shared frozensets stay as they are."""
        self._tables = None
        for table in (self.extension, self.ctype, *self.adjacency.values()):
            for k, v in table.items():
                if v.__class__ is set:
                    table[k] = frozenset(v)
        return Interpretation(self, frozenset(nodes), complete)


# ---------------------------------------------------------------------------
# interpretations


@value(frozen=True)
class Interpretation:
    """A finite (fragment of an) interpretation: atoms over nodes.

    Data, its completion, model prefixes and chase states are all of this
    class. Its atoms are kept only in ``_index``. The nodes of data are
    exactly the individuals its atoms mention. ``complete`` records whether
    this is the whole intended structure or a truncation of something deeper.
    """

    _index: GraphIndex
    nodes: FrozenSet[Node]
    complete: bool = True

    @staticmethod
    def of(
        concepts: Iterable[Tuple[str, Node]] = (),
        roles: Iterable[Tuple[Role, Node, Node]] = (),
        nodes: Iterable[Node] = (),
    ) -> "Interpretation":
        """The given atoms over the given nodes and every node an atom
        mentions; ``top`` atoms only mention their node."""
        domain = set(nodes)
        index = GraphIndex()
        for c, n in concepts:
            domain.add(n)
            if c != TOP:
                index.add_concept(c, n)
        for role, x, y in roles:
            domain.update((x, y))
            index.add_role(role, x, y)
        return index.seal(domain)

    @property
    def concept_atoms(self) -> FrozenSet[Tuple[str, Node]]:
        """Every (c, n) with concept c at n, as a new set on each read."""
        return frozenset((c, n) for c, ns in self._index.extension.items() for n in ns)

    @property
    def role_atoms(self) -> FrozenSet[Tuple[str, Node, Node]]:
        """Every role atom as stored, (name, x, y) for name(x, y): a new set."""
        tables = self._index.adjacency.items()
        return frozenset(
            (r.name, x, y) for r, t in tables if not r.inverted for x, ys in t.items() for y in ys
        )

    @cached_property
    def _individuals(self) -> Tuple[str, ...]:
        return tuple(sorted(n for n in self.nodes if isinstance(n, str)))

    def individuals(self) -> Tuple[str, ...]:
        """The named nodes, sorted."""
        return self._individuals

    def domain(self) -> List[Node]:
        return sorted(self.nodes, key=node_key)

    def concepts_of(self, n: Node) -> FrozenSet[str]:
        return self._index.ctype.get(n, _EMPTY)

    def extension(self, c: str) -> FrozenSet[Node]:
        """The nodes with concept c; every node for ``top``."""
        if c == TOP:
            return self.nodes
        return self._index.extension.get(c, _EMPTY)

    def adjacency(self, role: Role) -> Mapping[Node, FrozenSet[Node]]:
        """Each node with a role successor, mapped to its role successors."""
        return self._index.adjacency.get(role, {})

    def links(self) -> Dict[Node, Dict[Node, FrozenSet[Role]]]:
        """Each node x that a role atom mentions, mapped to each node y a
        role atom connects to x, with the roles from x to y: built in one
        pass over ``adjacency`` on each call, and not kept. A pair's roles
        are gathered as a bit per role table, and equal role sets are one
        frozenset."""
        adjacency = self._index.adjacency
        out: Dict[Node, Dict] = {}
        for k, table in enumerate(adjacency.values()):
            bit = 1 << k
            for x, ys in table.items():
                mine = out.get(x)
                if mine is None:
                    mine = out[x] = {}
                for y in ys:
                    mine[y] = mine.get(y, 0) | bit
        roles = list(adjacency)
        sets: Dict[int, FrozenSet[Role]] = {}
        for mine in out.values():
            for y, bits in mine.items():
                s = sets.get(bits)
                if s is None:
                    s = sets[bits] = frozenset(r for k, r in enumerate(roles) if bits >> k & 1)
                mine[y] = s
        return out

    def has_concept(self, c: str, n: Node) -> bool:
        if c == TOP:
            return n in self.nodes
        return n in self._index.extension.get(c, _EMPTY)

    def has_edge(self, role: Role, x: Node, y: Node) -> bool:
        return y in self.adjacency(role).get(x, _EMPTY)

    def successors(self, x: Node, role: Role) -> List[Node]:
        return sorted(self.adjacency(role).get(x, ()), key=node_key)

    def restrict(self, keep: Iterable[Node]) -> "Interpretation":
        keep = frozenset(keep)
        return GraphIndex(
            ((c, n) for c, n in self.concept_atoms if n in keep),
            ((r, a, b) for r, a, b in self.role_atoms if a in keep and b in keep),
        ).seal(keep, self.complete)


# data: an interpretation of names (a name for signatures, not a second class)
ABox = Interpretation
