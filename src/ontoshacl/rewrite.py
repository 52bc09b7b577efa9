"""Rewriting shape constraints so TBox reasoning happens inside the shapes.

The rewriter saturates a set of quadruples (2-type, holds-set P, fails-set
Q, derived shape literals H) describing border nodes of the tree-shaped
model part. From the saturated set it emits plain constraints that are
evaluated over the completed data graph alone. Two pure variants push the
completion itself into constraints: one for TBoxes without counting
axioms, one using binary (edge) shapes.

P and Q list witness entries, each a formula of the package:
- a concept witness ``some [roles].(A & B)`` is the ``core.OneHalfType``
  that ``implied_existentials`` and ``model.succ_config`` return;
- a shape witness ``some [roles].$s`` or ``some [roles].!$s`` is the
  ``ExistsRoles`` body of the normal-form constraint that reads it;
- an individual witness ``@a`` is the constraint's own ``IndividualRef``.

Quadruples are bit-encoded per component of the shapes (``_Codes``). The
2-type is its index in the component's type universe, which is sorted by
``type_key``. Each entry and each shape literal, a ``(name, negated)``
pair, gets a bit the first time it is seen, so P and Q are integer masks
over entries and H an integer mask over literals: K maps ``(type index,
P, Q)`` to H. A union is ``|`` and a subset test ``a & ~b == 0``.
Emission merges each head's rows on masks, drops the subsumed ones,
decodes only the kept ones back to entries and literals, and sorts them
by their printed conjuncts. Bits are given out in an order fixed by the sorted
type universe and the order of the constraints, never by set order, so
the masks, the merge that visits them in mask order and the output are
the same on every run.

No quadruple of K is vacuous: none has a witness in both P ("holds") and
Q ("fails"), as such a quadruple describes no node. The seeds split a
type's witnesses into disjoint P and Q. A rule adds an entry to P only
when Q lacks it. The completion adds a body to Q only where its head did
not fire, and the stratum just closed fires that head wherever the body
is in P: the existential rule's condition (roles at the type, or under a
concept witness of P) is monotone in P, so it held when the body entered
P and holds still. So only a union can be vacuous, and the merge step
stores none. Nothing is lost: every quadruple derived from a vacuous one
(by a rule, the completion or a further union) is vacuous too, and a
vacuous quadruple could reach a satisfiable one only as a child in the
child step: a child that no node has.

C_T lists the normal-form constraints of each component (``out =
list(cons)`` in ``_rewrite_component``), then, per stratum and head, the
merged rows of K that the TBox adds to them. A row of K reads as a
conjunction of literals: the type's concepts, the names of the signature
it lacks negated, the entries of P and the negated entries of Q. A row is
dropped for each head that its own conjuncts derive through the
component's constraints alone (``_Rules.derived``): concept-name bodies
on the type's concepts (and ``top``), ``@a`` bodies for an individual
witness in P, ``some [R].$s`` and ``some [R].!$s`` bodies for that shape
witness in P, and ``ShapeRef`` and ``And`` implications, closed to a
fixpoint. Dropping is sound:
- C_T still begins with every constraint, so a dropped row's head already
  holds at every node where its body holds, and the least model of each
  stratum is unchanged;
- derivability is monotone in the type's concepts and in P, and a merged
  row reads a subset of the conjuncts of a kept row, so no merged row is
  derivable either;
- negated shape references are left out of the check, as no conjunct says
  that a shape fails. That only undercounts what is derivable.

Each head's rows are then merged into implicants (Quine, *The
Problem of Simplifying Truth Functions*, 1952) by ``_Bodies.merge``: two
rows that differ only in one literal, ``x`` in one and ``!x`` in the
other, become one row without it, and a row drops a concept literal of
the signature whose partner, the row with that literal negated, asks for
a part of the signature that no type of the universe has. Passes repeat
until nothing merges; then the rows whose literals include all of
another's go. Merging is sound:
- ``t & x | t & !x = t``, so a merged pair leaves the head's disjunction
  as it was on every node, and a row with all the literals of another
  holds only where that one does;
- a node of consistent completed data has a concept set S closed under
  ``cl``, so its part S & R of the signature R is R-closed (``cl(S & R) &
  R = S & R``) and consistent, and ``cl(S & R)`` is a type of the universe
  with that part. A part that no type has is a part that no node has, so
  the partner holds nowhere and dropping the literal adds no node;
- a merged row reads a subset of the literals of the rows it replaces, so
  it reads no shape, and no shape in a polarity, that they did not: C_T
  stays stratified.
A pass visits the rows in the order of their masks, and each row's
literals in bit order, never in set order, so the merged rows are the
same on every run.

A component's rewriting reads only what its live steps can see of the
anonymous part. A step is a body ``some [R].X``; an existential or a
concept witness ``u`` is crossed by it when ``R <= u.roles``
(``_crossed``), as an anonymous child is entered only over the edge from
its parent, which carries ``u.roles``, closed under super-roles (an
inverse step ``^r`` is one of those roles too). The step is live
(``_live_steps``) when it crosses an existential of the saturated TBox
and X may hold at an anonymous node: an anonymous node has exactly the
fillers of the existential that made it, reaches its parent, which may
be named, over the inverse of that existential's roles, and its own
children over their existentials' roles. With no live step, no
constraint of the component enters an anonymous node where what it
reads could hold. The named part of the core universal model is the
completed data, so the constraints alone give every verdict: C_T is the
constraints, and the component is not saturated. Otherwise a step that
is not live adds nothing from a child, and a child reads its parent only
once entered, so no constraint of the component reads the subtree under
an existential that no live step crosses. The type universe follows
children under crossed existentials only, and the seeds split and pin
crossed witnesses only.

The universe and the bodies range over the component's signature
(``_signature``), not over every concept name: the names its normal-form
constraints read and the premises and fillers of every crossed
existential of the saturated TBox, closed under ``cl``. The rewriting is
evaluated over completed data, where a node's concept set S is closed
under ``cl``, and ``cl(S & R)`` is the one type of the universe that
agrees with S on the signature R. As every crossed premise and filler is
in R, that type has the crossed implied existentials, successor
candidates and consistent children of S. As R is closed under ``cl``,
``cl(S & R)`` names nothing outside R, so every concept of a bare type is
a literal the merge can drop.

A component's rules are compiled once, after its seeds, into ``_Rules``,
with one table of the witnesses a rule may guess, ``@a`` and existential
alike. Closing, settling and emitting a stratum select its rules from
those tables by masking their heads with the stratum's head literals.

The pure rewritings fold the completion into the constraints over the raw
data: ``_c_A`` holds at a node exactly where the completed data has A,
and in the binary variant ``_b_r`` holds on exactly the completed r edges.
``bot`` is a concept like any other there. Each entailed ``A1 & ... & An
<= bot`` gets its row into ``_c_bot``, as value restrictions and merges
into ``bot`` already had, and a row that reads ``bot`` fires where the
completion's rule fires. So one evaluation of a pure rewriting also
decides consistency: ``check_pure_consistency`` reads ``_c_bot`` and the
at-most-one witnesses off its tables, and refuses the KB with the reason
``model.complete_abox`` gives, without completing the data.
"""
from __future__ import annotations

import itertools
from functools import reduce
from operator import itemgetter
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from .core import BOT, TOP, ABox, Node, OneHalfType, Role, TwoType, invert_roles, type_key
from .evaluate import Tables
from .model import check_consistency, succ_config
from .shapes import (
    And,
    BinConstraint,
    BinRef,
    ConceptRef,
    Constraint,
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
    RESERVED_PREFIX,
    RoleStep,
    ShapeBody,
    ShapeRef,
    Stratification,
    Test,
    _components,
    concept_names,
    shape_names,
    shape_occurrences,
)
from .tbox import Existential, SaturatedTBox, UnsupportedPattern, _key_exist

# the saturation of one component stops with RewriteTooLarge beyond this
# many quadruples; K stores satisfiable quadruples only, so only those count
MAX_QUADRUPLES = 100_000


class RewriteTooLarge(RuntimeError):
    """The saturation needs more than ``MAX_QUADRUPLES`` quadruples."""


Entry = Union[OneHalfType, ExistsRoles, IndividualRef]


def _entry_key(e: Entry) -> Tuple[int, str]:
    """The entry's kind, then its printed form, a concept witness printed
    with its concepts in one flat conjunction."""
    if isinstance(e, OneHalfType):
        roles = ",".join(str(r) for r in sorted(e.roles))
        inner = " & ".join(sorted(e.concepts)) if e.concepts else TOP
        return (0, f"some [{roles}].({inner})")
    return (1 if isinstance(e, ExistsRoles) else 2, str(e))


def _inner(e: ExistsRoles) -> Tuple[str, bool]:
    """The shape literal under a shape existential: its name, and whether
    it is negated."""
    return e.body.name, isinstance(e.body, NegShapeRef)


class _Codes:
    """One component's quadruple encoding: its type universe, the bit of
    each entry (``bit_of``) and of each ``(name, negated)`` shape literal
    seen so far, and in ``concepts``, ``inds`` and ``shapes`` the masks of
    the entries of each kind."""

    def __init__(self, types: Sequence[TwoType]):
        self.types = types
        self.bit_of: Dict[Entry, int] = {}
        self.entries: Dict[int, Entry] = {}
        self._lit_bit: Dict[Tuple[str, bool], int] = {}
        self.lits: Dict[int, Tuple[str, bool]] = {}
        self.concepts = self.inds = self.shapes = 0

    def entry(self, e: Entry) -> int:
        bit = self.bit_of.get(e)
        if bit is None:
            bit = self.bit_of[e] = 1 << len(self.entries)
            self.entries[bit] = e
            if isinstance(e, OneHalfType):
                self.concepts |= bit
            elif isinstance(e, IndividualRef):
                self.inds |= bit
            else:
                self.shapes |= bit
        return bit

    def lit(self, name: str, neg: bool = False) -> int:
        key = (name, neg)
        bit = self._lit_bit.get(key)
        if bit is None:
            bit = self._lit_bit[key] = 1 << len(self.lits)
            self.lits[bit] = key
        return bit


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first, each as a mask of its own."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


_Key = Tuple[int, int, int]  # type index, P mask, Q mask
_Steps = FrozenSet[FrozenSet[Role]]  # the role sets of a component's live steps
_K = Dict[_Key, int]  # key -> H mask


def _slot(K: _K, key: _Key) -> int:
    """The literals at ``key``, added empty when new, within the budget."""
    h = K.get(key)
    if h is None:
        if len(K) >= MAX_QUADRUPLES:
            raise RewriteTooLarge(
                f"the rewriting needs more than {MAX_QUADRUPLES} quadruples"
            )
        h = K[key] = 0
    return h


def _put(K: _K, key: _Key, lits: int) -> bool:
    """Add ``lits`` at ``key``; whether that changed K."""
    h = _slot(K, key)
    if lits & ~h:
        K[key] = h | lits
        return True
    return False


def _closed_subsets(st: SaturatedTBox, names: Sequence[str]) -> Set[FrozenSet[str]]:
    out: Set[FrozenSet[str]] = set()
    for n in range(len(names) + 1):
        for combo in itertools.combinations(names, n):
            closed = st.cl(frozenset(combo))
            if BOT not in closed:
                out.add(closed)
    return out


def _live_steps(st: SaturatedTBox, cons: Sequence[Constraint]) -> _Steps:
    """The role sets R of a component's live steps: its bodies ``some
    [R].X`` whose R crosses an existential of ``st`` (``_crossed``) and
    whose X may hold at an anonymous node. ``!$s`` always may; ``$s``
    may when one of its bodies may, a least fixpoint over ``cons``:
    - a concept name when it is ``top`` or a filler of an existential,
      as an anonymous node has exactly the fillers of the existential
      that made it;
    - ``@a`` never, ``!$t`` always, ``$t`` when ``$t`` may, ``$t & $u``
      when both may;
    - ``some [R].Y`` always when R goes back over an existential's edge,
      to a parent that may be named, else when R crosses an existential
      and Y may hold."""
    edges = [e.roles for e in st.existentials]
    back_edges = [invert_roles(r) for r in edges]
    anon = {TOP}.union(*(e.fillers for e in st.existentials))
    may: Set[str] = set()  # the shapes that may hold at an anonymous node

    def down(roles: FrozenSet[Role]) -> bool:
        return any(roles <= r for r in edges)

    def holds(b: ShapeBody) -> bool:
        if isinstance(b, ConceptRef):
            return b.name in anon
        if isinstance(b, ShapeRef):
            return b.name in may
        if isinstance(b, And):
            return holds(b.left) and holds(b.right)
        if isinstance(b, ExistsRoles):
            back = any(b.roles <= r for r in back_edges)
            return back or (down(b.roles) and holds(b.body))
        return isinstance(b, NegShapeRef)

    grown = True
    while grown:
        grown = False
        for c in cons:
            if c.head not in may and holds(c.body):
                may.add(c.head)
                grown = True
    return frozenset(
        c.body.roles
        for c in cons
        if isinstance(c.body, ExistsRoles) and down(c.body.roles) and holds(c.body.body)
    )


def _crossed(steps: _Steps, u: Union[Existential, OneHalfType]) -> bool:
    """Whether a step of ``steps`` can cross the edge into the child of
    ``u``: the edge carries the roles ``u.roles``, so a step over R enters
    the child iff R is a subset of them."""
    return any(step <= u.roles for step in steps)


def _type_universe(
    st: SaturatedTBox, sig: FrozenSet[str], steps: _Steps
) -> Tuple[TwoType, ...]:
    """All 2-types a quadruple can mention: the bare type ``cl`` of each
    subset of the signature ``sig`` that is consistent, one per part of
    sig a data node can have, plus the types of anonymous tree nodes
    reachable from them over existentials that a step of ``steps``
    crosses."""
    names = sorted(sig)
    bare_sets = _closed_subsets(st, names)
    types: Set[TwoType] = {TwoType(s, frozenset(), frozenset()) for s in bare_sets}
    work = list(bare_sets)
    seen: Set[FrozenSet[str]] = set()
    while work:
        p1 = work.pop()
        if p1 in seen:
            continue
        seen.add(p1)
        for u in st.implied_existentials(p1):
            if not _crossed(steps, u):
                continue
            child = TwoType(u.concepts, invert_roles(u.roles), p1)
            if st.is_locally_consistent(child):
                types.add(child)
            work.append(u.concepts)
    return tuple(sorted(types, key=type_key))


def _seed_dict(st: SaturatedTBox, codes: _Codes, steps: _Steps) -> Tuple[_K, List[int]]:
    """Fresh quadruples: every way of splitting a type's implied concept
    witnesses that a step of ``steps`` crosses into present (P) and absent
    (Q), where only its successor candidates may be absent. Also each
    type's pinned witnesses: those the one listed neighbor of the type
    already covers."""
    K: _K = {}
    pinned = []
    for i, t in enumerate(codes.types):
        owed = succ_config(st, t.concepts, [(t.roles, t.others)])
        cand = [codes.entry(u) for u in sorted(owed, key=_entry_key) if _crossed(steps, u)]
        ie = 0
        for u in st.implied_existentials(t.concepts):
            if _crossed(steps, u):
                ie |= codes.entry(u)
        pinned.append(ie & ~sum(cand))
        for n in range(len(cand) + 1):
            for combo in itertools.combinations(cand, n):
                q = sum(combo)  # distinct bits
                _slot(K, (i, ie & ~q, q))
    return K, pinned


def _classify(cons: Sequence[Constraint]):
    by_concept, by_ind, by_ref, by_and, by_neg, by_exists = [], [], [], [], [], []
    for c in cons:
        b = c.body
        if isinstance(b, ConceptRef):
            by_concept.append((c.head, b.name))
        elif isinstance(b, IndividualRef):
            by_ind.append((c.head, b))
        elif isinstance(b, ShapeRef):
            by_ref.append((c.head, b.name))
        elif isinstance(b, And) and isinstance(b.left, ShapeRef) and isinstance(b.right, ShapeRef):
            by_and.append((c.head, b.left.name, b.right.name))
        elif isinstance(b, NegShapeRef):
            by_neg.append((c.head, b.name))
        elif isinstance(b, ExistsRoles) and isinstance(b.body, (ShapeRef, NegShapeRef)):
            by_exists.append((c.head, b))
        else:
            raise ValueError(f"constraint not in normal form: {c}")
    return by_concept, by_ind, by_ref, by_and, by_neg, by_exists


class _Rules:
    """One component compiled once over its codes: every table that
    ``_close``, the completion and the emission read. A stratum masks the
    rules' heads by its own head literals.

    ``pinned`` holds each type's pinned witnesses (``_seed_dict``), and
    ``fire`` the heads of the concept-name bodies that hold on its
    concepts (``top`` on every type). ``witnesses`` has one ``(heads,
    witness, at, via)`` rule per individual entry ``@a`` and shape entry
    ``some [R].$s`` or ``some [R].!$s`` that is a body: the heads of its
    constraints, its bit, the type indices where it may be guessed and the
    concept entries under which it may be. An ``@a`` may be guessed at
    every type, an existential where the type has its roles or no listed
    neighbor. ``implied`` lists the ``(needed literals, head)`` pair of
    each ``ShapeRef``, ``And`` and negated-reference body. For the child
    step, each type has its edge back to its parent (``edges``), the bit
    of the parent's concept witness for it (``wits``, 0 when no seed lists
    it) and the shape entries whose roles it carries (``carried``); each
    shape entry has the literal it claims (``holds``) and the one it
    refutes (``fails``).
    """

    def __init__(self, codes: _Codes, pinned: Sequence[int], cons: Sequence[Constraint]):
        by_concept, by_ind, by_ref, by_and, by_neg, by_exists = _classify(cons)
        self.codes = codes
        self.pinned = pinned
        types = codes.types
        lit = codes.lit
        self.fire = [0] * len(types)
        for i, t in enumerate(types):
            for head, a in by_concept:
                if a == TOP or a in t.concepts:
                    self.fire[i] |= lit(head)
        self.implied = [(lit(inner), lit(head)) for head, inner in by_ref]
        self.implied += [(lit(left) | lit(right), lit(head)) for head, left, right in by_and]
        self.implied += [(lit(inner, neg=True), lit(head)) for head, inner in by_neg]
        self.edges = [invert_roles(t.roles) for t in types]
        self.wits = [
            codes.bit_of.get(OneHalfType(e, t.concepts), 0) for e, t in zip(self.edges, types)
        ]
        self.carried = [0] * len(types)
        self.holds: Dict[int, int] = {}
        self.fails: Dict[int, int] = {}
        heads: Dict[int, int] = {}  # witness entry -> the heads of its constraints
        for head, body in by_ind + by_exists:
            bit = codes.entry(body)
            heads[bit] = heads.get(bit, 0) | lit(head)
        everywhere = frozenset(range(len(types)))
        roots = frozenset(i for i, t in enumerate(types) if not t.roles and not t.others)
        self.witnesses: List[Tuple[int, int, FrozenSet[int], int]] = []
        for witness, head in heads.items():
            body = codes.entries[witness]
            if isinstance(body, IndividualRef):
                self.witnesses.append((head, witness, everywhere, 0))
                continue
            name, neg = _inner(body)
            self.holds[witness] = lit(name, neg)
            self.fails[witness] = lit(name, not neg)
            carriers = [i for i, t in enumerate(types) if body.roles <= t.roles]
            for i in carriers:
                self.carried[i] |= witness
            via = sum(b for b in _bits(codes.concepts) if body.roles <= codes.entries[b].roles)
            self.witnesses.append((head, witness, roots.union(carriers), via))
        self._bodies = sum(heads)  # distinct bits
        self._derived: Dict[Tuple[int, int], int] = {}

    def derived(self, i: int, p: int) -> int:
        """The heads that the constraints alone derive on type ``i`` with
        the entries of ``p`` present: its concept-name heads and those of
        its present bodies, closed under the implications. No conjunct of
        a body says a shape fails, so no negated reference fires."""
        key = (self.fire[i], p & self._bodies)
        h = self._derived.get(key)
        if h is None:
            h = key[0]
            for head, witness, _, _ in self.witnesses:
                if key[1] & witness:
                    h |= head
            grown = True
            while grown:
                h0 = h
                for need, head in self.implied:
                    if h & need == need:
                        h |= head
                grown = h != h0
            self._derived[key] = h
        return h


def _close(rules: _Rules, heads: int, K: _K) -> None:
    """Saturate K under the rules whose head is among the literals
    ``heads``: those of the stratum being closed. Every table comes from
    ``rules``; the stratum only masks its rules by ``heads``."""
    codes = rules.codes
    types = codes.types
    pinned, edges, wits, carried = rules.pinned, rules.edges, rules.wits, rules.carried
    holds, fails, fire = rules.holds, rules.fails, rules.fire
    guesses = [(h & heads, w, at, via) for h, w, at, via in rules.witnesses if h & heads]
    implied = [(need, h) for need, h in rules.implied if h & heads]
    # the existentials of the stratum, as (heads, roles, inner literal)
    exists = [
        (h, codes.entries[w].roles, holds[w]) for h, w, _, _ in guesses if w & codes.shapes
    ]

    # the rules only add, so the saturated K does not depend on the order
    # they visit it in; _emit sorts once for output
    read: _K = {}  # H of each key when the last merge step ran
    while True:
        changed = False

        for key in list(K):
            i, p, q = key
            h0 = K[key]
            h = h0 | (fire[i] & heads)
            # guess each witness where it may hold, unless it is known absent
            for head, witness, at, via in guesses:
                if q & witness or (i not in at and not p & via):
                    continue
                if p & witness:
                    h |= head
                elif _put(K, (i, p | witness, q), h | head):
                    changed = True
            for need, head in implied:
                if h & need == need:
                    h |= head
            if h != h0:
                K[key] = h
                changed = True

        # propagate through an anonymous child: the child quadruple models a
        # border node whose only listed neighbor is the parent. The child's
        # own witness claims that could only be satisfied or refuted by the
        # parent are discharged against the parent's H. Children are grouped
        # by the parent concepts they hang off, then by the rule they serve.
        if exists:
            kids: Dict[FrozenSet[str], List[List[Tuple[int, int]]]] = {}
            for (ic, pc, qc), hc in K.items():
                if not wits[ic] or pc & codes.inds or pc & codes.concepts != pinned[ic]:
                    continue
                discharge = 0
                for bit in _bits(pc & codes.shapes):
                    discharge |= holds[bit]
                for bit in _bits(qc & carried[ic]):
                    discharge |= fails[bit]
                per_rule = kids.setdefault(types[ic].others, [[] for _ in exists])
                for rule, (_, roles, inner) in zip(per_rule, exists):
                    if hc & inner and roles <= edges[ic]:
                        rule.append((wits[ic], discharge))
            for key, h in list(K.items()):
                per_rule = kids.get(types[key[0]].concepts)
                if per_rule is None:
                    continue
                q = key[2]
                h0 = h
                for rule, (head, _, _) in zip(per_rule, exists):
                    if not head & ~h:
                        continue
                    for wit, discharge in rule:
                        if q & wit and not discharge & ~h:
                            h |= head
                            break
                if h != h0:
                    K[key] = h
                    changed = True

        # combine quadruples that agree on which concept witnesses are absent;
        # a pair whose H masks are both as the last merge step read them is
        # skipped, since that step combined it or found it combined, and so
        # is a pair whose union puts a witness in both P and Q
        buckets: Dict[Tuple[int, int], Tuple[List[_Key], List[_Key]]] = {}
        for key, h in K.items():
            fresh, old = buckets.setdefault((key[0], key[2] & codes.concepts), ([], []))
            (fresh if read.get(key) != h else old).append(key)
        read = dict(K)
        for fresh, old in buckets.values():
            pairs = itertools.chain(
                itertools.combinations(fresh, 2), itertools.product(fresh, old)
            )
            for (i, p1, q1), (_, p2, q2) in pairs:
                if p1 & q2 or p2 & q1:
                    continue
                if _put(K, (i, p1 | p2, q1 | q2), K[i, p1, q1] | K[i, p2, q2]):
                    changed = True

        if not changed:
            return


def _completion_dict(K: _K, rules: _Rules, heads: int, settled: FrozenSet[str]) -> _K:
    """Between strata: settle unfired shapes as negative knowledge.

    Adds to Q each witness of a constraint whose head is among the
    literals ``heads`` (the stratum just closed) and did not fire, and to H
    the negations of the unfired ``settled`` names.
    """
    # (heads, witness): the witness goes into Q where one of the heads did not fire
    failed = [(h & heads, w) for h, w, _, _ in rules.witnesses if h & heads]
    lit = rules.codes.lit
    negated = [(lit(name), lit(name, neg=True)) for name in sorted(settled)]
    out: _K = {}
    for (i, p, q), h in K.items():
        for head, witness in failed:
            if head & ~h:
                q |= witness
        for pos, neg in negated:
            if not h & pos:
                h |= neg
        out[i, p, q] = out.get((i, p, q), 0) | h
    return out


def _signature(st: SaturatedTBox, cons: Sequence[Constraint], steps: _Steps) -> FrozenSet[str]:
    """The concept names a component's rewriting is built over: those its
    normal-form constraints read and the premises and fillers of every
    existential of the saturated TBox that a live step of ``steps``
    crosses, closed under ``cl``.

    An anonymous child is entered only over the edge from its parent, and
    that edge carries the existential's roles, closed under super-roles
    (an inverse step ``^r`` is one of them too). A step that is not live
    reads nothing that holds at a child, so no constraint of the
    component reads the subtree under an existential that no live step
    crosses, and that existential's names are not needed. Without the
    closure the ``cl`` of a part of the signature, a bare type, could
    carry a name outside it, which the merge cannot drop."""
    sig = set(concept_names(cons))
    for e in st.existentials:
        if _crossed(steps, e):
            sig |= e.premise | e.fillers
    return st.cl(sig) - {TOP, BOT}


def _and_chain(parts: Sequence[ShapeBody]) -> ShapeBody:
    if not parts:
        return ConceptRef(TOP)
    body = parts[0]
    for nxt in parts[1:]:
        body = And(body, nxt)
    return body


_Conj = Tuple[ShapeBody, str]  # a conjunct and its printed form
_Row = Tuple[int, int, int]  # a row's type concepts, P and Q, as masks
# a merged row: its present and absent concepts, P and Q, as masks
_Term = Tuple[int, int, int, int]
# an entry's order among a body's entries, its present and absent conjunct
_EntryConj = Tuple[Tuple[int, str], _Conj, _Conj]


def _conj(body: ShapeBody) -> _Conj:
    return body, str(body)


class _Bodies:
    """The merged rows of one component's heads and their bodies.

    Each concept name of the component's types gets a bit, the names of
    the signature first, so a type's concepts are a mask (``concepts``)
    and its part of the signature that mask under ``sig``. ``parts`` holds
    every part a type of the universe has: the only parts a node of the
    completed data can have.
    """

    def __init__(self, codes: _Codes, sig: FrozenSet[str]):
        self.codes = codes
        named = sorted(sig)
        named += sorted({a for t in codes.types for a in t.concepts} - sig)
        bit_of = {a: 1 << k for k, a in enumerate(named)}
        self.names = {bit: a for a, bit in bit_of.items()}
        self.sig = (1 << len(sig)) - 1
        self.concepts = [sum(bit_of[a] for a in t.concepts) for t in codes.types]
        self.parts = sorted({m & self.sig for m in self.concepts})
        self._occurs: Dict[Tuple[int, int], bool] = {}

    def occurs(self, pos: int, neg: int) -> bool:
        """Whether some type's part of the signature has the names ``pos``
        and none of ``neg``."""
        key = (pos & self.sig, neg & self.sig)
        found = self._occurs.get(key)
        if found is None:
            pos, neg = key
            found = self._occurs[key] = any(
                not pos & ~part and not neg & part for part in self.parts
            )
        return found

    def _merge_one(self, term: _Term, terms: Set[_Term], used: Set[_Term]) -> Optional[_Term]:
        """``term`` without the first literal, concepts then entries in bit
        order, whose partner, the term with that literal negated, is an
        unused term of ``terms`` (then marked used); failing that, without
        the first concept whose partner asks for a part of the signature
        that no type has."""
        pos, neg, p, q = term
        concept = [((pos ^ b, neg ^ b, p, q), (pos & ~b, neg & ~b, p, q)) for b in _bits(pos | neg)]
        entry = [((pos, neg, p ^ b, q ^ b), (pos, neg, p & ~b, q & ~b)) for b in _bits(p | q)]
        for partner, merged in concept + entry:
            if partner in terms and partner not in used:
                used.add(partner)
                return merged
        for (ppos, pneg, _, _), merged in concept:
            if not self.occurs(ppos, pneg):
                return merged
        return None

    def merge(self, rows: Iterable[_Row]) -> List[_Term]:
        """One head's rows as merged terms: each pass visits the terms in
        mask order and replaces each unused one, and the partner it drops
        a literal against, by the term without it, until a pass merges
        nothing; then the terms that another's literals subsume go."""
        terms: Set[_Term] = {(c, self.sig & ~c, p, q) for c, p, q in rows}
        while True:
            used: Set[_Term] = set()
            merged: Set[_Term] = set()
            for term in sorted(terms):
                if term not in used:
                    made = self._merge_one(term, terms, used)
                    if made is not None:
                        used.add(term)
                        merged.add(made)
            if not merged:
                break
            terms = merged | (terms - used)
        # terms come by their number of literals, so comparing with the
        # kept ones is enough
        kept: List[_Term] = []
        for pos, neg, p, q in sorted(terms, key=lambda t: (sum(x.bit_count() for x in t), t)):
            if not any(
                not kpos & ~pos and not kneg & ~neg and not kp & ~p and not kq & ~q
                for kpos, kneg, kp, kq in kept
            ):
                kept.append((pos, neg, p, q))
        return kept

    def _entries(self, mask: int) -> List[_EntryConj]:
        """The entries of ``mask`` in body order, each after the key that
        orders it and with the conjuncts that say it is present and absent."""
        made = []
        for bit in _bits(mask):
            e = self.codes.entries[bit]
            body: ShapeBody = e
            if isinstance(e, OneHalfType):
                body = ExistsRoles(e.roles, _and_chain([ConceptRef(c) for c in sorted(e.concepts)]))
            made.append((_entry_key(e), _conj(body), _conj(Not(body))))
        return sorted(made, key=itemgetter(0))

    def body(self, term: _Term) -> Tuple[Tuple[int, List[str]], ShapeBody]:
        """The body a term prints, after the key that orders a head's
        bodies: the number of its printed conjuncts, then their sorted
        list. It lists the present concepts, the absent ones negated, then
        P and Q."""
        pos, neg, p, q = term
        conj = [_conj(ConceptRef(a)) for a in sorted(self.names[b] for b in _bits(pos))]
        conj += [_conj(Not(ConceptRef(a))) for a in sorted(self.names[b] for b in _bits(neg))]
        conj += [e[1] for e in self._entries(p)]
        conj += [e[2] for e in self._entries(q)]
        tokens = sorted(s for _, s in conj)
        return (len(tokens), tokens), _and_chain([x for x, _ in conj])


def _emit(K: _K, bodies: _Bodies, rules: _Rules, heads: int) -> List[Constraint]:
    """The rows of K for the head literals ``heads`` that the TBox adds to
    the constraints: each head's rows merged (``_Bodies.merge``), their
    bodies sorted by their printed conjuncts."""
    codes = bodies.codes
    # a row is its type's concepts (the names of sig the type lacks are
    # its negated ones), P and Q; rows that agree on all three are one
    # row. K holds no vacuous row (see the module docstring). A row is
    # dropped for each head that it does not derive, or that the
    # constraints derive from its own conjuncts; derivation grows with the
    # conjuncts, so no merged row would be derived either
    concepts = bodies.concepts
    per_head: Dict[str, Set[_Row]] = {}
    for (i, p, q), h in K.items():
        h &= heads
        if h:
            h &= ~rules.derived(i, p)
        if not h:
            continue
        row = (concepts[i], p, q)
        for bit in _bits(h):
            per_head.setdefault(codes.lits[bit][0], set()).add(row)

    out: List[Constraint] = []
    for head in sorted(per_head):
        made = sorted(map(bodies.body, bodies.merge(per_head[head])), key=itemgetter(0))
        out.extend(Constraint(head, body) for _, body in made)
    return out


def _split(strat: Stratification) -> List[Tuple[Tuple[Constraint, ...], ...]]:
    """The strata of each weakly connected component of the graph that
    links a head to every shape name its body reads, in the order of each
    component's first item in ``strat``; empty strata are dropped."""
    adj: Dict[str, Set[str]] = {}
    for group in strat.strata:
        for c in group:
            adj.setdefault(c.head, set())
            for name, _ in shape_occurrences(c.body):
                adj[c.head].add(name)
                adj.setdefault(name, set()).add(c.head)
    # in a symmetric graph the strongly connected components are the
    # weakly connected ones
    comps = _components({n: sorted(m) for n, m in adj.items()})
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    parts: Dict[int, List[List[Constraint]]] = {}
    for i, group in enumerate(strat.strata):
        for c in group:
            strata = parts.setdefault(comp_of[c.head], [[] for _ in strat.strata])
            strata[i].append(c)
    return [tuple(tuple(g) for g in strata if g) for strata in parts.values()]


def _rewrite_component(
    st: SaturatedTBox, strata: Sequence[Sequence[Constraint]]
) -> Tuple[List[Constraint], int]:
    """One saturation over constraints that read no shape outside them:
    the constraints and their emitted rewriting, and the quadruple count;
    the constraints alone, from no quadruple, when no step is live."""
    cons = [c for group in strata for c in group]
    steps = _live_steps(st, cons)
    if not steps:
        return list(cons), 0
    sig = _signature(st, cons, steps)
    codes = _Codes(_type_universe(st, sig, steps))
    K, pinned = _seed_dict(st, codes, steps)
    rules = _Rules(codes, pinned, cons)
    bodies = _Bodies(codes, sig)

    occurring = shape_names(cons)
    out = list(cons)
    heads = 0  # the head literals of the stratum closed last
    for i, group in enumerate(strata):
        # settling is idempotent, and a quadruple that closing adds extends
        # the P, Q and H of settled ones, so each stratum is settled once
        later_heads = {c.head for g in strata[i:] for c in g}
        settled = frozenset(n for n in occurring if n not in later_heads)
        K = _completion_dict(K, rules, heads, settled)
        heads = 0
        for c in group:
            heads |= codes.lit(c.head)
        _close(rules, heads, K)
        out.extend(_emit(K, bodies, rules, heads))
    return out, len(K)


def rewrite(
    st: SaturatedTBox,
    strat: Stratification,
    *,
    stats: Optional[Dict[str, int]] = None,
) -> Tuple[Constraint, ...]:
    """Compile TBox consequences into the constraints themselves.

    The result is validated over the completed data graph with no further
    reasoning. Shapes that never read each other cannot change each
    other's quadruples, so each weakly connected component of the shape
    references is saturated on its own, and the outputs are concatenated
    in the order of the components' first items in ``strat``. A component
    with no live step (``_live_steps``) is its own rewriting and is not
    saturated. Emission happens per stratum so the result stays
    stratified. ``quadruples`` in ``stats`` is the sum over the saturated
    components; a component that needs more than ``MAX_QUADRUPLES`` raises
    RewriteTooLarge.

    No constraint appears twice: the components partition the heads, each
    head is emitted in one stratum only, distinct merged rows print
    distinct bodies, and a row that would print a source body is derived
    by the source constraints, as is every row it could be merged from,
    so it is dropped before merging.
    """
    out: List[Constraint] = []
    quadruples = 0
    for strata in _split(strat):
        cons, size = _rewrite_component(st, strata)
        out.extend(cons)
        quadruples += size
    if stats is not None:
        stats["quadruples"] = quadruples
    return tuple(out)


# ---------------------------------------------------------------------------
# pure rewriting: fold the ABox completion into the constraints


def _concept_shape(a: str) -> str:
    return f"{RESERVED_PREFIX}c_{a}"


def _role_shape(r: Role) -> str:
    return f"{RESERVED_PREFIX}b_{r}"


# the shape of the pure rewritings that holds where the completion has bot
BOT_SHAPE = _concept_shape(BOT)


def _concept_ref(a: str) -> ShapeBody:
    """The shape that mimics concept a in the completed graph."""
    return ConceptRef(TOP) if a == TOP else ShapeRef(_concept_shape(a))


def _entailed_conj(st: SaturatedTBox) -> List[Constraint]:
    """``_c_B <- _c_A1 & ... & _c_An`` for each entailed ``A1 & ... & An <= B``
    but the trivial ``A <= A`` and ``... & bot <= bot``; the saturation
    makes a row of the second kind only from an axiom with ``bot`` on its
    left. B or an Ai may be ``bot``, so ``_c_bot`` holds where the
    completion derives ``bot``, for ``check_pure_consistency``."""
    out = []
    for prem, head in sorted(st.conj, key=lambda x: (sorted(x[0]), x[1])):
        if prem == frozenset({head}) or (head == BOT and BOT in prem):
            continue
        body = _and_chain([ShapeRef(_concept_shape(a)) for a in sorted(prem)])
        out.append(Constraint(_concept_shape(head), body))
    return out


def check_pure_consistency(st: SaturatedTBox, data: ABox, tables: Tables) -> None:
    """Raise InconsistentKB where ``complete_abox`` would, reading the tables
    of a pure rewriting over the raw data: ``_c_A`` holds at the nodes the
    completion gives A, and ``_b_r`` on its r edges. The tables need
    ``BOT_SHAPE`` and, for each at-most-one axiom, the shapes of its
    concepts and its role."""
    unary, binary = tables
    succ: Dict[Role, Dict[Node, List[Node]]] = {}
    for r in {ax.role for ax in st.tbox.atmost}:
        for x, y in binary.get(_role_shape(r), ()):
            succ.setdefault(r, {}).setdefault(x, []).append(y)
    check_consistency(
        st.tbox,
        data.individuals(),
        lambda c, a: c == TOP or a in unary.get(_concept_shape(c), ()),
        lambda r, a: succ.get(r, {}).get(a, ()),
    )


def _concept_seeds(st: SaturatedTBox, names: Iterable[str]) -> List[Constraint]:
    """``_c_A <- A`` for each concept name of the TBox and of ``names``."""
    seeds = (st.tbox.concept_names() | set(names)) - {TOP, BOT}
    return [Constraint(_concept_shape(a), ConceptRef(a)) for a in sorted(seeds)]


def _simplify_roles(st: SaturatedTBox, roles: FrozenSet[Role]) -> FrozenSet[Role]:
    # drop roles implied by a strictly smaller one in the same conjunction
    sup = st.superroles
    return frozenset(
        r for r in roles if not any(r in sup(s) and s not in sup(r) for s in roles)
    )


def _subst(
    body: ShapeBody,
    exists: Callable[[FrozenSet[Role], ShapeBody], ShapeBody],
    names: Set[str],
) -> ShapeBody:
    """Concept names become the shapes that mimic the completed graph, and
    ``exists`` rebuilds each role existential over its substituted body.
    Each replaced concept name goes into ``names``."""
    if isinstance(body, ConceptRef):
        if body.name in (TOP, BOT):
            return body
        names.add(body.name)
        return ShapeRef(_concept_shape(body.name))
    if isinstance(body, (IndividualRef, ShapeRef, NegShapeRef)):
        return body
    if isinstance(body, (And, Or)):
        return type(body)(_subst(body.left, exists, names), _subst(body.right, exists, names))
    if isinstance(body, Not):
        return Not(_subst(body.body, exists, names))
    if isinstance(body, ExistsRoles):
        return exists(body.roles, _subst(body.body, exists, names))
    raise ValueError(f"cannot substitute inside {body!r}")


def _alchi_tbox(st: SaturatedTBox) -> List[Constraint]:
    """The TBox's part of ``pure_rewrite_alchi``: the entailed conjunctions
    and, for each value restriction, one step back over each sub-role."""
    ts = _entailed_conj(st)
    all_roles = sorted(st.tbox.all_roles())
    for ax in st.tbox.value:
        for s in all_roles:
            if ax.role in st.superroles(s):
                body = ExistsRoles(frozenset({s.invert()}), _concept_ref(ax.lhs))
                ts.append(Constraint(_concept_shape(ax.filler), body))
    return ts


def pure_rewrite_alchi(
    st: SaturatedTBox, c_t: Sequence[Constraint]
) -> Tuple[Constraint, ...]:
    """Validation over the raw data graph, for TBoxes without counting.

    Concept names become shapes that mimic the completed graph. Role
    conjunctions drop roles that are implied by a contained subrole, and
    each remaining role r becomes a choice among r and its sub-roles, so
    that edges the completion derives by the role hierarchy count.
    """
    if st.tbox.atmost:
        raise UnsupportedPattern(
            "counting axioms need edge rewriting; use the binary-shape variant"
        )
    ts = _alchi_tbox(st)
    # over raw data a role r holds wherever one of its sub-roles does
    all_roles = sorted(st.tbox.all_roles())
    subroles = {
        r: [r] + [s for s in all_roles if s != r and r in st.superroles(s)]
        for r in all_roles
    }
    picks: Dict[FrozenSet[Role], List[FrozenSet[Role]]] = {}  # per role set

    def exists(roles: FrozenSet[Role], inner: ShapeBody) -> ShapeBody:
        if roles not in picks:
            choices = [subroles.get(r, [r]) for r in sorted(_simplify_roles(st, roles))]
            picks[roles] = [frozenset(pick) for pick in itertools.product(*choices)]
        return reduce(Or, [ExistsRoles(pick, inner) for pick in picks[roles]])

    names: Set[str] = set()
    replaced = [Constraint(c.head, _subst(c.body, exists, names)) for c in c_t]
    ts += _concept_seeds(st, names)
    return tuple(dict.fromkeys(replaced + ts))


def _exists_via_edge_shapes(roles: FrozenSet[Role], inner: ShapeBody) -> ShapeBody:
    refs = [BinRef(_role_shape(r)) for r in sorted(roles)]
    path = refs[0]
    for nxt in refs[1:]:
        path = PInter(path, nxt)
    return ExistsVia(path, inner)


def _shaclb_tbox(st: SaturatedTBox) -> List[Item]:
    """The TBox's part of ``pure_rewrite_shaclb``: the entailed
    conjunctions, value restrictions, counting merges and role inclusions."""
    ts: List[Item] = list(_entailed_conj(st))
    for ax in st.tbox.value:
        body = ExistsVia(BinRef(_role_shape(ax.role.invert())), _concept_ref(ax.lhs))
        ts.append(Constraint(_concept_shape(ax.filler), body))
    # counting: an implied witness merges onto an existing one, so the
    # edge shape gains the implied roles and the witness gains the fillers
    hat_n = 0
    for e in sorted(st.existentials, key=_key_exist):
        for ax in st.tbox.atmost:
            if ax.role not in e.roles:
                continue
            if ax.filler != TOP and ax.filler not in e.fillers:
                continue
            guard_parts: List[ShapeBody] = []
            if ax.lhs != TOP:
                guard_parts.append(ShapeRef(_concept_shape(ax.lhs)))
            guard_parts += [ShapeRef(_concept_shape(a)) for a in sorted(e.premise)]
            hat = f"{RESERVED_PREFIX}hat{hat_n}"
            hat_n += 1
            ts.append(Constraint(hat, _and_chain(guard_parts)))
            to_witness = PConcat(Test(hat), BinRef(_role_shape(ax.role)))
            if ax.filler != TOP:
                to_witness = PConcat(to_witness, Test(_concept_shape(ax.filler)))
            for ri in sorted(e.roles):
                ts.append(BinConstraint(_role_shape(ri), to_witness))
            from_hat = ExistsVia(PInverse(BinRef(_role_shape(ax.role))), ShapeRef(hat))
            for bj in sorted(e.fillers):
                ts.append(Constraint(_concept_shape(bj), And(_concept_ref(ax.filler), from_hat)))
    for ri in st.tbox.roles:
        ts.append(BinConstraint(_role_shape(ri.sup), BinRef(_role_shape(ri.sub))))
    return ts


def _role_bases(roles: Set[Role]) -> List[Item]:
    """Each role's edge shape over its data edges, and each role name's two
    directions as inverses of each other."""
    ts: List[Item] = [BinConstraint(_role_shape(r), RoleStep(r)) for r in sorted(roles)]
    for name in sorted({r.name for r in roles}):
        fwd, bwd = Role(name), Role(name, inverted=True)
        ts.append(BinConstraint(_role_shape(bwd), PInverse(BinRef(_role_shape(fwd)))))
        ts.append(BinConstraint(_role_shape(fwd), PInverse(BinRef(_role_shape(bwd)))))
    return ts


def pure_rewrite_shaclb(
    st: SaturatedTBox, c_t: Sequence[Constraint]
) -> Tuple[Item, ...]:
    """Validation over the raw data graph for the full axiom language.

    Edge shapes carry derived role atoms, so the counting-axiom merges of
    the completion can be reproduced pair by pair.
    """
    ts = _shaclb_tbox(st)
    # the roles of the TBox and of every role existential of C_T
    base_roles = set(st.tbox.all_roles())

    def exists(roles: FrozenSet[Role], inner: ShapeBody) -> ShapeBody:
        base_roles.update(roles)
        return _exists_via_edge_shapes(roles, inner)

    names: Set[str] = set()
    replaced: List[Item] = [Constraint(c.head, _subst(c.body, exists, names)) for c in c_t]
    ts += _role_bases(base_roles)
    ts += _concept_seeds(st, names)
    return tuple(dict.fromkeys(replaced + ts))
