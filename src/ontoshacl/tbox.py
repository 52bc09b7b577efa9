"""TBox reasoning: role cycles, saturation, implied existentials.

The saturation derives two stores from a normalized TBox:

* conjunction inclusions (M, B), meaning the conjunction of M is
  subsumed by B;
* existentials (M, S, N), meaning anything satisfying M needs a
  successor reached by every role in S and satisfying every concept
  in N.

Premises, role sets and filler sets are kept closed, so querying is
subset testing plus an antichain filter. The at-most-one axioms act
through two merge rules: two existential successors that would both
witness the same counted role collapse into one, and an existential
successor of a child that the child's parent already witnesses
collapses onto that parent.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .core import (
    BOT,
    TOP,
    OneHalfType,
    Role,
    RoleInclusion,
    TBox,
    TwoType,
    half_type_key,
    invert_roles,
)
from .values import value


class UnsupportedPattern(ValueError):
    """Raised for inputs outside the supported normalized fragment."""


# ---------------------------------------------------------------------------
# role cycles


def collapse_role_cycles(tbox: TBox) -> Tuple[TBox, Dict[str, Role]]:
    """Replace each cycle of role inclusions by a single representative.

    Two roles are in one cycle exactly when their super-role sets are
    equal, and the least role of the cycle, in ``(name, inverted)``
    order, stands for it; the mirrored cycle's least role is that role's
    inverse. A role in a cycle with its own inverse is refused, naming
    the least such role. Returns the rewritten TBox and a renaming from
    replaced role names to the role (possibly inverted) they now stand
    for. A TBox without a cycle comes back as the same object, its
    ``hierarchy`` already read.
    """
    hier = tbox.hierarchy
    groups: Dict[FrozenSet[Role], List[Role]] = {}
    for r in sorted(hier):
        if r.invert() in hier[r]:
            raise UnsupportedPattern(
                f"role {r.name} is equivalent to its own inverse; cannot collapse"
            )
        groups.setdefault(hier[r], []).append(r)
    replacement = {m: group[0] for group in groups.values() for m in group[1:]}
    if not replacement:
        return tbox, {}

    def fix(role: Role) -> Role:
        return replacement.get(role, role)

    axioms: List = list(tbox.conj)
    for ax in (*tbox.atmost, *tbox.value, *tbox.exists):
        axioms.append(type(ax)(ax.lhs, fix(ax.role), ax.filler))
    for ax in tbox.roles:
        axioms.append(RoleInclusion(fix(ax.sub), fix(ax.sup)))
    renaming = {m.name: rep for m, rep in replacement.items() if not m.inverted}
    return TBox.of(axioms), renaming


# ---------------------------------------------------------------------------
# saturation


@value(frozen=True)
class Existential:
    premise: FrozenSet[str]
    roles: FrozenSet[Role]
    fillers: FrozenSet[str]


def _key_exist(e: Existential) -> Tuple:
    return (
        tuple(sorted(e.premise)),
        tuple(sorted(e.roles)),
        tuple(sorted(e.fillers)),
    )


def _strip_top(cs: Iterable[str]) -> FrozenSet[str]:
    return frozenset(c for c in cs if c != TOP)


class SaturatedTBox:
    """Derived conjunction inclusions and existentials of a TBox."""

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self._cl_cache: Dict[FrozenSet[str], FrozenSet[str]] = {}
        self._ie_cache: Dict[FrozenSet[str], Tuple[OneHalfType, ...]] = {}
        self.conj: Set[Tuple[FrozenSet[str], str]] = set()
        self.existentials: Set[Existential] = set()
        self._saturate()

    # -- closures ----------------------------------------------------------

    def superroles(self, role: Role) -> FrozenSet[Role]:
        return self.tbox.hierarchy.get(role, frozenset({role}))

    def close_roles(self, roles: Iterable[Role]) -> FrozenSet[Role]:
        out: Set[Role] = set()
        for r in roles:
            out |= self.superroles(r)
        return frozenset(out)

    def cl(self, concepts: Iterable[str]) -> FrozenSet[str]:
        # a frozenset is its own cache key, so a repeated probe builds nothing
        frozen = isinstance(concepts, frozenset)
        if frozen:
            cached = self._cl_cache.get(concepts)
            if cached is not None:
                return cached
        base = _strip_top(concepts)
        result = self._cl_cache.get(base)
        if result is None:
            out = set(base)
            changed = True
            while changed:
                changed = False
                for lhs, rhs in self.conj:
                    if rhs not in out and lhs <= out:
                        out.add(rhs)
                        changed = True
            result = frozenset(out)
            self._cl_cache[base] = result
        if frozen:
            self._cl_cache[concepts] = result
        return result

    def _holds(self, concept: str, closed: FrozenSet[str]) -> bool:
        return concept == TOP or concept in closed

    # -- the saturation loop -------------------------------------------------

    def _saturate(self) -> None:
        for ax in self.tbox.conj:
            self.conj.add((_strip_top(ax.lhs), ax.rhs))
        exist: Set[Existential] = set()
        for ax in self.tbox.exists:
            prem = frozenset() if ax.lhs == TOP else frozenset({ax.lhs})
            exist.add(Existential(prem, frozenset({ax.role}), _strip_top({ax.filler})))
        self.existentials = exist
        # each round ends normalized, and cl and close_roles are idempotent
        self._normalize()
        while True:
            snap = (frozenset(self.conj), frozenset(self.existentials))
            self._step_forall()
            self._step_atmost_siblings()
            self._step_atmost_parent()
            self._step_bottom()
            self._cl_cache.clear()
            self._normalize()
            # compare normalized content, not sizes: a raw derivation that
            # normalization folds back in must not count as progress
            if (frozenset(self.conj), frozenset(self.existentials)) == snap:
                break

    def _normalize(self) -> None:
        """Close each existential, and drop it where its premise closes to
        ``bot``: it fires at no node of a consistent KB."""
        out: Set[Existential] = set()
        for e in self.existentials:
            premise = self.cl(e.premise)
            if BOT not in premise:
                out.add(Existential(premise, self.close_roles(e.roles), self.cl(e.fillers)))
        self.existentials = out

    def _step_forall(self) -> None:
        new_exist: Set[Existential] = set()
        new_conj: Set[Tuple[FrozenSet[str], str]] = set()
        for e in self.existentials:
            for ax in self.tbox.value:
                if ax.role in e.roles and ax.filler != TOP:
                    # forward: the axiom's premise holds at the parent
                    prem = e.premise if ax.lhs == TOP else e.premise | {ax.lhs}
                    new_exist.add(
                        Existential(_strip_top(prem), e.roles, e.fillers | {ax.filler})
                    )
                if ax.role.invert() in e.roles and self._holds(
                    ax.lhs, self.cl(e.fillers)
                ):
                    # backward: the axiom fires at the child, over the edge
                    # pointing back at the parent
                    if ax.filler != TOP:
                        new_conj.add((e.premise, ax.filler))
        self.existentials |= new_exist
        self.conj |= new_conj

    def _step_atmost_siblings(self) -> None:
        new: Set[Existential] = set()
        for ax in self.tbox.atmost:
            hits = [
                e
                for e in self.existentials
                if ax.role in e.roles and self._holds(ax.filler, self.cl(e.fillers))
            ]
            for e1 in hits:
                for e2 in hits:
                    prem = e1.premise | e2.premise
                    if ax.lhs != TOP:
                        prem = prem | {ax.lhs}
                    new.add(
                        Existential(
                            _strip_top(prem),
                            e1.roles | e2.roles,
                            e1.fillers | e2.fillers,
                        )
                    )
        self.existentials |= new

    def _step_atmost_parent(self) -> None:
        new_exist: Set[Existential] = set()
        new_conj: Set[Tuple[FrozenSet[str], str]] = set()
        for e1 in self.existentials:
            child = self.cl(e1.fillers)
            for ax in self.tbox.atmost:
                if not self._holds(ax.lhs, child):
                    continue
                if ax.role.invert() not in e1.roles:
                    continue  # the parent is not reachable over the counted role
                for e2 in self.existentials:
                    if not e2.premise <= child:
                        continue
                    if ax.role not in e2.roles:
                        continue
                    if not self._holds(ax.filler, self.cl(e2.fillers)):
                        continue
                    # the child's counted successor collapses onto the parent:
                    # the parent must satisfy the filler for this to apply
                    prem = _strip_top(e1.premise | ({ax.filler} - {TOP}))
                    for b in self.cl(e2.fillers):
                        new_conj.add((prem, b))
                    new_exist.add(
                        Existential(
                            prem,
                            e1.roles | invert_roles(e2.roles),
                            e1.fillers,
                        )
                    )
        self.existentials |= new_exist
        self.conj |= new_conj

    def _step_bottom(self) -> None:
        for e in self.existentials:
            if BOT in self.cl(e.fillers):
                self.conj.add((e.premise, BOT))

    # -- queries ---------------------------------------------------------------

    def implied_existentials(self, concepts: Iterable[str]) -> Tuple[OneHalfType, ...]:
        """Maximal successor candidates forced by a 1-type, computed once per
        closed concept set after saturation."""
        closed = self.cl(concepts)
        cached = self._ie_cache.get(closed)
        if cached is not None:
            return cached
        cands = {
            OneHalfType(e.roles, e.fillers)
            for e in self.existentials
            if e.premise <= closed
        }
        keep = [
            u
            for u in cands
            if not any(u is not v and u.subsumed_by(v) and u != v for v in cands)
        ]
        result = tuple(sorted(set(keep), key=half_type_key))
        self._ie_cache[closed] = result
        return result

    def is_locally_consistent(self, t: TwoType) -> bool:
        for side in (t.concepts, t.others):
            if BOT in side:
                return False
            if not self.cl(side) <= side:
                return False
        for r in t.roles:
            if not self.superroles(r) <= t.roles:
                return False
        for ax in self.tbox.value:
            if ax.filler == TOP:
                continue
            fwd = ax.lhs == TOP or ax.lhs in t.concepts
            if fwd and ax.role in t.roles and ax.filler not in t.others:
                return False
            bwd = ax.lhs == TOP or ax.lhs in t.others
            if bwd and ax.role.invert() in t.roles and ax.filler not in t.concepts:
                return False
        return True

