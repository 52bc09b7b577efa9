"""Role-path regular expressions and their automata.

Surface syntax, read by the shapes parser in ``formats`` between ``<`` and
``>``: role names, ``^r`` for the inverse of r, ``/`` for concatenation,
``|`` for union, ``*`` for iteration, parentheses. ``regex_str`` prints
that syntax back.

``regex_to_nfa`` builds the partial-derivative automaton, which has no
ε-moves and at most one state per symbol occurrence plus one.
``shapes.normalize`` names one shape per state, and ``evaluate`` walks the
product of the data and the automaton.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple, Union

from .core import Role
from .values import value


@value(frozen=True)
class RSym:
    role: Role


@value(frozen=True)
class RSeq:
    parts: Tuple["Regex", ...]


@value(frozen=True)
class RAlt:
    options: Tuple["Regex", ...]


@value(frozen=True)
class RStar:
    inner: "Regex"


Regex = Union[RSym, RSeq, RAlt, RStar]


def regex_str(e: Regex) -> str:
    if isinstance(e, RSym):
        return str(e.role)
    if isinstance(e, RSeq):
        return "/".join(_wrap(p, top=False) for p in e.parts)
    if isinstance(e, RAlt):
        return "|".join(regex_str(o) for o in e.options)
    return _wrap(e.inner, top=False) + "*"


def _wrap(e: Regex, top: bool) -> str:
    s = regex_str(e)
    if isinstance(e, (RAlt, RSeq)) and not top:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# automata (Antimirov, "Partial derivatives of regular expressions and
# finite automaton constructions", TCS 1996)
#
# A state is the concatenation still to be read, kept flat as a tuple of
# regexes none of which is an ``RSeq``; a letter moves it to each of its
# partial derivatives by that letter.

Rest = Tuple[Regex, ...]


@value(frozen=True)
class NFA:
    """ε-free automaton over roles: states ``0 .. n_states - 1``, one initial
    state, and the states whose remaining concatenation accepts the empty
    word as ``finals``."""

    n_states: int
    initial: int
    finals: FrozenSet[int]
    transitions: Tuple[Tuple[int, Role, int], ...]

    def alphabet(self) -> FrozenSet[Role]:
        return frozenset(r for _, r, _ in self.transitions)


def _nullable(e: Regex) -> bool:
    if isinstance(e, RSym):
        return False
    if isinstance(e, RSeq):
        return all(_nullable(p) for p in e.parts)
    if isinstance(e, RAlt):
        return any(_nullable(o) for o in e.options)
    return True


def _flat(e: Regex) -> Rest:
    if isinstance(e, RSeq):
        return tuple(x for p in e.parts for x in _flat(p))
    return (e,)


def _moves(rest: Rest, k: Rest) -> Iterator[Tuple[Role, Rest]]:
    """Each letter with a partial derivative of the concatenation ``rest``
    by it, followed by ``k``, over the words that read at least one letter
    of ``rest``."""
    for i, e in enumerate(rest):
        after = rest[i + 1 :] + k
        if isinstance(e, RSym):
            yield e.role, after
        elif isinstance(e, RAlt):
            for o in e.options:
                yield from _moves(_flat(o), after)
        else:  # RStar: a flat rest holds no RSeq
            yield from _moves(_flat(e.inner), (e,) + after)
        if not _nullable(e):
            return


def regex_to_nfa(e: Regex) -> NFA:
    start = _flat(e)
    index: Dict[Rest, int] = {start: 0}
    order = [start]
    transitions: List[Tuple[int, Role, int]] = []
    for state in order:  # breadth first: order grows as states are found
        for role, nxt in dict.fromkeys(_moves(state, ())):
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            transitions.append((index[state], role, index[nxt]))
    finals = frozenset(i for i, rest in enumerate(order) if all(map(_nullable, rest)))
    return NFA(len(order), 0, finals, tuple(transitions))
