"""Role-path regular expressions and their automata.

Surface syntax: role names, ``^r`` for the inverse of r, ``/`` for
concatenation, ``|`` for union, ``*`` for iteration, parentheses.

``regex_to_nfa`` builds the partial-derivative automaton, which has no
ε-moves and at most one state per symbol occurrence plus one.
``shapes.normalize`` names one shape per state, and ``evaluate`` walks the
product of the data and the automaton.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple, Union

from .core import Role
from .values import value


class RegexError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


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
# parsing


def parse_regex(text: str) -> Regex:
    toks = _tokenize(text)
    expr, i = _parse_alt(toks, 0)
    if i != len(toks):
        raise RegexError(f"unexpected {toks[i][0]!r}", toks[i][1])
    return expr


def _tokenize(text: str) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "|/*()^":
            out.append((ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append((text[i:j], i))
            i = j
            continue
        raise RegexError(f"bad character {ch!r}", i)
    if not out:
        raise RegexError("empty path expression", 0)
    return out


def _parse_alt(toks, i) -> Tuple[Regex, int]:
    opts = []
    expr, i = _parse_seq(toks, i)
    opts.append(expr)
    while i < len(toks) and toks[i][0] == "|":
        expr, i = _parse_seq(toks, i + 1)
        opts.append(expr)
    return (opts[0] if len(opts) == 1 else RAlt(tuple(opts))), i


def _parse_seq(toks, i) -> Tuple[Regex, int]:
    parts = []
    expr, i = _parse_atom(toks, i)
    parts.append(expr)
    while i < len(toks) and toks[i][0] == "/":
        expr, i = _parse_atom(toks, i + 1)
        parts.append(expr)
    return (parts[0] if len(parts) == 1 else RSeq(tuple(parts))), i


def _parse_atom(toks, i) -> Tuple[Regex, int]:
    if i >= len(toks):
        raise RegexError("unexpected end of path expression", toks[-1][1] + 1)
    tok, pos = toks[i]
    if tok == "(":
        expr, i = _parse_alt(toks, i + 1)
        if i >= len(toks) or toks[i][0] != ")":
            raise RegexError("missing ')'", pos)
        i += 1
    elif tok == "^":
        if i + 1 >= len(toks) or not toks[i + 1][0][0].isalpha():
            raise RegexError("'^' must be followed by a role name", pos)
        expr = RSym(Role(toks[i + 1][0], True))
        i += 2
    elif tok[0].isalpha() or tok[0] == "_":
        expr = RSym(Role(tok))
        i += 1
    else:
        raise RegexError(f"unexpected {tok!r}", pos)
    while i < len(toks) and toks[i][0] == "*":
        expr = RStar(expr)
        i += 1
    return expr, i


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
