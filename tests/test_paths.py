"""Role-path expressions: parsing, printing, and NFA membership.

Paths are read by the shapes parser, between ``<`` and ``>`` of a shape
line; ``oracles.parse_regex`` wraps a path in such a line.

The automaton construction is checked against two independent oracles,
one deciding word membership by syntactic derivatives and one by a
Thompson automaton with ε-moves, so neither shares a code path with it.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nfa_accepts, parse_regex, regex_word_match, thompson_nfa
from ontoshacl.core import Role
from ontoshacl.formats import ParseError, parse_constraints
from ontoshacl.paths import RAlt, RSeq, RStar, RSym, regex_str, regex_to_nfa

P, Q, IP = Role("p"), Role("q"), Role("p", True)

# =============================================================================
# STRATEGIES
# =============================================================================

symbols = st.sampled_from([RSym(P), RSym(Q), RSym(IP)])

regexes = st.recursive(
    symbols,
    lambda child: st.one_of(
        st.builds(lambda a, b: RSeq((a, b)), child, child),
        st.builds(lambda a, b: RAlt((a, b)), child, child),
        st.builds(RStar, child),
    ),
    max_leaves=6,
)

words = st.lists(st.sampled_from([P, Q, IP]), max_size=5)


# =============================================================================
# PARSING AND PRINTING
# =============================================================================


@pytest.mark.parametrize(
    "text",
    ["p", "^p", "p/q", "p|q", "(p/q)*", "p*", "(p|^q)/r*", "p**"],
)
def test_canonical_strings_round_trip(text):
    assert regex_str(parse_regex(text)) == text


def test_whitespace_and_redundant_parens_normalize_away():
    assert regex_str(parse_regex(" p / q ")) == "p/q"
    assert regex_str(parse_regex("((p))")) == "p"


def test_parse_structure():
    assert parse_regex("p/q/p") == RSeq((RSym(P), RSym(Q), RSym(P)))
    assert parse_regex("p|q|p") == RAlt((RSym(P), RSym(Q), RSym(P)))
    assert parse_regex("^p*") == RStar(RSym(IP))  # star binds to the atom


@pytest.mark.parametrize(
    "text,fragment,col",
    [
        ("", "expected a role name", 13),
        ("p/", "expected a role name", 15),
        ("(p", "expected ')'", 15),
        ("p)", "expected '>'", 14),
        ("^*", "expected a role name", 14),
        ("p$q", "expected '>'", 14),
        ("*p", "expected a role name", 13),
    ],
)
def test_parse_errors_carry_positions(text, fragment, col):
    # the path starts at column 13 of the shape line
    with pytest.raises(ParseError) as exc:
        parse_constraints(f"$s <- some <{text}>.top", source="in.shacl")
    assert fragment in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value).startswith(f"in.shacl:1:{col}: ")


# =============================================================================
# AUTOMATA
# =============================================================================


def test_star_accepts_the_empty_word():
    nfa = regex_to_nfa(parse_regex("(p/q)*"))
    assert nfa_accepts(nfa, [])
    assert nfa_accepts(nfa, [P, Q])
    assert nfa_accepts(nfa, [P, Q, P, Q])
    assert not nfa_accepts(nfa, [P])
    assert not nfa_accepts(nfa, [Q, P])


def test_inverse_symbols_are_distinct_letters():
    nfa = regex_to_nfa(parse_regex("^p"))
    assert nfa_accepts(nfa, [IP])
    assert not nfa_accepts(nfa, [P])


@settings(max_examples=300, deadline=None)
@given(regexes, words)
def test_nfa_agrees_with_derivative_oracle(e, word):
    assert nfa_accepts(regex_to_nfa(e), word) == regex_word_match(e, word)


@settings(max_examples=300, deadline=None)
@given(regexes, words)
def test_nfa_agrees_with_thompson_oracle(e, word):
    assert nfa_accepts(regex_to_nfa(e), word) == thompson_nfa(e).accepts(word)


def _occurrences(e) -> int:
    if isinstance(e, RSym):
        return 1
    if isinstance(e, RStar):
        return _occurrences(e.inner)
    return sum(map(_occurrences, e.parts if isinstance(e, RSeq) else e.options))


@settings(max_examples=300, deadline=None)
@given(regexes)
def test_nfa_has_a_reachable_state_per_symbol_occurrence_at_most(e):
    nfa = regex_to_nfa(e)
    assert nfa.n_states <= _occurrences(e) + 1
    seen = {nfa.initial}
    work = [nfa.initial]
    while work:
        q = work.pop()
        for a, _, b in nfa.transitions:
            if a == q and b not in seen:
                seen.add(b)
                work.append(b)
    assert seen == set(range(nfa.n_states))


def test_star_then_letter_needs_two_states():
    assert regex_to_nfa(parse_regex("p*/q")).n_states == 2
    assert regex_to_nfa(parse_regex("s/s*")).n_states == 2


@settings(max_examples=150, deadline=None)
@given(regexes, words)
def test_printing_preserves_the_language(e, word):
    reparsed = parse_regex(regex_str(e))
    assert nfa_accepts(regex_to_nfa(reparsed), word) == nfa_accepts(regex_to_nfa(e), word)


@settings(max_examples=150, deadline=None)
@given(regexes)
def test_printing_is_idempotent(e):
    s = regex_str(e)
    assert regex_str(parse_regex(s)) == s
