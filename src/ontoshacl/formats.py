"""Text formats: four line-oriented file kinds plus the JSON report.

Ontology files (`.tbox`), data files (`.abox`), shape files (`.shacl`)
and target files (`.targets`) share one lexical style: `#` starts a
comment, blank lines are skipped, uppercase-initial identifiers are
concepts, lowercase-initial are roles, `$x` is a shape, `@x` is an
individual, `^r` is the inverse of r. Parsing what a serializer
writes reproduces the value; for interpretations that holds of data, as
the last paragraph says.

Flat lines are read by compiled patterns and name checks on their
groups: every ``.tbox`` axiom (``_TBOX_LINE``), every ``.abox`` atom
(``_ABOX_LINE``), every ``.targets`` line (``_TARGET_LINE``), and each
``.shacl`` line whose body is a ``|`` of ``&`` chains of ``$s``, ``!$s``,
``@a``, a concept, or ``some [roles].`` over one of those
(``_FLAT_ATOM``): no parentheses, paths or comparisons. ``_Cursor``
reads every other ``.shacl`` line and every line that a pattern or its
checks refuse, so it words every error, at its column. ``_role`` reads
every role name the cursor reads: in axioms, data, role sets ``[...]``
and path expressions ``<...>``. ``parse_abox`` and ``parse_constraints``
take the renaming of ``tbox.collapse_role_cycles``, and read a collapsed
name as the role it now stands for.

Data and every other interpretation share one printer,
``serialize_interpretation``: one atom a line, in sorted order. An
anonymous node prints as `_:` and the label ``build_can`` named it by,
such as `_:a.1.2`, the second child of the first child of a; a chase
null prints as `_:n` and its rank in node order. Data mentions each of its
nodes, so its text is a `.abox` file that ``parse_abox`` reads back to
the same value. A chase state or a restricted core may hold a node that
no atom mentions; it gets a `top(x)` line, which shows the node but does
not read back, as ``parse_abox`` refuses to assert `top`.
"""
from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .core import (
    BOT,
    TOP,
    ABox,
    AtMostOne,
    Axiom,
    ConjInclusion,
    ExistsInclusion,
    Interpretation,
    Node,
    Null,
    Role,
    RoleInclusion,
    TBox,
    ValueRestriction,
    node_key,
)
from .paths import RAlt, Regex, RSeq, RStar, RSym
from .shapes import (
    RESERVED_PREFIX,
    And,
    ConceptRef,
    Constraint,
    ExistsPath,
    ExistsRoles,
    GuardedDisj,
    GuardedEq,
    IndividualRef,
    NegShapeRef,
    Not,
    Or,
    ShapeBody,
    ShapeRef,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, source: str = "<input>"):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.source = source


# an identifier's characters: in a ``str`` pattern, ``\w`` is exactly a
# character that ``isalnum()`` or is ``_``
_IDENT = re.compile(r"\w*")


def _ident_end(text: str, i: int) -> int:
    return _IDENT.match(text, i).end()


class _Cursor:
    """Single-line scanner with 1-based column reporting; ``renaming``
    maps the role names ``_role`` reads to the roles they stand for."""

    def __init__(
        self, text: str, line: int, source: str, renaming: Optional[Mapping[str, Role]] = None
    ):
        self.text = text
        self.i = 0
        self.line = line
        self.source = source
        self.renaming = renaming or {}

    def error(self, msg: str, back: int = 0) -> ParseError:
        """The error at the cursor, or ``back`` characters before it: at
        the first character of a word just read, with ``len(word)``."""
        return ParseError(msg, self.line, self.i - back + 1, self.source)

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def eat(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.i):
            raise self.error(f"expected {token!r}")
        self.i += len(token)

    def try_eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.i):
            self.i += len(token)
            return True
        return False

    def ident(self, what: str) -> str:
        self.skip_ws()
        j = _ident_end(self.text, self.i)
        if j == self.i:
            raise self.error(f"expected {what}")
        word = self.text[self.i : j]
        self.i = j
        return word

    def done(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)

    def expect_done(self) -> None:
        if not self.done():
            raise self.error(f"unexpected trailing input {self.text[self.i:]!r}")


def _lines(text: str) -> List[Tuple[int, str]]:
    """The numbered lines of a file that hold more than a comment, with
    the comment cut. A line ends only at LF, CR LF or CR, as in an
    editor: ``str.splitlines`` would also end one at a form feed, a
    vertical tab or a Unicode line separator."""
    out = []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for k, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        body = raw.strip()
        if body:
            out.append((k, body))
    return out


# ---------------------------------------------------------------------------
# concepts and roles


def _concept(cur: _Cursor) -> str:
    return _concept_word(cur, cur.ident("a concept name"))


def _is_concept(word: str) -> bool:
    return word in (TOP, BOT) or word[0].isupper()


def _is_role(word: str) -> bool:
    return word[0].islower() and word not in (TOP, BOT)


def _concept_word(cur: _Cursor, word: str) -> str:
    """``word``, just read, as a concept name."""
    if not _is_concept(word):
        raise cur.error(f"concept names start uppercase, got {word!r}", len(word))
    return word


def _role(cur: _Cursor) -> Role:
    inverted = cur.try_eat("^")
    return _role_word(cur, cur.ident("a role name"), inverted)


def _role_word(cur: _Cursor, word: str, inverted: bool) -> Role:
    """``word``, just read, as a role name, inverted when it followed ``^``."""
    if not _is_role(word):
        raise cur.error(f"role names start lowercase, got {word!r}", len(word))
    role = cur.renaming.get(word)
    if role is None:
        role = Role(word)
    return role.invert() if inverted else role


def _lead(cur: _Cursor) -> Union[Role, str]:
    """The first term of a ``.tbox`` or ``.abox`` line, its word read once:
    a role after ``^`` or for a lowercase word other than ``top`` and
    ``bot``, which are concepts, and a concept name otherwise."""
    if cur.peek() == "^":
        return _role(cur)
    word = cur.ident("a concept name")
    if _is_role(word):
        return _role_word(cur, word, False)
    return _concept_word(cur, word)


# ---------------------------------------------------------------------------
# .tbox


def _peek_word(cur: _Cursor) -> str:
    cur.skip_ws()
    return cur.text[cur.i : _ident_end(cur.text, cur.i)]


# a flat axiom, every axiom the grammar has: a role or a conjunction of
# concepts, ``<=``, then a restriction ``some|only|max1 r.C`` or a name
_TBOX_LINE = re.compile(
    r"(\^?)[ \t]*(\w+)((?:[ \t]*&[ \t]*\w+)*)[ \t]*<=[ \t]*"
    r"(?:(some|only|max1)(?!\w)[ \t]*(\^?)[ \t]*(\w+)[ \t]*\.[ \t]*(\w+)|(\^?)[ \t]*(\w+))"
)
_RESTRICTIONS = {"some": ExistsInclusion, "only": ValueRestriction, "max1": AtMostOne}


def _flat_axiom(body: str) -> Optional[Axiom]:
    """The axiom of a line that ``_TBOX_LINE`` and its name checks read, or
    None for the cursor to read or refuse."""
    m = _TBOX_LINE.fullmatch(body)
    if m is None:
        return None
    hat, first, rest, kind, sub_hat, role, filler, hat_last, last = m.groups()
    if hat or _is_role(first):
        if rest or kind or not _is_role(first) or not _is_role(last):
            return None
        return RoleInclusion(Role(first, bool(hat)), Role(last, bool(hat_last)))
    lhs = [first, *(w.strip(" \t") for w in rest.split("&")[1:])]
    if not all(map(_is_concept, lhs)):
        return None
    if kind:
        if rest or not _is_role(role) or not _is_concept(filler):
            return None
        return _RESTRICTIONS[kind](first, Role(role, bool(sub_hat)), filler)
    if hat_last or not _is_concept(last):
        return None
    return ConjInclusion(frozenset(lhs), last)


def _cursor_axiom(cur: _Cursor) -> Axiom:
    """Read a line that ``_TBOX_LINE`` or its name checks refuse, or raise
    the error at its place."""
    first = _lead(cur)
    if isinstance(first, Role):
        cur.eat("<=")
        sup = _role(cur)
        cur.expect_done()
        return RoleInclusion(first, sup)
    lhs = [first]
    while cur.try_eat("&"):
        lhs.append(_concept(cur))
    cur.eat("<=")
    kind = _peek_word(cur)
    if kind in _RESTRICTIONS:
        cur.ident("a keyword")
        if len(lhs) != 1:
            raise cur.error("restrictions take a single concept on the left")
        role = _role(cur)
        cur.eat(".")
        if cur.peek() == "(":
            raise cur.error("compound fillers are not allowed; name the conjunction")
        filler = _concept(cur)
        cur.expect_done()
        return _RESTRICTIONS[kind](lhs[0], role, filler)
    rhs = _concept(cur)
    cur.expect_done()
    return ConjInclusion(frozenset(lhs), rhs)


def parse_tbox(text: str, source: str = "<tbox>") -> TBox:
    axioms: List[Axiom] = []
    for line_no, body in _lines(text):
        ax = _flat_axiom(body)
        axioms.append(_cursor_axiom(_Cursor(body, line_no, source)) if ax is None else ax)
    return TBox.of(axioms)


def serialize_tbox(tbox: TBox) -> str:
    return "".join(str(ax) + "\n" for ax in tbox.axioms())


# ---------------------------------------------------------------------------
# .abox


# one atom: an optional ``^``, a name, and one or two individuals
_ABOX_LINE = re.compile(r"(\^?)[ \t]*(\w+)[ \t]*\([ \t]*(\w+)[ \t]*(?:,[ \t]*(\w+)[ \t]*)?\)")


def parse_abox(
    text: str, source: str = "<abox>", renaming: Optional[Mapping[str, Role]] = None
) -> ABox:
    concepts: List[Tuple[str, str]] = []
    roles: List[Tuple[Role, str, str]] = []
    renaming = renaming or {}
    read: Dict[str, Role] = {}  # "r" or "^r" -> the role it reads as
    for line_no, body in _lines(text):
        m = _ABOX_LINE.fullmatch(body)
        if m is not None:
            hat, word, a, b = m.groups()
            if b is None:
                if not hat and word[0].isupper():
                    concepts.append((word, a))
                    continue
            elif _is_role(word):
                role = read.get(hat + word)
                if role is None:
                    role = renaming.get(word) or Role(word)
                    role = read[hat + word] = role.invert() if hat else role
                roles.append((role, a, b))
                continue
        _abox_atom(_Cursor(body, line_no, source, renaming), concepts, roles)
    return ABox.of(concepts=concepts, roles=roles)


def _abox_atom(
    cur: _Cursor, concepts: List[Tuple[str, str]], roles: List[Tuple[Role, str, str]]
) -> None:
    """Read a line that ``_ABOX_LINE`` or its name checks refuse, into
    ``concepts`` or ``roles``, or raise the error at its place."""
    first = _lead(cur)
    if isinstance(first, Role):
        cur.eat("(")
        a = cur.ident("an individual")
        cur.eat(",")
        b = cur.ident("an individual")
        cur.eat(")")
        cur.expect_done()
        roles.append((first, a, b))
    else:
        c = first
        if c in (TOP, BOT):
            raise cur.error(f"{c!r} cannot be asserted", len(c))
        cur.eat("(")
        a = cur.ident("an individual")
        cur.eat(")")
        cur.expect_done()
        concepts.append((c, a))


# ---------------------------------------------------------------------------
# .shacl


def _shape_name(cur: _Cursor) -> str:
    """A ``$name`` wherever a shape is read: a head, a body or a target.
    Names with the reserved prefix belong to the shapes the package makes."""
    cur.eat("$")
    name = cur.ident("a shape name")
    if name.startswith(RESERVED_PREFIX):
        raise cur.error(
            f"shape names starting with {RESERVED_PREFIX!r} are reserved", len(name)
        )
    return name


def _angle_regex(cur: _Cursor) -> Regex:
    cur.eat("<")
    expr = _path_alt(cur)
    cur.eat(">")
    return expr


def _path_alt(cur: _Cursor) -> Regex:
    options = [_path_seq(cur)]
    while cur.try_eat("|"):
        options.append(_path_seq(cur))
    return options[0] if len(options) == 1 else RAlt(tuple(options))


def _path_seq(cur: _Cursor) -> Regex:
    parts = [_path_atom(cur)]
    while cur.try_eat("/"):
        parts.append(_path_atom(cur))
    return parts[0] if len(parts) == 1 else RSeq(tuple(parts))


def _path_atom(cur: _Cursor) -> Regex:
    if cur.try_eat("("):
        expr = _path_alt(cur)
        cur.eat(")")
    else:
        expr = RSym(_role(cur))
    while cur.try_eat("*"):  # star binds to the atom
        expr = RStar(expr)
    return expr


def _comparison(cur: _Cursor, kind: str) -> ShapeBody:
    cur.eat("(")
    left = _angle_regex(cur)
    cur.eat(",")
    right = _angle_regex(cur)
    cur.eat(")")
    ctor = GuardedEq if kind == "eq" else GuardedDisj
    return ctor(None, left, right)


def _body_atom(cur: _Cursor) -> ShapeBody:
    ch = cur.peek()
    if ch == "(":
        cur.eat("(")
        inner = _body_alt(cur)
        cur.eat(")")
        return inner
    if ch == "@":
        cur.eat("@")
        return IndividualRef(cur.ident("an individual"))
    if ch == "$":
        return ShapeRef(_shape_name(cur))
    if ch == "!":
        cur.eat("!")
        nxt = cur.peek()
        if nxt == "$":
            return NegShapeRef(_shape_name(cur))
        if nxt == "(":
            cur.eat("(")
            inner = _body_alt(cur)
            cur.eat(")")
            return Not(inner)
        raise cur.error("'!' must be followed by a shape ref or a parenthesized body")
    word = cur.ident("a concept, 'some', 'eq' or 'disj'")
    if word == "some":
        if cur.peek() == "[":
            cur.eat("[")
            roles = [_role(cur)]
            while cur.try_eat(","):
                roles.append(_role(cur))
            cur.eat("]")
            cur.eat(".")
            return ExistsRoles(frozenset(roles), _body_atom(cur))
        if cur.peek() == "<":
            path = _angle_regex(cur)
            cur.eat(".")
            return ExistsPath(path, _body_atom(cur))
        raise cur.error("'some' takes '[roles]' or '<path>'")
    if word in ("eq", "disj") and cur.peek() == "(":
        return _comparison(cur, word)
    if _is_concept(word):
        return ConceptRef(word)
    raise cur.error(f"cannot read a shape body at {word!r}", len(word))


def _guard_fuse(left: ShapeBody, right: ShapeBody) -> ShapeBody:
    for a, b in ((left, right), (right, left)):
        if isinstance(a, IndividualRef) and isinstance(b, (GuardedEq, GuardedDisj)):
            if b.guard is None:
                return type(b)(a.name, b.left, b.right)
    return And(left, right)


def _body_conj(cur: _Cursor) -> ShapeBody:
    out = _body_atom(cur)
    while cur.try_eat("&"):
        out = _guard_fuse(out, _body_atom(cur))
    return out


def _body_alt(cur: _Cursor) -> ShapeBody:
    out = _body_conj(cur)
    while cur.try_eat("|"):
        out = Or(out, _body_conj(cur))
    return out


_SHACL_HEAD = re.compile(r"\$[ \t]*(\w+)[ \t]*<-")
# one atom of a flat body and the operator after it: ``$s``, ``!$s``, ``@a``
# or a concept, maybe under ``some [roles].``
_FLAT_ATOM = re.compile(
    r"[ \t]*(?:some[ \t]*\[((?:[ \t]*\^?[ \t]*\w+[ \t]*,)*[ \t]*\^?[ \t]*\w+)[ \t]*\][ \t]*\.)?"
    r"[ \t]*(!?)[ \t]*([$@]?)[ \t]*(\w+)[ \t]*([&|]?)"
)
_ROLE_ITEM = re.compile(r"(\^?)[ \t]*(\w+)")


def _flat_constraint(body: str, renaming: Mapping[str, Role]) -> Optional[Constraint]:
    """The constraint of a line whose body is a ``|`` of ``&`` chains of
    ``_FLAT_ATOM`` atoms that pass their name checks, or None for the cursor
    to read or refuse. ``|`` binds looser than ``&``; both group left."""
    m = _SHACL_HEAD.match(body)
    if m is None or m[1].startswith(RESERVED_PREFIX):
        return None
    pos = m.end()
    alts: Optional[ShapeBody] = None
    conj: Optional[ShapeBody] = None
    while True:
        a = _FLAT_ATOM.match(body, pos)
        if a is None:
            return None
        roles, bang, sigil, word, op = a.groups()
        if sigil == "$":
            if word.startswith(RESERVED_PREFIX):
                return None
            atom: ShapeBody = NegShapeRef(word) if bang else ShapeRef(word)
        elif bang:
            return None
        elif sigil:
            atom = IndividualRef(word)
        elif _is_concept(word):
            atom = ConceptRef(word)
        else:
            return None
        if roles is not None:
            rs = []
            for hat, name in _ROLE_ITEM.findall(roles):
                if not _is_role(name):
                    return None
                role = renaming.get(name) or Role(name)
                rs.append(role.invert() if hat else role)
            atom = ExistsRoles(frozenset(rs), atom)
        conj = atom if conj is None else And(conj, atom)
        pos = a.end()
        if op != "&":
            alts = conj if alts is None else Or(alts, conj)
            conj = None
            if not op:
                return Constraint(m[1], alts) if pos == len(body) else None


def _cursor_constraint(cur: _Cursor) -> Constraint:
    """Read a line that ``_flat_constraint`` refuses, or raise the error at
    its place."""
    head = _shape_name(cur)
    cur.eat("<-")
    expr = _body_alt(cur)
    cur.expect_done()
    return Constraint(head, expr)


def parse_constraints(
    text: str, source: str = "<shacl>", renaming: Optional[Mapping[str, Role]] = None
) -> List[Constraint]:
    out: List[Constraint] = []
    names = renaming or {}
    for line_no, body in _lines(text):
        c = _flat_constraint(body, names)
        out.append(_cursor_constraint(_Cursor(body, line_no, source, names)) if c is None else c)
    return out


def serialize_constraints(constraints: Iterable[Constraint]) -> str:
    return "".join(str(c) + "\n" for c in constraints)


# ---------------------------------------------------------------------------
# .targets


_TARGET_LINE = re.compile(r"\$[ \t]*(\w+)[ \t]*\([ \t]*@[ \t]*(\w+)[ \t]*\)")


def parse_targets(text: str, source: str = "<targets>") -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for line_no, body in _lines(text):
        m = _TARGET_LINE.fullmatch(body)
        if m is not None and not m[1].startswith(RESERVED_PREFIX):
            out.append(m.groups())
            continue
        cur = _Cursor(body, line_no, source)
        shape = _shape_name(cur)
        cur.eat("(")
        cur.eat("@")
        ind = cur.ident("an individual")
        cur.eat(")")
        cur.expect_done()
        out.append((shape, ind))
    return out


def serialize_targets(targets: Iterable[Tuple[str, str]]) -> str:
    return "".join(f"${s}(@{a})\n" for s, a in targets)


# ---------------------------------------------------------------------------
# interpretation dumps


def node_label(n: Node, nulls: Dict[Node, str]) -> str:
    """An individual's name, an anonymous node's `_:a.1.2`, or a null's
    number from ``nulls``."""
    return nulls[n] if isinstance(n, Null) else str(n)


def _number_nulls(interp: Interpretation) -> Dict[Node, str]:
    """Stable `_:n1`, `_:n2`, ... labels for the chase nulls, in node order."""
    nulls = sorted((n for n in interp.nodes if isinstance(n, Null)), key=node_key)
    return {n: f"_:n{k}" for k, n in enumerate(nulls, start=1)}


def serialize_interpretation(interp: Interpretation) -> str:
    nulls = _number_nulls(interp)
    atoms: List[str] = []
    for c, n in interp.concept_atoms:
        atoms.append(f"{c}({node_label(n, nulls)})")
    role_atoms = interp.role_atoms
    for r, x, y in role_atoms:
        atoms.append(f"{r}({node_label(x, nulls)},{node_label(y, nulls)})")
    linked = {n for _, x, y in role_atoms for n in (x, y)}
    for n in interp.nodes:
        if n not in linked and not interp.concepts_of(n):
            atoms.append(f"top({node_label(n, nulls)})")
    return "".join(s + "\n" for s in sorted(atoms))


# ---------------------------------------------------------------------------
# JSON report

_JSON_WORDS = {True: "true", False: "false", None: "null"}


def report_to_json(
    consistent: bool,
    mode: str,
    targets: Sequence[Tuple[str, str, Optional[bool]]],  # None: unknown
    stats: Dict[str, int],
) -> str:
    """The report as JSON text, written directly: it equals, byte for byte,
    ``json.dumps(doc, indent=2) + "\n"`` of the document with keys
    ``consistent``, ``mode``, ``targets`` (one ``shape``/``node``/``valid``
    object each) and ``stats`` (sorted by key), strings quoted by the same
    ASCII escaper ``json.dumps`` uses."""
    q = encode_basestring_ascii
    rows = [
        '    {\n      "shape": %s,\n      "node": %s,\n      "valid": %s\n    }'
        % (q(s), q(n), _JSON_WORDS[v])
        for s, n, v in targets
    ]
    pairs = ["    %s: %d" % (q(k), stats[k]) for k in sorted(stats)]
    return '{\n  "consistent": %s,\n  "mode": %s,\n  "targets": %s,\n  "stats": %s\n}\n' % (
        _JSON_WORDS[consistent],
        q(mode),
        "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]",
        "{\n" + ",\n".join(pairs) + "\n  }" if pairs else "{}",
    )
