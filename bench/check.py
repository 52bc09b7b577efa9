"""A short model checker for the `corpus` workload.

It reads a TBox and an ABox in the CLI's text formats and the atoms that
``ontoshacl build-model --emit`` prints, and reports the first axiom or
assertion the printed interpretation violates. It shares no code with
the package, so a fault in the package's own model check cannot hide a
fault in its model builder.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

TOP = "top"
_ATOM = re.compile(r"^(\^?)([A-Za-z0-9_]+)\(([^,()]+)(?:,([^,()]+))?\)$")


def _role(text: str) -> Tuple[str, bool]:
    return (text[1:], True) if text.startswith("^") else (text, False)


class Interp:
    def __init__(self, text: str):
        self.nodes: Set[str] = set()
        self.concepts: Dict[str, Set[str]] = {}
        self.edges: Set[Tuple[str, str, str]] = set()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            m = _ATOM.match(line)
            if m is None:
                raise ValueError(f"cannot read model atom {line!r}")
            _, name, x, y = m.groups()
            self.nodes.add(x)
            if y is None:
                if name != TOP:
                    self.concepts.setdefault(x, set()).add(name)
            else:
                self.nodes.add(y)
                self.edges.add((name, x, y))

    def has(self, concept: str, x: str) -> bool:
        return concept == TOP or concept in self.concepts.get(x, ())

    def succ(self, x: str, role: Tuple[str, bool]) -> List[str]:
        name, inv = role
        if inv:
            return [a for n, a, b in self.edges if n == name and b == x]
        return [b for n, a, b in self.edges if n == name and a == x]


def violation(tbox: str, abox: str, model: str) -> Optional[str]:
    """None when the model satisfies every axiom and assertion."""
    m = Interp(model)
    for line in abox.splitlines():
        line = line.strip()
        if not line:
            continue
        _, name, x, y = _ATOM.match(line).groups()
        if y is None and not m.has(name, x):
            return f"assertion {line} missing"
        if y is not None and (name, x, y) not in m.edges:
            return f"assertion {line} missing"
    for line in tbox.splitlines():
        line = line.strip()
        if not line:
            continue
        lhs, rhs = (s.strip() for s in line.split("<="))
        if lhs[0].islower() or lhs[0] == "^":
            sub, sup = _role(lhs), _role(rhs)
            for x in m.nodes:
                for y in m.succ(x, sub):
                    if y not in m.succ(x, sup):
                        return f"{line} fails on ({x},{y})"
            continue
        prem = [c.strip() for c in lhs.split("&")]
        holders = [x for x in m.nodes if all(m.has(c, x) for c in prem)]
        words = rhs.split()
        if len(words) == 1:
            bad = [x for x in holders if not m.has(rhs, x)]
        else:
            kind, restr = words
            role_text, filler = restr.split(".")
            role = _role(role_text)
            fillers = {x: [y for y in m.succ(x, role) if m.has(filler, y)] for x in holders}
            if kind == "some":
                bad = [x for x in holders if not fillers[x]]
            elif kind == "only":
                bad = [x for x in holders if len(fillers[x]) != len(m.succ(x, role))]
            else:
                bad = [x for x in holders if len(set(fillers[x])) > 1]
        if bad:
            return f"{line} fails at {sorted(bad)[0]}"
    return None
