"""The `corpus` workload: small random knowledge bases and shapes.

``gen_case`` is a copy of the selftest generator (``ontoshacl.harness``)
as it stood when this benchmark was written. It draws the same random
numbers in the same order, so ``gen_case(case_rng(1, 72))`` is the same
case as selftest seed 1, case 72. It is kept here so that changes to the
selftest generator do not shift the workload. It returns file texts in
the CLI's formats and imports nothing from the package.
"""
from __future__ import annotations

import random
import string
from typing import Dict, List, Tuple

CONCEPTS = ("C0", "C1", "C2", "C3", "C4")
ROLES = ("p", "q", "r")
INDIVIDUALS = ("a", "b", "c", "d", "e", "f")
TOP = "top"
MAX_SHAPES = 6

# role: (name, inverted)
Role = Tuple[str, bool]


class Case:
    """One knowledge base with its shapes and targets, as file texts."""

    def __init__(self, tbox: List[str], abox: List[str], shapes: List[str],
                 targets: List[Tuple[str, str]], has_atmost: bool):
        self.tbox = tbox
        self.abox = abox
        self.shapes = shapes
        self.targets = targets
        self.has_atmost = has_atmost

    def files(self) -> Dict[str, str]:
        return {
            "tbox": "".join(x + "\n" for x in self.tbox),
            "abox": "".join(x + "\n" for x in self.abox),
            "shacl": "".join(x + "\n" for x in self.shapes),
            "targets": "".join(f"${s}(@{i})\n" for s, i in self.targets),
        }


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _rs(role: Role) -> str:
    return ("^" if role[1] else "") + role[0]


def _role(rng: random.Random) -> Role:
    return (rng.choice(ROLES), rng.random() < 0.25)


def gen_tbox(rng: random.Random) -> Tuple[List[str], bool]:
    axioms: List[str] = []
    atmost = False
    kinds = ["conj", "conj", "exists", "exists", "forall", "role", "atmost"]
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(kinds)
        if kind == "conj":
            rhs_i = rng.randint(0, len(CONCEPTS) - 2)
            pool = CONCEPTS[rhs_i + 1 :]
            lhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            axioms.append(f"{' & '.join(sorted(lhs))} <= {CONCEPTS[rhs_i]}")
        elif kind == "exists":
            lhs_i = rng.randint(1, len(CONCEPTS) - 1)
            filler = rng.choice(CONCEPTS[:lhs_i] + (TOP,))
            axioms.append(f"{CONCEPTS[lhs_i]} <= some {_rs(_role(rng))}.{filler}")
        elif kind == "forall":
            lhs_i = rng.randint(1, len(CONCEPTS) - 1)
            filler = rng.choice(CONCEPTS[:lhs_i])
            axioms.append(f"{CONCEPTS[lhs_i]} <= only {_rs(_role(rng))}.{filler}")
        elif kind == "atmost":
            lhs = rng.choice(CONCEPTS)
            filler = rng.choice(CONCEPTS + (TOP,))
            axioms.append(f"{lhs} <= max1 {_rs(_role(rng))}.{filler}")
            atmost = True
        else:
            i, j = sorted(rng.sample(range(len(ROLES)), 2))
            sub = (ROLES[i], rng.random() < 0.25)
            sup = (ROLES[j], rng.random() < 0.25)
            axioms.append(f"{_rs(sub)} <= {_rs(sup)}")
    return axioms, atmost


def gen_abox(rng: random.Random) -> Tuple[List[str], Tuple[str, ...]]:
    inds = INDIVIDUALS[: rng.randint(1, len(INDIVIDUALS))]
    concepts = {
        (rng.choice(CONCEPTS), rng.choice(inds)) for _ in range(rng.randint(1, 5))
    }
    roles = {
        (rng.choice(ROLES), rng.choice(inds), rng.choice(inds))
        for _ in range(rng.randint(0, 5))
    }
    present = {a for _, a in concepts} | {x for _, a, b in roles for x in (a, b)}
    lines = [f"{c}({a})" for c, a in sorted(concepts)]
    lines += [f"{r}({a},{b})" for r, a, b in sorted(roles)]
    return lines, tuple(sorted(present))


def gen_constraints(rng: random.Random, inds: Tuple[str, ...]) -> List[Tuple[str, str]]:
    """Normal-form bodies only; negative references go to strictly lower
    strata so the result is stratified by construction."""
    names = [f"s{i}" for i in range(rng.randint(1, MAX_SHAPES))]
    stratum = {n: rng.randint(0, 1) for n in names}
    inds = inds or ("a",)

    def body(head: str) -> str:
        low = [n for n in names if stratum[n] < stratum[head]]
        level = [n for n in names if stratum[n] <= stratum[head]]
        while True:
            pick = rng.randint(0, 5)
            if pick == 0:
                return rng.choice(CONCEPTS + (TOP,))
            if pick == 1:
                return "@" + rng.choice(inds)
            if pick == 2:
                return "$" + rng.choice(level)
            if pick == 3 and low:
                return "!$" + rng.choice(low)
            if pick == 4:
                return f"${rng.choice(level)} & ${rng.choice(level)}"
            if pick == 5:
                roles = {_role(rng) for _ in range(rng.randint(1, 2))}
                rs = ",".join(_rs(r) for r in sorted(roles))
                if low and rng.random() < 0.4:
                    return f"some [{rs}].!${rng.choice(low)}"
                return f"some [{rs}].${rng.choice(level)}"

    cons: List[Tuple[str, str]] = []
    for head in names:
        for _ in range(rng.randint(1, 2)):
            cons.append((head, body(head)))
    return cons[:12]


def gen_case(rng: random.Random) -> Case:
    tbox, atmost = gen_tbox(rng)
    abox, inds = gen_abox(rng)
    cons = gen_constraints(rng, inds)
    shapes = sorted({h for h, _ in cons})
    targets = [(s, i) for s in shapes for i in inds]
    return Case(tbox, abox, [f"${h} <- {b}" for h, b in cons], targets, atmost)
