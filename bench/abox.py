"""The `abox` workload: one fixed TBox and shapes over seeded ABoxes.

The rewriting depends only on the TBox and the shapes, so it is small and
the same on every seed; the data size drives the work. The generator
decides each target's verdict from how it built the individual:

- ``Emp`` and ``Mgr`` people are staff (``Mgr <= Emp``);
- a department is a ``Unit`` when some staff member has a ``worksFor``
  or ``manages`` edge to it: both roles are below ``memberOf``, and
  ``Emp <= only memberOf.Unit``;
- a person is ``$ok`` when staff, or when it has a ``worksFor`` edge to a
  ``Unit``;
- a department is ``$orphan`` when no staff member has a ``worksFor``
  edge to it.

Every seed draws the same number of people of each kind and the same
number of edges of each kind; only who links to which department changes.
"""
from __future__ import annotations

import random
from typing import Dict, List, Tuple

TBOX = """\
Mgr <= Emp
Emp <= some worksFor.Dept
Mgr <= some manages.Dept
Emp <= only memberOf.Unit
worksFor <= memberOf
manages <= memberOf
"""

SHAPES = """\
$ok <- Emp | some [worksFor].Unit
$staffed <- some [^worksFor].Emp
$orphan <- Dept & !$staffed
"""

# people per department, and the make-up of every 20 people
PEOPLE_PER_DEPT = 4
MIX = (("emp", 5), ("mgr", 2), ("contractor", 7), ("lead", 2), ("idle", 4))
# of every 10 departments: staffed (some Emp works there), managed only by
# a Mgr, and the rest without staff
DEPT_MIX = (("staffed", 4), ("managed", 3), ("bare", 3))


def _spread(rng: random.Random, people: List[str], depts: List[str]) -> List[str]:
    """A department for each person: every department gets one before any
    gets a second, so the number of departments reached is fixed."""
    out: List[str] = []
    while len(out) < len(people):
        out += rng.sample(depts, min(len(depts), len(people) - len(out)))
    return out


def generate(seed: int, people: int) -> Tuple[Dict[str, str], Dict[Tuple[str, str], bool]]:
    """File texts and the expected verdict of every target."""
    if people % 20:
        raise ValueError("people must be a multiple of 20")
    rng = random.Random(seed)
    depts = [f"d{k}" for k in range(people // PEOPLE_PER_DEPT)]
    rng.shuffle(depts)
    groups: Dict[str, List[str]] = {}
    rest = list(depts)
    for kind, share in DEPT_MIX[:-1]:
        k = share * len(depts) // 10
        groups[kind], rest = rest[:k], rest[k:]
    groups[DEPT_MIX[-1][0]] = rest
    kinds: List[str] = []
    for kind, share in MIX:
        kinds += [kind] * (share * people // 20)
    rng.shuffle(kinds)
    persons = [(f"x{k}", kind) for k, kind in enumerate(kinds)]

    def of_kind(kind: str) -> List[str]:
        return [x for x, k in persons if k == kind]

    concepts: List[Tuple[str, str]] = [("Dept", d) for d in depts]
    concepts += [("Person", x) for x, _ in persons]
    concepts += [("Emp", x) for x in of_kind("emp")]
    concepts += [("Mgr", x) for x in of_kind("mgr")]
    edges: List[Tuple[str, str, str]] = []
    for x, d in zip(of_kind("emp"), _spread(rng, of_kind("emp"), groups["staffed"])):
        edges.append(("worksFor", x, d))
    for x, d in zip(of_kind("mgr"), _spread(rng, of_kind("mgr"), groups["managed"])):
        edges.append(("manages", x, d))
    for x, d in zip(of_kind("lead"), _spread(rng, of_kind("lead"), depts)):
        edges.append(("manages", x, d))
    contractors = of_kind("contractor")
    firsts = _spread(rng, contractors, depts)
    for x, d in zip(contractors, firsts):
        edges.append(("worksFor", x, d))
        edges.append(("worksFor", x, rng.choice([e for e in depts if e != d])))

    staff = {x for x, kind in persons if kind in ("emp", "mgr")}
    units = {d for _, x, d in edges if x in staff}
    staffed = {d for r, x, d in edges if x in staff and r == "worksFor"}
    expected: Dict[Tuple[str, str], bool] = {}
    for x, kind in persons:
        expected[("ok", x)] = x in staff or any(
            r == "worksFor" and y == x and d in units for r, y, d in edges
        )
    for d in depts:
        expected[("orphan", d)] = d not in staffed

    rng.shuffle(concepts)
    rng.shuffle(edges)
    files = {
        "tbox": TBOX,
        "abox": "".join(f"{c}({a})\n" for c, a in concepts)
        + "".join(f"{r}({a},{b})\n" for r, a, b in edges),
        "shacl": SHAPES,
        "targets": "".join(f"${s}(@{i})\n" for s, i in expected),
    }
    return files, expected
