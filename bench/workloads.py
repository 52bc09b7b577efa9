"""The three workloads: their inputs, written as files, and their checks.

Each workload is a list of inputs; each input runs under several modes,
and one (input, mode) pair is a unit of timing. ``--seed`` picks the
inputs: for `abox` it draws the data, and for `corpus` and `paths` it
draws fresh names for every concept, role, individual and shape. Renaming
keeps every verdict and keeps the work of each input the same, so runs
with different seeds stay comparable even though one slow selftest case
costs as much as a hundred typical ones. The inputs of a known fault are
not renamed: they are the same files on every seed.
"""
from __future__ import annotations

import os
import random
import re
import string
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import abox
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = ("direct", "rewrite", "pure-alchi", "pure-shaclb")

# selftest seed 0, cases 0-19, are the random sample; selftest seed 1,
# cases 72 and 76, are the generated cases that trip defect 1
CORPUS_CASES = [(0, i) for i in range(20)] + [(1, 72), (1, 76)]
# the shrunk repro of defect 1, with its hand-derived verdict
DEFECT1 = {
    "tbox": "p <= q\n",
    "abox": "C2(b)\np(a,b)\n",
    "shacl": "$s1 <- C2\n$s3 <- some [q].$s1\n",
    "targets": "$s3(@a)  # VALID\n",
}
# people in the ABox of the `abox` workload, with a department per four
ABOX_PEOPLE = 80

DEFECT1_NOTE = "defect 1: pure-alchi drops inferred sub-role edges"

Verdicts = Dict[Tuple[str, str], bool]


@dataclass
class Input:
    name: str
    files: Dict[str, str]  # kind -> path relative to the checkout
    modes: Tuple[str, ...]
    # hand-derived or generator verdicts; None means "agree with direct"
    expected: Optional[Verdicts]
    known_fault: Dict[str, str] = field(default_factory=dict)  # mode -> note
    check_model: bool = False


_IDENT = re.compile(r"(\$?)([A-Za-z][A-Za-z0-9_]*)")
KEYWORDS = {"some", "only", "max1", "top", "bot", "eq", "disj"}


class Renamer:
    """Consistent fresh names for the identifiers of one input."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names: Dict[str, str] = {}
        self.shapes: Dict[str, str] = {}
        self.used: set = set()

    def _fresh(self, first: str) -> str:
        while True:
            tail = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            name = first + tail + str(self.rng.randint(0, 9))
            if name not in self.used:
                self.used.add(name)
                return name

    def name(self, ident: str) -> str:
        if ident in KEYWORDS:
            return ident
        if ident not in self.names:
            if ident[0].isupper():
                first = self.rng.choice(string.ascii_uppercase)
            else:
                first = self.rng.choice(string.ascii_lowercase)
            self.names[ident] = self._fresh(first)
        return self.names[ident]

    def shape(self, ident: str) -> str:
        if ident not in self.shapes:
            self.shapes[ident] = self._fresh("s")
        return self.shapes[ident]

    def text(self, text: str) -> str:
        out = []
        for line in text.splitlines(keepends=True):
            body, hash_, comment = line.partition("#")
            body = _IDENT.sub(
                lambda m: "$" + self.shape(m.group(2)) if m.group(1) else self.name(m.group(2)),
                body,
            )
            out.append(body + hash_ + comment)
        return "".join(out)


def read_targets(text: str) -> Tuple[List[Tuple[str, str]], Verdicts]:
    """Targets and the verdicts written beside them as `# VALID` comments."""
    targets: List[Tuple[str, str]] = []
    expected: Verdicts = {}
    for line in text.splitlines():
        m = re.match(r"\s*\$(\w+)\(@(\w+)\)\s*(?:#\s*(VALID|VIOLATION))?", line)
        if m is None:
            continue
        targets.append((m.group(1), m.group(2)))
        if m.group(3):
            expected[(m.group(1), m.group(2))] = m.group(3) == "VALID"
    return targets, expected


def _write(root: str, workdir: str, name: str, texts: Dict[str, str]) -> Dict[str, str]:
    paths = {}
    for kind, text in texts.items():
        rel = os.path.join(workdir, f"{name}.{kind}")
        with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[kind] = rel
    return paths


def _renamed(rng: Optional[random.Random],
             texts: Dict[str, str]) -> Tuple[Dict[str, str], Verdicts]:
    """The texts with fresh names drawn from rng (unchanged without one),
    and the verdicts of their targets' comments under the same names."""
    if rng is None:
        return texts, read_targets(texts["targets"])[1]
    ren = Renamer(rng)
    out = {kind: ren.text(text) for kind, text in texts.items()}
    targets, expected = read_targets(texts["targets"])
    expected = {(ren.shape(s), ren.name(i)): v for (s, i), v in expected.items()}
    return out, expected


def build_corpus(root: str, workdir: str, seed: int) -> List[Input]:
    rng = random.Random(seed)
    out: List[Input] = []
    for s, i in CORPUS_CASES:
        case = corpus.gen_case(corpus.case_rng(s, i))
        fault = {"pure-alchi": DEFECT1_NOTE} if s == 1 else {}
        texts, _ = _renamed(None if fault else rng, case.files())
        modes = tuple(m for m in MODES if not (m == "pure-alchi" and case.has_atmost))
        out.append(Input(f"case{s}_{i}", _write(root, workdir, f"case{s}_{i}", texts),
                         modes, None, fault, check_model=True))
    texts, expected = _renamed(None, DEFECT1)
    out.append(Input("defect1", _write(root, workdir, "defect1", texts), MODES,
                     expected, {"pure-alchi": DEFECT1_NOTE}, check_model=True))
    return out


def build_abox(root: str, workdir: str, seed: int) -> List[Input]:
    texts, expected = abox.generate(seed, ABOX_PEOPLE)
    return [Input("abox", _write(root, workdir, "abox", texts), MODES, expected)]


PATHS_DIR = os.path.join(HERE, "inputs", "paths")
# `$s <- some <s/s*>.C` at c needs the raw r-edge seen as an s-edge
PATHS_FAULTS = {"star_alt": {"pure-alchi": DEFECT1_NOTE}}


def build_paths(root: str, workdir: str, seed: int) -> List[Input]:
    rng = random.Random(seed)
    with open(os.path.join(PATHS_DIR, "paths.tbox"), encoding="utf-8") as fh:
        tbox = fh.read()
    with open(os.path.join(PATHS_DIR, "paths.abox"), encoding="utf-8") as fh:
        abox_text = fh.read()
    out: List[Input] = []
    for fname in sorted(os.listdir(PATHS_DIR)):
        if not fname.endswith(".shacl"):
            continue
        name = fname[: -len(".shacl")]
        with open(os.path.join(PATHS_DIR, fname), encoding="utf-8") as fh:
            shacl = fh.read()
        with open(os.path.join(PATHS_DIR, name + ".targets"), encoding="utf-8") as fh:
            targets = fh.read()
        fault = PATHS_FAULTS.get(name, {})
        texts, expected = _renamed(
            None if fault else rng,
            {"tbox": tbox, "abox": abox_text, "shacl": shacl, "targets": targets},
        )
        out.append(Input(name, _write(root, workdir, name, texts), MODES, expected, fault))
    return out


BUILDERS = {"corpus": build_corpus, "abox": build_abox, "paths": build_paths}
