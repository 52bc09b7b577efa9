"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``ontoshacl`` module that refers to it, so calls from inside the package
(``build_can`` calling ``complete_abox``, ``validate`` calling
``compute_stratification``) also become child spans. Spans stay in memory
until the run ends. ``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Sizer = Callable[[Any, tuple, dict], Dict[str, int]]


def _none(res, args, kwargs) -> Dict[str, int]:
    return {}


def _rewrite_sizes(res, args, kwargs) -> Dict[str, int]:
    stats = kwargs.get("stats") or {}
    strat = args[1]
    return {
        "quadruples": stats.get("quadruples", 0),
        "emitted": len(res),
        "inputs": sum(len(g) for g in strat.strata),
    }


# (span name, module, attribute, sizer)
TRACED: List[Tuple[str, str, str, Sizer]] = [
    ("formats.parse", "ontoshacl.formats", "parse_tbox", _none),
    ("formats.parse", "ontoshacl.formats", "parse_abox", _none),
    ("formats.parse", "ontoshacl.formats", "parse_constraints", _none),
    ("formats.parse", "ontoshacl.formats", "parse_targets", _none),
    ("tbox.collapse_role_cycles", "ontoshacl.tbox", "collapse_role_cycles", _none),
    ("tbox.saturate", "ontoshacl.tbox", "SaturatedTBox",
     lambda r, a, k: {"derived_axioms": len(r.conj) + len(r.existentials)}),
    ("model.complete_abox", "ontoshacl.model", "complete_abox",
     lambda r, a, k: {"completed_atoms": len(r.concept_atoms) + len(r.role_atoms)}),
    ("model.build_can", "ontoshacl.model", "build_can",
     lambda r, a, k: {"model_nodes": len(r.nodes)}),
    ("shapes.normalize", "ontoshacl.shapes", "normalize",
     lambda r, a, k: {"normal_constraints": len(r[0].constraints)}),
    ("shapes.compute_stratification", "ontoshacl.shapes", "compute_stratification", _none),
    ("paths.regex_to_nfa", "ontoshacl.paths", "regex_to_nfa", _none),
    ("rewrite.rewrite", "ontoshacl.rewrite", "rewrite", _rewrite_sizes),
    ("rewrite.pure_rewrite_alchi", "ontoshacl.rewrite", "pure_rewrite_alchi",
     lambda r, a, k: {"alchi_constraints": len(r)}),
    ("rewrite.pure_rewrite_shaclb", "ontoshacl.rewrite", "pure_rewrite_shaclb",
     lambda r, a, k: {"shaclb_items": len(r)}),
    ("evaluate.validate", "ontoshacl.evaluate", "validate", _none),
    ("evaluate.perfect_assignment_b", "ontoshacl.evaluate", "perfect_assignment_b", _none),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "input", "mode", "sizes")

    def __init__(self, name: str, start: float, parent: Optional[int], input: str, mode: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.input = input
        self.mode = mode
        self.sizes: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "input": self.input, "mode": self.mode,
                "sizes": self.sizes}


class Tracer:
    """Spans of the calls made since ``spans`` was last emptied; parent
    links index into that list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.input = ""
        self.mode = ""

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.input, self.mode)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span of the given name."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, sizer: Sizer) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.sizes = sizer(res, args, kwargs)
            return res

        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "ontoshacl" or n.startswith("ontoshacl."))]
        for name, home, attr, sizer in TRACED:
            orig = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, orig, sizer)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
