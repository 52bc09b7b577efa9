"""Command-line frontend.

Subcommands: ``validate`` runs one of the five validation routes of
``ROUTES`` over a knowledge base and a shapes graph, ``build-model``
materializes a finite approximation of the canonical model, ``chase``
dumps the rounds of the core chase, and ``selftest`` cross-checks the
routes against each other on random inputs.

Exit codes: 0 all targets valid, 1 violations. Every failure but a
usage error, which argparse reports after its usage line, has one entry
in ``FAILURES``, read for every subcommand: 2 inconsistent KB, refused
before any other failure and with one reason by every route (``direct``,
``rewrite``, ``chase``, ``build-model`` and the ``chase`` subcommand find
it in ``model.complete_abox``; ``pure-alchi`` and ``pure-shaclb`` in the
tables of their rewriting over the raw data, by
``rewrite.check_pure_consistency``, and never complete the data); 3 input
error (a usage error: an unknown subcommand, option or mode, a missing
required option, a non-integer number; an unreadable file, a parse
error, an unsupported TBox pattern, an unguarded comparison, a negative
``--depth``); 4 constraints not stratified; 5 a budget hit where a
verdict would need the missing part: negation over a truncated model, a
model prefix that adds over ``model.MAX_MODEL_NODES`` anonymous nodes, a
rewriting over ``rewrite.MAX_QUADRUPLES`` quadruples, the chase's round
budget, or the chase's size guard. ``validate`` also exits 5 when a
target fails on a model truncated at ``--depth`` (reported UNKNOWN,
``"valid": null`` in JSON), and ``chase`` when it runs out of rounds,
after printing them.

A target whose shape no constraint defines, or whose individual is not
in the data, is a VIOLATION like any other failed target; ``validate``
also warns about it on stderr.

``main(argv)`` reads a plain ``validate`` line itself, by
``plain_validate``: each of ``--tbox --abox --shapes --targets --mode
--depth --format`` at most once and followed by a value that does not
start with ``-``, ``--show-rewrite`` at most once, the three files given,
a known mode and format, and a depth of ASCII digits. It builds the
namespace that ``parse_args`` would. Every other line goes to the argparse
parser of ``build_parser``: help, abbreviations, ``--opt=value``, repeated
options, every usage error and the other subcommands. So argparse words
every usage error, and a plain call never imports it.

``main`` may be called many times in one process. Only the parser is
shared between calls: each call reads its files and computes its KB,
rewriting and verdicts again.
"""
from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from .chase import NotTerminated, SizeGuardExceeded, run_core_chase
from .core import ABox, Interpretation, Role, TBox
from .evaluate import TruncationRefused, Verdicts, perfect_assignment_b, validate
from .formats import (
    ParseError,
    parse_abox,
    parse_constraints,
    parse_targets,
    parse_tbox,
    report_to_json,
    serialize_interpretation,
)
from .model import InconsistentKB, ModelTooLarge, build_can, complete_abox
from .rewrite import (
    BOT_SHAPE, RewriteTooLarge, check_pure_consistency, pure_rewrite_alchi, pure_rewrite_shaclb,
    rewrite,
)
from .shapes import (
    Constraint,
    Item,
    NotStratified,
    ShapesGraph,
    UnguardedComparison,
    compute_stratification,
    normalize,
)
from .tbox import SaturatedTBox, UnsupportedPattern, collapse_role_cycles
from .values import value

if TYPE_CHECKING:  # argparse is imported when ``build_parser`` first runs
    import argparse

EXIT_VALID = 0
EXIT_VIOLATIONS = 1
EXIT_INCONSISTENT = 2
EXIT_INPUT = 3
EXIT_NOT_STRATIFIED = 4
EXIT_DEPTH = 5


class InputError(Exception):
    pass


# exception class -> (exit code, leading word, advice after the message);
# ``main`` reports a failure by the entry of its nearest listed class
FAILURES: Dict[type, Tuple[int, str, str]] = {
    InconsistentKB: (EXIT_INCONSISTENT, "inconsistent", ""),
    InputError: (EXIT_INPUT, "error", ""),
    ParseError: (EXIT_INPUT, "error", ""),
    UnsupportedPattern: (EXIT_INPUT, "error", ""),
    UnguardedComparison: (EXIT_INPUT, "error", ""),
    NotStratified: (EXIT_NOT_STRATIFIED, "error", ""),
    TruncationRefused: (EXIT_DEPTH, "error", " (raise --depth)"),
    NotTerminated: (EXIT_DEPTH, "error", " (raise --depth)"),
    ModelTooLarge: (EXIT_DEPTH, "error", " (lower --depth)"),
    RewriteTooLarge: (EXIT_DEPTH, "error", " (--mode direct needs no rewriting)"),
    SizeGuardExceeded: (EXIT_DEPTH, "error", " (the chase is a cross-check for small inputs)"),
}


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    """The file's text, its bytes decoded as UTF-8 once. Text mode would
    turn CR LF and a lone CR into LF; ``formats._lines`` splits at both."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def load_kb(args: argparse.Namespace) -> Tuple[TBox, ABox, Dict[str, Role]]:
    """Parse the TBox and collapse its role-inclusion cycles, then parse the
    ABox with the parser reading role names through the renaming, which is
    returned for ``load_shapes``. A TBox error, or a cycle that cannot be
    collapsed, is reported before the ABox is read."""
    tbox, renaming = collapse_role_cycles(parse_tbox(_read(args.tbox), source=args.tbox))
    abox = parse_abox(_read(args.abox), source=args.abox, renaming=renaming)
    return tbox, abox, renaming


def load_shapes(args: argparse.Namespace, renaming: Dict[str, Role]) -> ShapesGraph:
    cons = parse_constraints(_read(args.shapes), source=args.shapes, renaming=renaming)
    targets = parse_targets(_read(args.targets), source=args.targets) if args.targets else []
    return ShapesGraph.of(cons, targets)


# ---------------------------------------------------------------------------
# validation routes

STATS = ("quadruples", "model_nodes", "rounds")


@value
class PreparedKB:
    """A knowledge base and a shapes graph, ready for every route.

    Only the TBox is saturated up front. The completed data and the
    rewriting C_T are computed on first read and shared by the routes that
    read them; ``completed`` raises InconsistentKB, with the reason, on an
    inconsistent KB. ``stats`` collects the sizes the routes report.
    """

    sat: SaturatedTBox
    abox: ABox
    sg: ShapesGraph
    depth: int  # tree depth (direct) or round budget (chase)
    stats: Dict[str, int]
    _c_t: Optional[Tuple[Constraint, ...]] = None
    _completed: Optional[ABox] = None

    @property
    def completed(self) -> ABox:
        if self._completed is None:
            self._completed = complete_abox(self.sat, self.abox)
        return self._completed

    @property
    def c_t(self) -> Tuple[Constraint, ...]:
        if self._c_t is None:
            nsg, _ = normalize(self.sg)
            strat = compute_stratification(nsg.constraints)
            self._c_t = rewrite(self.sat, strat, stats=self.stats)
        return self._c_t


def prepare(tbox: TBox, abox: ABox, sg: ShapesGraph, depth: int) -> PreparedKB:
    """Saturate the TBox; the data is completed when a route reads it."""
    return PreparedKB(SaturatedTBox(tbox), abox, sg, depth, dict.fromkeys(STATS, 0))


@value(frozen=True)
class Outcome:
    interp: Interpretation  # what the verdicts were read from
    verdicts: Verdicts
    items: Tuple[Item, ...] = ()  # the constraints --show-rewrite prints


def _direct(kb: PreparedKB) -> Outcome:
    interp = build_can(kb.sat, kb.completed, kb.depth)
    return Outcome(interp, validate(interp, kb.sg.constraints, kb.sg.targets))


def _chase(kb: PreparedKB) -> Outcome:
    kb.completed  # the chase would not stop on an inconsistent KB
    trace: List[Tuple[Interpretation, Interpretation]] = []
    interp = run_core_chase(kb.sat, kb.abox, max_rounds=kb.depth, trace=trace)
    kb.stats["rounds"] = len(trace)
    return Outcome(interp, validate(interp, kb.sg.constraints, kb.sg.targets))


def _rewrite(kb: PreparedKB) -> Outcome:
    data, cons = kb.completed, kb.c_t  # an inconsistent KB fails first
    return Outcome(data, validate(data, cons, kb.sg.targets), cons)


def _pure_c_t(kb: PreparedKB) -> Tuple[Constraint, ...]:
    """C_T for a pure route, which never completes the data. An inconsistent
    KB is still refused before any failure to compute C_T, as the other
    routes refuse it first."""
    try:
        return kb.c_t
    except tuple(FAILURES):
        kb.completed
        raise


def _pure_alchi(kb: PreparedKB) -> Outcome:
    cons = pure_rewrite_alchi(kb.sat, _pure_c_t(kb))
    # bot at each individual is one more target of the one evaluation
    clashes = [(BOT_SHAPE, a) for a in kb.abox.individuals()]
    verdicts = validate(kb.abox, cons, [*kb.sg.targets, *clashes])
    bot = {a for s, a in clashes if verdicts.pop((s, a))}
    check_pure_consistency(kb.sat, kb.abox, ({BOT_SHAPE: bot}, {}))
    return Outcome(kb.abox, verdicts, cons)


def _pure_shaclb(kb: PreparedKB) -> Outcome:
    items = pure_rewrite_shaclb(kb.sat, _pure_c_t(kb))
    tables = perfect_assignment_b(kb.abox, items)
    check_pure_consistency(kb.sat, kb.abox, tables)
    verdicts = {(s, i): i in tables[0].get(s, ()) for s, i in kb.sg.targets}
    return Outcome(kb.abox, verdicts, items)


@value(frozen=True)
class Route:
    run: Callable[[PreparedKB], Outcome]
    counting: bool = True  # False: refuses TBoxes with max1 axioms
    small_only: bool = False  # a cross-check that may run out of rounds or nodes


ROUTES: Dict[str, Route] = {
    "direct": Route(_direct),
    "rewrite": Route(_rewrite),
    "pure-alchi": Route(_pure_alchi, counting=False),
    "pure-shaclb": Route(_pure_shaclb),
    "chase": Route(_chase, small_only=True),
}
MODES = tuple(ROUTES)
FORMATS = ("text", "json")


def _emit_report(
    args: argparse.Namespace,
    consistent: bool,
    triples: Sequence[Tuple[str, str, Optional[bool]]],
    stats: Dict[str, int],
) -> None:
    if args.fmt == "json":
        sys.stdout.write(report_to_json(consistent, args.mode, triples, stats))
        return
    lines = [f"consistent: {'true' if consistent else 'false'}", f"mode: {args.mode}"]
    word = {True: "VALID", False: "VIOLATION", None: "UNKNOWN"}
    for shape, ind, ok in triples:
        lines.append(f"${shape}(@{ind}): {word[ok]}")
    pairs = " ".join(f"{k}={stats[k]}" for k in sorted(stats))
    lines.append(f"stats: {pairs}")
    sys.stdout.write("\n".join(lines) + "\n")


def run(args: argparse.Namespace) -> int:
    """The validate pipeline; returns the process exit code."""
    route = ROUTES[args.mode]
    tbox, abox, renaming = load_kb(args)
    sg = load_shapes(args, renaming)
    if tbox.atmost and not route.counting:
        raise InputError(f"mode {args.mode} cannot handle max1 axioms; use pure-shaclb")
    warnings = [
        f"warning: no constraint defines target shape ${shape}\n"
        for shape in sg.undefined_target_shapes()
    ]
    warnings += [
        f"warning: target individual @{ind} is not in the data\n"
        for ind in sorted({i for _, i in sg.targets} - set(abox.individuals()))
    ]
    kb = prepare(tbox, abox, sg, args.depth)
    consistent = True
    try:
        out = route.run(kb)
    except InconsistentKB:  # reported with no warning, as nothing is validated
        consistent = False
        _emit_report(args, False, [], dict.fromkeys(STATS, 0))
        raise
    finally:
        if consistent:
            sys.stderr.writelines(warnings)
    if args.show_rewrite:
        for it in out.items:
            print(it)
    kb.stats["model_nodes"] = len(out.interp.nodes)
    _emit_report(args, True, [(s, i, v) for (s, i), v in out.verdicts.items()], kb.stats)
    unknown = sum(v is None for v in out.verdicts.values())
    if unknown:
        print(
            f"unknown: {unknown} target(s) do not hold on the model truncated at "
            f"depth {args.depth}, which cannot refute them (raise --depth)",
            file=sys.stderr,
        )
        return EXIT_DEPTH
    return EXIT_VALID if all(out.verdicts.values()) else EXIT_VIOLATIONS


def cmd_build_model(args: argparse.Namespace) -> int:
    tbox, abox, _ = load_kb(args)
    sat = SaturatedTBox(tbox)
    interp = build_can(sat, complete_abox(sat, abox), args.depth)
    if args.emit:
        sys.stdout.write(serialize_interpretation(interp))
    else:
        print(
            f"nodes={len(interp.nodes)} named={len(interp.individuals())} "
            f"edges={len(interp.role_atoms)} "
            f"complete={'true' if interp.complete else 'false'} depth={args.depth}"
        )
    return EXIT_VALID


def cmd_chase(args: argparse.Namespace) -> int:
    tbox, abox, _ = load_kb(args)
    sat = SaturatedTBox(tbox)
    complete_abox(sat, abox)  # raises InconsistentKB

    trace: List[Tuple[Interpretation, Interpretation]] = []
    final: Optional[Interpretation] = None
    try:
        final = run_core_chase(sat, abox, max_rounds=args.depth, trace=trace)
        last = f"# fixpoint after {len(trace)} rounds"
    except NotTerminated as exc:
        last = f"# {exc}"

    for k, (fired, cored) in enumerate(trace, start=1):
        print(f"# round {k}: fired ({len(fired.nodes)} nodes)")
        sys.stdout.write(serialize_interpretation(fired))
        print(f"# round {k}: cored ({len(cored.nodes)} nodes)")
        sys.stdout.write(serialize_interpretation(cored))
    print(last)
    if final is None:
        return EXIT_DEPTH
    sys.stdout.write(serialize_interpretation(final))
    return EXIT_VALID


def cmd_selftest(args: argparse.Namespace) -> int:
    from .harness import run_selftest

    report = run_selftest(args.seed, args.cases, inject_bug=args.inject_bug)
    sys.stdout.write(report.render())
    return EXIT_VALID if report.passed else EXIT_VIOLATIONS


COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "validate": run,
    "build-model": cmd_build_model,
    "chase": cmd_chase,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_kb_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tbox", required=True, help="axiom file (.tbox)")
    p.add_argument("--abox", required=True, help="assertion file (.abox)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first call, then shared.

    ``parse_args`` returns a fresh ``Namespace`` each time and reads
    ``sys.stderr`` and the terminal width when it prints, so ``main`` may
    reuse it across calls; nothing else may change it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors exit 3 (input error), not 2."""

        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    ap = Parser(prog="ontoshacl")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate targets against shapes")
    _add_kb_args(v)
    v.add_argument("--shapes", required=True, help="constraint file (.shacl)")
    v.add_argument("--targets", help="target file (.targets)")
    v.add_argument("--mode", choices=MODES, default="direct")
    v.add_argument(
        "--depth",
        type=int,
        default=32,
        help="tree depth (direct) or round budget (chase)",
    )
    v.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    v.add_argument(
        "--show-rewrite",
        action="store_true",
        help="print the rewritten constraints before the report: the source "
        "constraints plus the rows the TBox adds to them",
    )

    b = sub.add_parser("build-model", help="materialize a canonical-model prefix")
    _add_kb_args(b)
    b.add_argument("--depth", type=int, default=32)
    b.add_argument("--emit", action="store_true", help="dump atoms instead of a summary")

    c = sub.add_parser("chase", help="dump core-chase rounds")
    _add_kb_args(c)
    c.add_argument("--depth", type=int, default=10, help="round budget")

    s = sub.add_parser("selftest", help="randomized cross-checks of the pipelines")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cases", type=int, default=100)
    s.add_argument(
        "--inject-bug",
        action="store_true",
        help="flip a known rule to prove the harness can catch it",
    )
    return ap


# the value options of a plain ``validate`` line -> their namespace fields
PLAIN_OPTIONS = {
    "--tbox": "tbox", "--abox": "abox", "--shapes": "shapes", "--targets": "targets",
    "--mode": "mode", "--depth": "depth", "--format": "fmt",
}


def plain_validate(argv: Sequence[str]) -> Optional[Dict[str, object]]:
    """The fields of the namespace ``parse_args`` builds for a plain
    ``validate`` line (see the module docstring), or None for any other."""
    if not argv or argv[0] != "validate":
        return None
    fields: Dict[str, object] = {
        "command": "validate", "targets": None, "mode": "direct", "depth": 32, "fmt": "text",
        "show_rewrite": False,
    }
    seen = set()
    i = 1
    while i < len(argv):
        opt = argv[i]
        if opt in seen:
            return None
        seen.add(opt)
        if opt == "--show-rewrite":
            fields["show_rewrite"] = True
            i += 1
            continue
        if opt not in PLAIN_OPTIONS or i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        fields[PLAIN_OPTIONS[opt]] = argv[i + 1]
        i += 2
    if not {"--tbox", "--abox", "--shapes"} <= seen:
        return None
    if fields["mode"] not in MODES or fields["fmt"] not in FORMATS:
        return None
    if "--depth" in seen:
        # ``int`` would also read " 3", "+3" and "٣"; argparse reads those
        digits = fields["depth"]
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            fields["depth"] = int(digits)
        except ValueError:  # more digits than ``int`` converts
            return None
    return fields


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    fields = plain_validate(argv)
    args = build_parser().parse_args(argv) if fields is None else SimpleNamespace(**fields)
    try:
        if getattr(args, "depth", 0) < 0:
            raise InputError("--depth must be non-negative")
        return COMMANDS[args.command](args)
    except tuple(FAILURES) as exc:
        code, word, advice = next(FAILURES[t] for t in type(exc).__mro__ if t in FAILURES)
        print(f"{word}: {exc}{advice}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
