"""The command-line frontend: exit codes 0-5 for every validation mode.

Each test writes its inputs under ``tmp_path`` and calls ``cli.main``
in-process, so the exit code, the report on stdout and the message on
stderr are the ones a user sees.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshacl import cli, core, model, rewrite
from ontoshacl.formats import parse_constraints
from ontoshacl.shapes import Constraint, ShapesGraph, normalize

MODES = ("direct", "rewrite", "pure-alchi", "pure-shaclb", "chase")

# one small fixture every mode can answer: a needs an anonymous r-witness
TBOX = "A <= some r.B\n"
ABOX = "A(a)\nD(b)\n"
SHAPES = "$s <- some [r].B\n$t <- D\n"


def write(tmp_path, **texts):
    paths = {}
    for kind, text in texts.items():
        p = tmp_path / f"in.{kind}"
        p.write_text(text, encoding="utf-8")
        paths[kind] = str(p)
    return paths


def validate(tmp_path, mode, targets, tbox=TBOX, abox=ABOX, shapes=SHAPES, extra=()):
    f = write(tmp_path, tbox=tbox, abox=abox, shacl=shapes, targets=targets)
    argv = ["validate", "--tbox", f["tbox"], "--abox", f["abox"],
            "--shapes", f["shacl"], "--targets", f["targets"], "--mode", mode]
    return cli.main(argv + list(extra))


def test_modes_come_from_the_route_table():
    assert cli.MODES == MODES


@pytest.mark.parametrize("mode", MODES)
def test_valid_targets_exit_0(tmp_path, mode, capsys):
    assert validate(tmp_path, mode, "$s(@a)\n$t(@b)\n") == cli.EXIT_VALID
    out = capsys.readouterr().out
    assert "$s(@a): VALID" in out and "$t(@b): VALID" in out


@pytest.mark.parametrize("mode", MODES)
def test_violations_exit_1(tmp_path, mode, capsys):
    assert validate(tmp_path, mode, "$s(@a)\n$t(@a)\n") == cli.EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "$s(@a): VALID" in out and "$t(@a): VIOLATION" in out


@pytest.mark.parametrize("mode", MODES)
def test_inconsistent_kb_exits_2(tmp_path, mode, capsys):
    rc = validate(tmp_path, mode, "$t(@b)\n", tbox=TBOX + "A & D <= bot\n", abox="A(a)\nD(a)\n")
    assert rc == cli.EXIT_INCONSISTENT
    assert "consistent: false" in capsys.readouterr().out


@pytest.mark.parametrize("mode", MODES)
def test_parse_errors_exit_3(tmp_path, mode, capsys):
    assert validate(tmp_path, mode, "$s(@a)\n", shapes="$s <- some [r.B\n") == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("shapes, col, message", [
    ("$s <- some [R].B\n", 13, "role names start lowercase, got 'R'"),
    ("$s <- some <R>.B\n", 13, "role names start lowercase, got 'R'"),
    ("$s <- some <top>.B\n", 13, "role names start lowercase, got 'top'"),
    ("$s <- (@a & eq(<_x>,<p>))\n", 17, "role names start lowercase, got '_x'"),
    ("$s <- some <>.B\n", 13, "expected a role name"),
    ("$s <- some <p.B\n", 14, "expected '>'"),
])
def test_paths_read_role_names_as_role_sets_do(tmp_path, shapes, col, message, capsys):
    assert validate(tmp_path, "direct", "$s(@a)\n", shapes=shapes) == cli.EXIT_INPUT
    assert f"in.shacl:1:{col}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, col, message", [
    ("tbox", "A & b <= C\n", 5, "concept names start uppercase, got 'b'"),
    ("tbox", "A <= some R.B\n", 11, "role names start lowercase, got 'R'"),
    ("abox", "top(a)\n", 1, "'top' cannot be asserted"),
    ("abox", "bot(a)\n", 1, "'bot' cannot be asserted"),
    ("shapes", "$_s <- A\n", 2, "shape names starting with '_' are reserved"),
    # malformed data and target lines: the pattern that reads such lines
    # refuses them, and the cursor words the error
    ("abox", "r(a)\n", 4, "expected ','"),
    ("abox", "A(a,b)\n", 4, "expected ')'"),
    ("abox", "^A(x,y)\n", 2, "role names start lowercase, got 'A'"),
    ("abox", "R(x,y)\n", 4, "expected ')'"),
    ("abox", "A a)\n", 3, "expected '('"),
    ("abox", "r(a,b\n", 6, "expected ')'"),
    ("abox", "A(a) x\n", 6, "unexpected trailing input 'x'"),
    ("abox", "r(a,\t)\n", 6, "expected an individual"),
    ("abox", "r\t(a b)\n", 6, "expected ','"),
    ("targets", "$s(a)\n", 4, "expected '@'"),
    ("targets", "$s(@a\n", 6, "expected ')'"),
    ("targets", "$s(@a) b\n", 8, "unexpected trailing input 'b'"),
    ("targets", "$s\t(@a)\tb\n", 9, "unexpected trailing input 'b'"),
    ("targets", "$ (@a)\n", 3, "expected a shape name"),
])
def test_a_bad_name_is_reported_at_its_first_character(tmp_path, kind, text, col, message, capsys):
    files = {"targets": "$s(@a)\n", kind: text}
    assert validate(tmp_path, "direct", files.pop("targets"), **files) == cli.EXIT_INPUT
    ext = "shacl" if kind == "shapes" else kind
    assert capsys.readouterr().err == f"error: {tmp_path / f'in.{ext}'}:1:{col}: {message}\n"


# a reserved name read anywhere would meet the shapes the package makes:
# `_c_A` is the pure rewritings' shape for concept A
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shapes, targets, where", [
    ("$s <- $_c_A\n", "$s(@a)\n", "in.shacl:1:8"),
    ("$s <- !$_q0\n", "$s(@a)\n", "in.shacl:1:9"),
    (SHAPES, "$_c_B(@a)\n", "in.targets:1:2"),
], ids=["body", "negated", "target"])
def test_reserved_shape_names_are_refused_wherever_they_are_read(
    tmp_path, mode, shapes, targets, where, capsys
):
    rc = validate(tmp_path, mode, targets, tbox="A <= B\n", abox="A(a)\n", shapes=shapes)
    assert rc == cli.EXIT_INPUT
    assert f"{where}: shape names starting with '_' are reserved" in capsys.readouterr().err


def test_missing_files_exit_3(tmp_path, capsys):
    argv = ["validate", "--tbox", str(tmp_path / "none.tbox"), "--abox", str(tmp_path / "none.abox"),
            "--shapes", str(tmp_path / "none.shacl")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_pure_alchi_refuses_counting_axioms_with_exit_3(tmp_path, capsys):
    rc = validate(tmp_path, "pure-alchi", "$s(@a)\n", tbox=TBOX + "A <= max1 r.B\n")
    assert rc == cli.EXIT_INPUT
    assert "max1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", MODES)
def test_unstratified_shapes_exit_4(tmp_path, mode, capsys):
    rc = validate(tmp_path, mode, "$u(@a)\n", shapes=SHAPES + "$u <- !$v\n$v <- some [r].$u\n")
    assert rc == cli.EXIT_NOT_STRATIFIED
    assert "negation inside a recursive cycle" in capsys.readouterr().err


def test_negation_over_a_truncated_model_exits_5(tmp_path, capsys):
    rc = validate(tmp_path, "direct", "$n(@a)\n", tbox="A <= some r.A\n",
                  shapes="$d <- D\n$n <- !$d\n", extra=["--depth", "2"])
    assert rc == cli.EXIT_DEPTH
    assert "raise --depth" in capsys.readouterr().err


def test_chase_round_budget_exits_5(tmp_path):
    rc = validate(tmp_path, "chase", "$s(@a)\n", tbox="A <= some r.A\n",
                  shapes="$s <- A\n", extra=["--depth", "3"])
    assert rc == cli.EXIT_DEPTH


def test_negative_depth_exits_3(tmp_path):
    assert validate(tmp_path, "direct", "$s(@a)\n", extra=["--depth", "-1"]) == cli.EXIT_INPUT


# r and ^s include each other, so s is read as ^r wherever a role is read:
# in the data, in role sets, in paths and in guarded comparisons
CYCLE_TBOX = "r <= ^s\n^s <= r\nA <= some r.B\nB <= only s.C\n"
CYCLE_ABOX = "A(a)\ns(c,a)\nr(c,d)\nC(d)\nA(e)\n"
CYCLE_SHAPES = (
    "$p <- some [s].A\n$q <- some <^s/r*>.C\n$e <- @a & eq(<^s>,<r>)\n"
    "$d <- @c & disj(<s>,<r>)\n$v <- some [s].C\n$c <- C\n"
)
# the same KB with ^r written for s
NO_CYCLE_TBOX = "A <= some r.B\nB <= only ^r.C\n"
NO_CYCLE_ABOX = "A(a)\n^r(c,a)\nr(c,d)\nC(d)\nA(e)\n"
NO_CYCLE_SHAPES = (
    "$p <- some [^r].A\n$q <- some <r/r*>.C\n$e <- @a & eq(<r>,<r>)\n"
    "$d <- @c & disj(<^r>,<r>)\n$v <- some [^r].C\n$c <- C\n"
)
CYCLE_TARGETS = "$p(@c)\n$p(@a)\n$q(@a)\n$q(@e)\n$e(@a)\n$d(@c)\n$v(@c)\n$c(@e)\n"
ROLE_S = re.compile(r"(?<![$\w])s\b|_b_\^?s\b")


@pytest.mark.parametrize("mode", MODES)
def test_a_collapsed_role_is_renamed_wherever_it_is_read(tmp_path, mode, capsys):
    outs = []
    for tbox, abox, shapes in ((CYCLE_TBOX, CYCLE_ABOX, CYCLE_SHAPES),
                               (NO_CYCLE_TBOX, NO_CYCLE_ABOX, NO_CYCLE_SHAPES)):
        rc = validate(tmp_path, mode, CYCLE_TARGETS, tbox=tbox, abox=abox, shapes=shapes,
                      extra=["--show-rewrite"])
        assert rc == cli.EXIT_VIOLATIONS, capsys.readouterr().err
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "$p(@a): VIOLATION" in outs[0] and "$q(@e): VIOLATION" in outs[0]
    assert outs[0].count(": VALID") == 6
    assert ROLE_S.search(outs[0]) is None
    assert ROLE_S.search(CYCLE_SHAPES) is not None


# =============================================================================
# REGRESSIONS
# =============================================================================

CHAIN = "A <= some r.B\nB <= some r.C\nC <= some r.C\n"
TWO_STEPS = "$s <- some [r].$t\n$t <- some [r].C\n"


def test_truncated_direct_run_reports_unknown_not_violation(tmp_path, capsys):
    # $s(@a) needs two r-steps; depth 1 cuts the model after the first
    rc = validate(tmp_path, "direct", "$s(@a)\n", tbox=CHAIN, abox="A(a)\n",
                  shapes=TWO_STEPS, extra=["--depth", "1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DEPTH
    assert "$s(@a): UNKNOWN" in captured.out
    assert "VIOLATION" not in captured.out
    assert "raise --depth" in captured.err


def test_truncated_direct_run_reports_null_in_json(tmp_path, capsys):
    rc = validate(tmp_path, "direct", "$s(@a)\n", tbox=CHAIN, abox="A(a)\n",
                  shapes=TWO_STEPS, extra=["--depth", "1", "--format", "json"])
    assert rc == cli.EXIT_DEPTH
    report = json.loads(capsys.readouterr().out)
    assert report["targets"] == [{"shape": "s", "node": "a", "valid": None}]


def test_truncated_direct_run_keeps_valid_lower_bounds(tmp_path, capsys):
    # $t(@a) holds on the first level already, so depth 1 proves it
    rc = validate(tmp_path, "direct", "$t(@a)\n", tbox=CHAIN, abox="A(a)\n",
                  shapes="$t <- some [r].B\n", extra=["--depth", "1"])
    assert rc == cli.EXIT_VALID
    assert "$t(@a): VALID" in capsys.readouterr().out


@pytest.mark.parametrize("mode", MODES)
def test_deep_enough_runs_agree_on_the_chain(tmp_path, mode):
    rc = validate(tmp_path, mode, "$s(@a)\n", tbox=CHAIN, abox="A(a)\n",
                  shapes=TWO_STEPS, extra=["--depth", "3"])
    # the chain never closes, so only the chase runs out of rounds
    assert rc == (cli.EXIT_DEPTH if mode == "chase" else cli.EXIT_VALID)


def test_chase_size_guard_exits_5(tmp_path, capsys):
    abox = "".join(f"A(i{k})\n" for k in range(70))
    rc = validate(tmp_path, "chase", "$s(@i0)\n", tbox="A <= B\n", abox=abox, shapes="$s <- B\n")
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DEPTH
    assert "Traceback" not in captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize("mode", MODES)
def test_undefined_targets_warn_but_keep_their_verdict(tmp_path, mode, capsys):
    rc = validate(tmp_path, mode, "$ghost(@a)\n$t(@zed)\n$s(@a)\n")
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VIOLATIONS
    assert "$ghost(@a): VIOLATION" in captured.out and "$t(@zed): VIOLATION" in captured.out
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: no constraint defines target shape $ghost",
        "warning: target individual @zed is not in the data",
    ]


def test_defined_targets_do_not_warn(tmp_path, capsys):
    assert validate(tmp_path, "direct", "$s(@a)\n") == cli.EXIT_VALID
    assert "warning" not in capsys.readouterr().err


BRANCHING = "A <= some r.A\nA <= some s.A\n"


def test_model_over_the_node_budget_exits_5(tmp_path, capsys):
    # the model doubles per level: 2^33 - 1 nodes at the default depth
    rc = validate(tmp_path, "direct", "$s(@a)\n", tbox=BRANCHING, abox="A(a)\n", shapes="$s <- A\n")
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DEPTH
    assert f"more than {model.MAX_MODEL_NODES} anonymous nodes (lower --depth)" in captured.err
    # the advice holds: depth 0 adds no node, and the same input answers
    rc = validate(tmp_path, "direct", "$s(@a)\n", tbox=BRANCHING, abox="A(a)\n",
                  shapes="$s <- A\n", extra=["--depth", "0"])
    assert rc == cli.EXIT_VALID
    assert "$s(@a): VALID" in capsys.readouterr().out
    f = write(tmp_path, tbox=BRANCHING, abox="A(a)\n")
    assert cli.main(["build-model", "--tbox", f["tbox"], "--abox", f["abox"]]) == cli.EXIT_DEPTH
    assert "Traceback" not in capsys.readouterr().err
    # a depth whose prefix fits the budget is still built
    assert cli.main(["build-model", "--tbox", f["tbox"], "--abox", f["abox"], "--depth", "3"]) == 0
    assert "nodes=15 " in capsys.readouterr().out


def test_data_over_the_node_budget_still_gets_a_model(tmp_path, monkeypatch, capsys):
    # five individuals over a budget of three nodes: the bound counts only
    # the three anonymous nodes that depth 1 adds, so the prefix is built
    monkeypatch.setattr(model, "MAX_MODEL_NODES", 3)
    data = dict(tbox="A <= some r.B\n", abox="A(a)\nA(b)\nA(c)\nr(d,e)\n",
                shapes="$s <- A\n$t <- some [r].B\n")
    targets = "$s(@a)\n$s(@d)\n$t(@a)\n$t(@d)\n"
    verdicts = {}
    for mode, extra in (("direct", ["--depth", "1"]), ("rewrite", [])):
        assert validate(tmp_path, mode, targets, extra=extra, **data) == cli.EXIT_VIOLATIONS
        captured = capsys.readouterr()
        assert captured.err == ""
        verdicts[mode] = [line for line in captured.out.splitlines() if line.startswith("$")]
    assert verdicts["direct"] == verdicts["rewrite"]
    assert "$t(@a): VALID" in verdicts["direct"] and "$t(@d): VIOLATION" in verdicts["direct"]
    f = write(tmp_path, tbox=data["tbox"], abox=data["abox"])
    argv = ["build-model", "--tbox", f["tbox"], "--abox", f["abox"], "--depth", "1"]
    assert cli.main(argv) == cli.EXIT_VALID
    assert "nodes=8 " in capsys.readouterr().out


@pytest.mark.parametrize("mode", MODES)
def test_validate_computes_the_role_hierarchy_once(tmp_path, mode, monkeypatch):
    # finding the role cycles and saturating read one hierarchy; a TBox
    # with a cycle is collapsed and so needs a second, its own
    calls = []
    compute = core.role_hierarchy

    def spy(tb):
        calls.append(tb)
        return compute(tb)

    monkeypatch.setattr(core, "role_hierarchy", spy)
    for axioms, want in (("r <= s\n", 1), ("r <= s\ns <= r\n", 2)):
        calls.clear()
        rc = validate(tmp_path, mode, "$s(@a)\n", tbox=TBOX + axioms)
        assert rc in (cli.EXIT_VALID, cli.EXIT_VIOLATIONS)
        assert len(calls) == want, axioms


@pytest.mark.parametrize("mode", ["rewrite", "pure-alchi", "pure-shaclb"])
def test_rewriting_over_the_quadruple_budget_exits_5(tmp_path, mode, monkeypatch, capsys):
    monkeypatch.setattr(rewrite, "MAX_QUADRUPLES", 5)
    assert validate(tmp_path, mode, "$s(@a)\n") == cli.EXIT_DEPTH
    err = capsys.readouterr().err
    assert "more than 5 quadruples" in err
    assert "Traceback" not in err


# the rewrite saturates a dict of quadruples in whatever order it holds
# them; the printed rewriting must not depend on how strings hash
HASHED_TBOX = "A <= some r.B\nB <= some r.C\nr <= s\n"
HASHED_ABOX = "A(a)\nr(a,b)\nD(b)\ns(b,c)\nC(c)\n"
HASHED_SHAPES = "$s <- some <s/s*>.C\n$t <- some [r].$s | D\n$u <- !$t & A\n"
HASHED_TARGETS = "$s(@a)\n$t(@b)\n$u(@a)\n"


@pytest.mark.parametrize("mode", ["rewrite", "pure-alchi", "pure-shaclb"])
def test_show_rewrite_does_not_depend_on_the_hash_seed(tmp_path, mode):
    f = write(tmp_path, tbox=HASHED_TBOX, abox=HASHED_ABOX, shacl=HASHED_SHAPES,
              targets=HASHED_TARGETS)
    argv = [sys.executable, "-m", "ontoshacl.cli", "validate", "--tbox", f["tbox"],
            "--abox", f["abox"], "--shapes", f["shacl"], "--targets", f["targets"],
            "--mode", mode, "--show-rewrite"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (cli.EXIT_VALID, cli.EXIT_VIOLATIONS), proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > len(HASHED_TARGETS.splitlines()) + 3


def test_a_self_inverse_refusal_names_the_least_role_under_every_hash_seed(tmp_path):
    # p, q, ^p and ^q are one cycle; the refusal names its least role
    f = write(tmp_path, tbox="p <= q\nq <= p\np <= ^p\n", abox=ABOX, shacl=SHAPES,
              targets="$t(@b)\n")
    argv = [sys.executable, "-m", "ontoshacl.cli", "validate", "--tbox", f["tbox"],
            "--abox", f["abox"], "--shapes", f["shacl"], "--targets", f["targets"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    errs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        errs.add(proc.stderr)
    assert errs == {"error: role p is equivalent to its own inverse; cannot collapse\n"}


def test_show_rewrite_ignores_an_axiom_over_fresh_names(tmp_path, capsys):
    # no shape reads P, Q or P2 and no existential mentions them, so the
    # rewriting does not change
    outs = []
    for tbox in (HASHED_TBOX, HASHED_TBOX + "P & Q <= P2\n"):
        rc = validate(tmp_path, "rewrite", HASHED_TARGETS, tbox=tbox, abox=HASHED_ABOX,
                      shapes=HASHED_SHAPES, extra=["--show-rewrite"])
        assert rc in (cli.EXIT_VALID, cli.EXIT_VIOLATIONS), capsys.readouterr().err
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > len(HASHED_TARGETS.splitlines()) + 3


def test_a_rewrite_run_orders_each_constraint_set_once(tmp_path, monkeypatch, capsys):
    # the source shapes and their normal form are sorted by printed form
    # when they are made; no later layer prints a constraint to re-sort it
    sg = ShapesGraph.of(parse_constraints(HASHED_SHAPES))
    normal, _ = normalize(sg)
    printed = []
    to_str = Constraint.__str__

    def counted(c):
        printed.append(c)
        return to_str(c)

    monkeypatch.setattr(Constraint, "__str__", counted)
    rc = validate(tmp_path, "rewrite", HASHED_TARGETS, tbox=HASHED_TBOX, abox=HASHED_ABOX,
                  shapes=HASHED_SHAPES, extra=["--format", "json"])
    assert rc in (cli.EXIT_VALID, cli.EXIT_VIOLATIONS), capsys.readouterr().err
    assert len(printed) <= len(sg.constraints) + len(normal.constraints)


# =============================================================================
# THE CHASE AND BUILD-MODEL SUBCOMMANDS
# =============================================================================


def subcommand(tmp_path, command, tbox=TBOX, abox=ABOX, extra=()):
    f = write(tmp_path, tbox=tbox, abox=abox)
    return cli.main([command, "--tbox", f["tbox"], "--abox", f["abox"], *extra])


def test_chase_prints_its_rounds_up_to_the_fixpoint(tmp_path, capsys):
    assert subcommand(tmp_path, "chase") == cli.EXIT_VALID
    out = capsys.readouterr().out
    assert "# round 1: fired (3 nodes)" in out
    assert "# fixpoint after 2 rounds" in out.splitlines()


def test_chase_out_of_rounds_exits_5(tmp_path, capsys):
    rc = subcommand(tmp_path, "chase", tbox="A <= some r.A\n", abox="A(a)\n", extra=["--depth", "3"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DEPTH
    assert "# round 3: cored" in captured.out
    assert captured.out.splitlines()[-1] == "# no fixpoint after 3 rounds"
    assert captured.err == ""


@pytest.mark.parametrize("command", ["chase", "build-model"])
def test_subcommands_exit_2_on_an_inconsistent_kb(tmp_path, command, capsys):
    rc = subcommand(tmp_path, command, tbox=TBOX + "A & D <= bot\n", abox="A(a)\nD(a)\n")
    assert rc == cli.EXIT_INCONSISTENT
    assert capsys.readouterr().err.startswith("inconsistent:")


@pytest.mark.parametrize("command", ["chase", "build-model"])
def test_subcommands_exit_3_on_input_errors(tmp_path, command, capsys):
    assert subcommand(tmp_path, command, tbox="A <= some r.B &\n") == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    argv = [command, "--tbox", str(tmp_path / "none.tbox"), "--abox", str(tmp_path / "none.abox")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_chase_size_guard_reads_the_same_in_both_subcommands(tmp_path, capsys):
    abox = "".join(f"A(i{k})\n" for k in range(70))
    rc = validate(tmp_path, "chase", "$s(@i0)\n", tbox="A <= B\n", abox=abox, shapes="$s <- B\n")
    assert rc == cli.EXIT_DEPTH
    via_validate = capsys.readouterr().err
    assert subcommand(tmp_path, "chase", tbox="A <= B\n", abox=abox) == cli.EXIT_DEPTH
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: 70 nodes exceeds")
    assert err == via_validate


# =============================================================================
# USAGE ERRORS AND THE SHARED PARSER
# =============================================================================


@pytest.mark.parametrize("argv, message", [
    (["validate", "--tbox", "x", "--abox", "y", "--shapes", "z", "--mode", "nosuch"],
     "ontoshacl validate: error: argument --mode: invalid choice: 'nosuch'"),
    (["validate", "--tbox", "x", "--shapes", "z"],
     "ontoshacl validate: error: the following arguments are required: --abox"),
    (["nosuch"], "ontoshacl: error: argument command: invalid choice: 'nosuch'"),
    (["chase", "--tbox", "x", "--abox", "y", "--depth", "abc"],
     "ontoshacl chase: error: argument --depth: invalid int value: 'abc'"),
], ids=["mode", "missing-option", "subcommand", "depth"])
def test_usage_errors_exit_3(argv, message, capsys):
    # a typo in the command line is an input error, not an inconsistent KB
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ontoshacl")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--help"])
    assert exc.value.code == 0
    assert "--show-rewrite" in capsys.readouterr().out


def test_one_parser_serves_independent_calls(tmp_path, monkeypatch, capsys):
    f = write(tmp_path, tbox=TBOX, abox=ABOX, shacl=SHAPES, targets="$s(@a)\n$t(@b)\n")
    kb = ["--tbox", f["tbox"], "--abox", f["abox"]]
    check = ["validate", *kb, "--shapes", f["shacl"], "--targets", f["targets"],
             "--format", "json"]

    seen = []  # the Namespace of every command that ran
    for name, command in list(cli.COMMANDS.items()):
        def spy(args, command=command):
            seen.append(args)
            return command(args)
        monkeypatch.setitem(cli.COMMANDS, name, spy)

    built = []  # top-level parsers; each subcommand's parser has a longer prog
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "ontoshacl":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()

    assert cli.main(check) == cli.EXIT_VALID
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", *kb, "--shapes", f["shacl"], "--mode", "nosuch"])
    assert exc.value.code == cli.EXIT_INPUT
    capsys.readouterr()
    assert cli.main(["chase", *kb]) == cli.EXIT_VALID
    assert cli.main(["build-model", *kb]) == cli.EXIT_VALID
    capsys.readouterr()
    assert cli.main(check) == cli.EXIT_VALID
    assert capsys.readouterr().out == first

    assert [a.command for a in seen] == ["validate", "chase", "build-model", "validate"]
    assert [a.depth for a in seen] == [32, 10, 32, 32]
    assert len({id(a) for a in seen}) == len(seen)
    assert not hasattr(seen[1], "fmt") and not hasattr(seen[1], "mode")
    assert len(built) == 1


def test_importing_the_cli_loads_no_dataclasses():
    # a structural check on cold start: the value classes are built
    # without the stdlib's per-class code generation and its imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ('import ontoshacl.cli, sys; '
            'print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))')
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["validate", "build-model", "chase"])
def test_a_file_that_is_not_utf8_exits_3(tmp_path, command, capsys):
    f = write(tmp_path, tbox=TBOX, abox=ABOX, shacl=SHAPES)
    (tmp_path / "bad.abox").write_bytes(b"A(a)\n\xff(b)\n")
    argv = [command, "--tbox", f["tbox"], "--abox", str(tmp_path / "bad.abox")]
    if command == "validate":
        argv += ["--shapes", f["shacl"]]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path / 'bad.abox'}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_file_keeps_its_line_numbers_under_any_line_ending(tmp_path, capsys):
    for ending in ("\n", "\r\n", "\r"):
        shapes = ending.join(["$s <- some [r].B", "", "$t <- D", "$u <- some [r.B", ""])
        assert validate(tmp_path, "direct", "$s(@a)\n", shapes=shapes) == cli.EXIT_INPUT
        assert capsys.readouterr().err.endswith("in.shacl:4:14: expected ']'\n"), repr(ending)


# =============================================================================
# THE PLAIN COMMAND LINE AGAINST ARGPARSE
# =============================================================================

# options, whole and abbreviated, with ``=`` forms, help and unknown ones
OPTION_WORDS = [
    "--tbox", "--abox", "--shapes", "--targets", "--mode", "--depth", "--format",
    "--show-rewrite", "--tb", "--sh", "--show", "--de", "--tbox=x", "--depth=3", "-h",
    "--help", "--nosuch", "--", "-x",
]
VALUE_WORDS = [
    "x", "in.tbox", "-x", "-1", "3", "007", " 3", "+3", "٣", "3_0", "", "a b", "9" * 5000,
    *MODES, "nosuch", "text", "json", "JSON", "validate",
]
COMMAND_WORDS = ["validate", "validate", "validate", "chase", "build-model", "selftest", "nosuch"]


@st.composite
def plain_argvs(draw):
    """A plain ``validate`` line: the three files, optional value options
    and ``--show-rewrite``, in drawn order, with drawn values."""
    options = ["--tbox", "--abox", "--shapes"] + draw(st.lists(
        st.sampled_from(["--targets", "--mode", "--depth", "--format", "--show-rewrite"]),
        unique=True))
    order = draw(st.permutations(options))
    values = {
        "--mode": st.sampled_from(MODES), "--format": st.sampled_from(["text", "json"]),
        "--depth": st.integers(0, 10 ** 6).map(str),
    }
    argv = ["validate"]
    for opt in order:
        argv.append(opt)
        if opt != "--show-rewrite":
            argv.append(draw(values.get(opt, st.sampled_from(["x", "in.tbox", "a b", ""]))))
    return argv


@st.composite
def near_argvs(draw):
    """A plain line, a few words inserted, removed or replaced, or two
    words (an option and its value) removed."""
    argv = draw(plain_argvs())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        word = draw(st.sampled_from(OPTION_WORDS + VALUE_WORDS + COMMAND_WORDS))
        edit = draw(st.sampled_from(["insert", "remove", "replace", "remove two"]))
        if edit == "insert":
            argv.insert(i, word)
        else:
            argv[i:i + 1 + (edit == "remove two")] = [word] if edit == "replace" else []
    return argv


def parsed(argv):
    """``vars`` of what the argparse parser makes of ``argv``, or None
    where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(plain_argvs())
def test_a_plain_line_is_read_as_argparse_reads_it(argv):
    assert cli.plain_validate(argv) == parsed(argv) is not None


@settings(max_examples=600, deadline=None)
@given(near_argvs())
def test_the_plain_reader_gives_none_or_what_argparse_gives(argv):
    fields = cli.plain_validate(argv)
    assert fields is None or fields == parsed(argv)


def test_a_plain_line_never_calls_parse_args(tmp_path, monkeypatch, capsys):
    f = write(tmp_path, tbox=TBOX, abox=ABOX, shacl=SHAPES, targets="$s(@a)\n")
    plain = ["validate", "--tbox", f["tbox"], "--abox", f["abox"], "--shapes", f["shacl"],
             "--targets", f["targets"], "--mode", "rewrite", "--show-rewrite"]
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        calls.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert cli.main(plain) == cli.EXIT_VALID
    first = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["ontoshacl", *plain])
    assert cli.main(None) == cli.EXIT_VALID
    assert capsys.readouterr().out == first
    assert calls == []
    # the same line with an ``=`` form goes to argparse, with the same report
    monkeypatch.setattr(sys, "argv", ["ontoshacl", *plain[:-3], "--mode=rewrite", "--show-rewrite"])
    assert cli.main(None) == cli.EXIT_VALID
    assert capsys.readouterr().out == first
    assert len(calls) == 1


@pytest.mark.parametrize("extra, loaded", [([], "[]"), (["--mode=direct"], "['argparse']")])
def test_a_plain_validate_does_not_import_argparse(tmp_path, extra, loaded):
    f = write(tmp_path, tbox=TBOX, abox=ABOX, shacl=SHAPES, targets="$s(@a)\n")
    code = ("import sys; from ontoshacl.cli import main; rc = main(); "
            "print(rc, [m for m in ('argparse',) if m in sys.modules], file=sys.stderr)")
    argv = [sys.executable, "-c", code, "validate", "--tbox", f["tbox"], "--abox", f["abox"],
            "--shapes", f["shacl"], "--targets", f["targets"], *extra]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "$s(@a): VALID" in proc.stdout
    assert proc.stderr == f"0 {loaded}\n"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", [
    dict(targets="$s(@a)\n$t(@a)\n$ghost(@a)\n", extra=["--show-rewrite"]),
    dict(targets="$s(@a)\n$t(@b)\n", extra=["--format", "json", "--depth", "4"]),
    dict(targets="$t(@b)\n", tbox=TBOX + "A & D <= bot\n", abox="A(a)\nD(a)\n", extra=[]),
    dict(targets="$s(@a)\n", shapes="$s <- some [r.B\n", extra=["--format", "json"]),
    dict(targets="$s(@a)\n", tbox=CHAIN, abox="A(a)\n", shapes=TWO_STEPS,
         extra=["--depth", "1", "--show-rewrite"]),
    dict(targets=CYCLE_TARGETS, tbox=CYCLE_TBOX, abox=CYCLE_ABOX, shapes=CYCLE_SHAPES,
         extra=["--show-rewrite", "--format", "json"]),
], ids=["warnings", "json", "inconsistent", "parse-error", "truncated", "renamed"])
def test_argparse_and_the_plain_reader_give_the_same_run(tmp_path, mode, case, monkeypatch, capsys):
    case = dict(case)
    targets, extra = case.pop("targets"), case.pop("extra")
    runs = []
    for reader in (cli.plain_validate, lambda argv: None):
        monkeypatch.setattr(cli, "plain_validate", reader)
        rc = validate(tmp_path, mode, targets, extra=extra, **case)
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1]
