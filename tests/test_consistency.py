"""Which layer decides that a knowledge base is inconsistent.

``direct``, ``rewrite`` and ``chase`` complete the data
(``model.complete_abox``) and refuse it there. ``pure-alchi`` and
``pure-shaclb`` never complete it: they read ``bot`` and the at-most-one
witnesses off their own tables over the raw data. Every mode must still
refuse exactly the inputs ``direct`` refuses, with the same report and
reason, so the pure routes check the completion's consistency test.

``harness.gen_tbox`` never draws a ``bot`` axiom, so the inconsistent
inputs here are selftest cases with one ``Ci & Cj <= bot`` appended,
drawn from a ``random.Random`` of their own.
"""
from __future__ import annotations

import random

import pytest

from ontoshacl import cli, model
from ontoshacl.core import BOT, ConjInclusion, TBox
from ontoshacl.formats import (
    parse_abox,
    parse_tbox,
    serialize_constraints,
    serialize_interpretation,
    serialize_targets,
    serialize_tbox,
)
from ontoshacl.harness import CONCEPTS, case_rng, gen_case
from ontoshacl.model import InconsistentKB, complete_abox
from ontoshacl.tbox import SaturatedTBox

MODES = cli.MODES
PURE = ("pure-alchi", "pure-shaclb")
# the selftest cases that get a bot axiom; the direct route refuses this
# many of them: 27 for bot, 1 for a max1 clash (the one of seed 0)
CASES = [(seed, i) for seed in (0, 1) for i in range(100)]
INCONSISTENT = 28


def bot_case(seed, i):
    """Selftest case i of a seed with ``Ci & Cj <= bot`` appended."""
    tbox, abox, sg = gen_case(case_rng(seed, i))
    ci, cj = random.Random(seed * 1_000 + i).sample(CONCEPTS, 2)
    return TBox.of([*tbox.axioms(), ConjInclusion(frozenset({ci, cj}), BOT)]), abox, sg


def call(tmp_path, capsys, mode, tbox, abox, shapes, targets):
    """A ``validate`` call: its exit code, stdout and stderr."""
    paths = []
    for kind, text in (("tbox", tbox), ("abox", abox), ("shacl", shapes), ("targets", targets)):
        p = tmp_path / f"in.{kind}"
        p.write_text(text, encoding="utf-8")
        paths += [f"--{'shapes' if kind == 'shacl' else kind}", str(p)]
    rc = cli.main(["validate", *paths, "--mode", mode, "--depth", "7"])
    out, err = capsys.readouterr()
    return rc, out, err


def refusal_disagreements(tmp_path, capsys):
    """The (case, mode) pairs where the mode and ``direct`` do not both
    answer, or do not both refuse with one report and one reason; and the
    number of cases that ``direct`` refuses."""
    wrong, refused = [], 0
    for case in CASES:
        tbox, abox, sg = bot_case(*case)
        texts = (
            serialize_tbox(tbox),
            serialize_interpretation(abox),
            serialize_constraints(sg.constraints),
            serialize_targets(sg.targets),
        )
        want = call(tmp_path, capsys, "direct", *texts)
        refused += want[0] == cli.EXIT_INCONSISTENT
        for mode in MODES[1:]:
            if tbox.atmost and not cli.ROUTES[mode].counting:
                continue
            rc, out, err = call(tmp_path, capsys, mode, *texts)
            if cli.EXIT_INCONSISTENT not in (rc, want[0]):
                continue
            if (rc, out.replace(f"mode: {mode}", "mode: direct"), err) != want:
                wrong.append((case, mode))
    return wrong, refused


def test_every_mode_refuses_the_inconsistent_inputs_direct_refuses(tmp_path, capsys):
    assert refusal_disagreements(tmp_path, capsys) == ([], INCONSISTENT)


def test_pure_routes_refuse_what_the_completion_misses(tmp_path, capsys, monkeypatch):
    # a completion whose consistency check misses bot answers every bot
    # clash in direct, rewrite and chase alike; the pure routes still refuse
    checked = model.check_consistency

    def without_bot(tbox, individuals, has, succ):
        checked(tbox, individuals, lambda c, a: c != BOT and has(c, a), succ)

    monkeypatch.setattr(model, "check_consistency", without_bot)
    wrong, refused = refusal_disagreements(tmp_path, capsys)
    assert refused == 1  # the max1 clash
    assert {mode for _, mode in wrong} == set(PURE)


@pytest.fixture
def completions(monkeypatch):
    """Count the calls of ``model.complete_abox``, under each name the
    package calls it by."""
    calls = []

    def counted(*args, _fn=complete_abox):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(model, "complete_abox", counted)
    monkeypatch.setattr(cli, "complete_abox", counted)
    return calls


# a TBox whose data below is consistent, or clashes with bot at b
SPY_TBOX = "A <= some r.B\nA & D <= bot\n"
SPY_SHAPES = "$s <- some [r].B\n"


@pytest.mark.parametrize("abox, rc", [("A(a)\nD(b)\n", 0), ("A(a)\nA(b)\nD(b)\n", 2)])
@pytest.mark.parametrize("mode", MODES)
def test_only_the_completing_routes_complete_the_data(
    tmp_path, capsys, completions, mode, abox, rc
):
    got, out, err = call(tmp_path, capsys, mode, SPY_TBOX, abox, SPY_SHAPES, "$s(@a)\n")
    assert got == rc, err
    assert len(completions) == (0 if mode in PURE else 1)
    if rc == cli.EXIT_INCONSISTENT:
        assert err == "inconsistent: bot holds at b\n"


@pytest.mark.parametrize("mode", MODES)
def test_an_inconsistent_kb_is_refused_before_unstratified_shapes(tmp_path, capsys, mode):
    # the pure routes fail on the shapes before their own check can run
    got = call(tmp_path, capsys, mode, SPY_TBOX, "A(b)\nD(b)\n", "$s <- !$s\n", "$s(@b)\n")
    assert got[::2] == (cli.EXIT_INCONSISTENT, "inconsistent: bot holds at b\n")


@pytest.mark.parametrize("mode", MODES)
def test_target_warnings_are_printed_unless_the_kb_is_inconsistent(tmp_path, capsys, mode):
    targets = "$ghost(@a)\n$s(@zed)\n"
    rc, _, err = call(tmp_path, capsys, mode, SPY_TBOX, "A(a)\nD(a)\n", SPY_SHAPES, targets)
    assert (rc, err) == (cli.EXIT_INCONSISTENT, "inconsistent: bot holds at a\n")
    rc, _, err = call(tmp_path, capsys, mode, SPY_TBOX, "A(a)\n", "$s <- !$s\n", targets)
    assert rc == cli.EXIT_NOT_STRATIFIED
    assert err.startswith(
        "warning: no constraint defines target shape $ghost\n"
        "warning: target individual @zed is not in the data\nerror: "
    )


# max1 clashes where the second witness, c, gets the counted filler only
# from the completion: by a value restriction, and by a merge of a's
# implied r-witness (H, so F and G) onto c, which has G
MAX1_CASES = {
    "value": ("A <= max1 r.B\nA <= only r.B\n", "A(a)\nr(a,b)\nr(a,c)\nB(b)\n"),
    "merge": (
        "A <= some r.H\nH <= F\nH <= G\nA <= max1 r.F\nA <= max1 r.G\n",
        "A(a)\nr(a,b)\nr(a,c)\nF(b)\nG(c)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(MAX1_CASES))
def test_pure_shaclb_reads_a_max1_clash_as_the_completion_does(
    tmp_path, capsys, completions, case
):
    tbox, abox = MAX1_CASES[case]
    with pytest.raises(InconsistentKB) as reason:
        complete_abox(SaturatedTBox(parse_tbox(tbox)), parse_abox(abox))
    assert "a has 2 named r." in str(reason.value)
    completions.clear()
    rc, out, err = call(tmp_path, capsys, "pure-shaclb", tbox, abox, "$s <- A\n", "$s(@a)\n")
    assert (rc, err) == (cli.EXIT_INCONSISTENT, f"inconsistent: {reason.value}\n")
    assert out.startswith("consistent: false\n")
    assert completions == []
