"""The randomized cross-check of the validation routes, run as a test.

A seeded slice of ``ontoshacl selftest`` keeps every route agreeing with
``direct`` inside the regular suite, and the mutation hook proves that
``compare_routes`` notices a broken model builder. Five cases of seeds 4
and 5 get a verdict wrong when the rewriting adds no row to the
constraints, so the cross-check sees the rows the TBox adds. A route that
answers an inconsistent KB, or refuses a consistent one, disagrees too.

``gen_tbox`` never draws a role cycle, so the last section appends the
reverse of one drawn role inclusion to selftest cases and checks the
routes of the CLI, which collapses the cycle, against each other and
against ``direct`` run in-process on the uncollapsed TBox.
"""
from __future__ import annotations

import json
import random

import pytest

from ontoshacl import cli, model
from ontoshacl import rewrite as rw
from ontoshacl.core import RoleInclusion, TBox
from ontoshacl.formats import (
    parse_abox,
    serialize_constraints,
    serialize_interpretation,
    serialize_targets,
    serialize_tbox,
)
from ontoshacl.harness import (
    SAFE_DEPTH,
    case_rng,
    compare_routes,
    gen_case,
    run_selftest,
    shrink,
)
from ontoshacl.model import InconsistentKB


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_selftest_slice_passes(seed):
    report = run_selftest(seed, 15)
    assert report.passed, report.render()
    assert report.ran > 0


def test_compare_routes_catches_the_injected_bug(monkeypatch):
    tbox, abox, sg = gen_case(case_rng(0, 47))
    assert compare_routes(tbox, abox, sg) is None
    monkeypatch.setattr(model, "INJECT_SUCC_FILTER_BUG", True)
    assert compare_routes(tbox, abox, sg) is not None


def test_shrunk_data_is_the_data_the_repro_prints(monkeypatch):
    # an individual whose last atom the shrinker removes leaves the data,
    # as it leaves the printed bundle
    monkeypatch.setattr(model, "INJECT_SUCC_FILTER_BUG", True)
    tbox, abox, sg = gen_case(case_rng(0, 47))
    _, small, _ = shrink(tbox, abox, sg)
    assert len(small.individuals()) < len(abox.individuals())
    assert parse_abox(serialize_interpretation(small)) == small


@pytest.mark.parametrize("case", [72, 76])
def test_pure_alchi_counts_sub_role_edges(case):
    # both cases need an edge the role hierarchy derives from a raw sub-role
    # edge; pure-alchi used to miss it and answer VIOLATION
    assert compare_routes(*gen_case(case_rng(1, case))) is None


def test_slowest_selftest_case_agrees():
    # the largest rewriting of seeds 0-3 x 100: about 8,000 quadruples
    # when every shape was saturated together
    assert compare_routes(*gen_case(case_rng(3, 76))) is None


@pytest.mark.parametrize("seed, case", [(4, 61), (4, 81), (4, 98), (5, 12), (5, 96)])
def test_compare_routes_sees_the_rows_the_tbox_adds(monkeypatch, seed, case):
    # a shape holds at a named individual only through an anonymous
    # witness, which only a row the TBox adds to C_T reads. No case of
    # seeds 0-3 x 100 needs such a row
    tbox, abox, sg = gen_case(case_rng(seed, case))
    assert compare_routes(tbox, abox, sg) is None
    monkeypatch.setattr(rw, "_live_steps", lambda st, cons: frozenset())
    assert compare_routes(tbox, abox, sg) is not None


def test_compare_routes_demands_that_every_route_refuses_alike(monkeypatch):
    # case 94 of seed 0 is the seed's one inconsistent case, a max1 clash;
    # case 0 is consistent. Both have max1 axioms, which pure-alchi refuses
    clash, plain = gen_case(case_rng(0, 94)), gen_case(case_rng(0, 0))
    with pytest.raises(InconsistentKB, match="c has 2 named q.top successors"):
        compare_routes(*clash)
    assert compare_routes(*plain) is None
    monkeypatch.setattr(cli, "check_pure_consistency", lambda st, data, tables: None)
    assert compare_routes(*clash).endswith("pure-shaclb answers")

    def refuse(st, data, tables):
        raise InconsistentKB("bot holds at a")

    monkeypatch.setattr(cli, "check_pure_consistency", refuse)
    assert compare_routes(*plain) == "direct answers, pure-shaclb refuses (bot holds at a)"


# =============================================================================
# ROLE CYCLES
# =============================================================================

# selftest seed-0 cases that get a role cycle; this many of them have a
# role inclusion, and this many of those get a role equivalent to its own
# inverse, which every mode refuses
CYCLE_CASES = range(400)
WITH_INCLUSION = 181
SELF_INVERSE = 5


def cyclic_case(i):
    """Selftest seed-0 case i with the reverse of one of its role
    inclusions appended, or None when it has none."""
    tbox, abox, sg = gen_case(case_rng(0, i))
    if not tbox.roles:
        return None
    ax = random.Random(i).choice(tbox.roles)
    return TBox.of([*tbox.axioms(), RoleInclusion(ax.sup, ax.sub)]), abox, sg


def test_routes_agree_over_role_cycles(tmp_path, capsys):
    argv = ["validate", "--depth", str(SAFE_DEPTH), "--format", "json"]
    for kind in ("tbox", "abox", "shapes", "targets"):
        argv += [f"--{kind}", str(tmp_path / f"in.{kind}")]
    cases = refused = 0
    for i in CYCLE_CASES:
        case = cyclic_case(i)
        if case is None:
            continue
        cases += 1
        tbox, abox, sg = case
        for kind, text in (
            ("tbox", serialize_tbox(tbox)),
            ("abox", serialize_interpretation(abox)),
            ("shapes", serialize_constraints(sg.constraints)),
            ("targets", serialize_targets(sg.targets)),
        ):
            (tmp_path / f"in.{kind}").write_text(text, encoding="utf-8")
        runs = {}
        for mode, route in cli.ROUTES.items():
            if route.small_only or (tbox.atmost and not route.counting):
                continue
            rc = cli.main([*argv, "--mode", mode])
            out, err = capsys.readouterr()
            runs[mode] = (rc, json.loads(out)["targets"] if out else None, err)
        want = runs["direct"]
        assert all(got == want for got in runs.values()), (i, runs)
        if want[0] == cli.EXIT_INPUT:
            refused += 1
            assert "equivalent to its own inverse" in want[2], i
            continue
        # the collapse keeps direct's verdicts on the uncollapsed TBox
        kb = cli.prepare(tbox, abox, sg, SAFE_DEPTH)
        try:
            verdicts = cli.ROUTES["direct"].run(kb).verdicts
        except InconsistentKB:
            assert want[0] == cli.EXIT_INCONSISTENT, i
            continue
        assert want[1] is not None, (i, want)
        got = {(t["shape"], t["node"]): t["valid"] for t in want[1]}
        assert got == verdicts, i
    assert (cases, refused) == (WITH_INCLUSION, SELF_INVERSE)
