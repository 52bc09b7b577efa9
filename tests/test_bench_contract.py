"""What the benchmark under ``bench/`` relies on in the package.

``bench/spans.py`` wraps package functions by module and attribute name,
and ``bench/workloads.py`` runs ``validate`` in a fixed list of modes. A
refactor that renames one of those functions or modes would silently
drop spans from ``bench/run.py --trace 1`` or break every run, so both
lists are checked here. The sizers that ``spans.py`` runs on a traced
call's result read fields of the package's values, so they are run too,
on a small KB in every benchmarked mode. The `abox` workload's generator
is run at 2,000 people, 25 times the workload's size, and every
benchmarked mode must give its verdicts. The files are only read.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import sys

from ontoshacl import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(monkeypatch, name: str):
    """The module ``bench/<name>.py``, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _literal(path: str, name: str):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def test_every_traced_function_resolves(monkeypatch):
    spans = _load(monkeypatch, "spans")
    assert spans.TRACED
    for span, module, attr, _ in spans.TRACED:
        mod = importlib.import_module(module)
        assert callable(getattr(mod, attr, None)), f"{span}: {module}.{attr} is gone"


def test_every_benchmarked_mode_is_a_cli_mode():
    for path in ("workloads.py", "run.py"):
        modes = _literal(os.path.join(BENCH, path), "MODES")
        assert set(modes) <= set(cli.MODES), path


# an existential, a role inclusion and a path shape, so that saturation,
# completion, the model builder and every rewriting have work to size
SIZED_TBOX = "A <= some r.B\nr <= s\n"
SIZED_ABOX = "A(a)\nr(a,b)\nB(b)\n"
SIZED_SHAPES = "$p <- some <s/s*>.B\n$q <- some [s].$p | A\n"
SIZED_TARGETS = "$p(@a)\n$q(@a)\n"


def test_every_sizer_reads_what_the_package_returns(monkeypatch, tmp_path, capsys):
    spans = _load(monkeypatch, "spans")
    sized = {name for name, _, _, sizer in spans.TRACED if sizer is not spans._none}
    files = {}
    for kind, text in (("tbox", SIZED_TBOX), ("abox", SIZED_ABOX),
                       ("shacl", SIZED_SHAPES), ("targets", SIZED_TARGETS)):
        files[kind] = tmp_path / f"kb.{kind}"
        files[kind].write_text(text, encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mode in _literal(os.path.join(BENCH, "run.py"), "MODES"):
            tracer.mode = mode
            rc = cli.main(["validate", "--tbox", str(files["tbox"]),
                           "--abox", str(files["abox"]), "--shapes", str(files["shacl"]),
                           "--targets", str(files["targets"]), "--mode", mode,
                           "--format", "json"])
            assert rc == cli.EXIT_VALID, mode
    finally:
        tracer.uninstall()
    capsys.readouterr()
    seen = {s.name for s in tracer.spans}
    assert sized <= seen, sorted(sized - seen)
    for span in tracer.spans:
        if span.name in sized:
            assert span.sizes, f"{span.name} in mode {span.mode} recorded no sizes"


def test_every_benchmarked_mode_gives_the_generator_verdicts_at_2000_people(
    monkeypatch, tmp_path, capsys
):
    files, expected = _load(monkeypatch, "abox").generate(91, 2000)
    args = []
    for kind, flag in (("tbox", "--tbox"), ("abox", "--abox"), ("shacl", "--shapes"),
                       ("targets", "--targets")):
        path = tmp_path / f"people.{kind}"
        path.write_text(files[kind], encoding="utf-8")
        args += [flag, str(path)]
    capsys.readouterr()
    for mode in _literal(os.path.join(BENCH, "run.py"), "MODES"):
        rc = cli.main(["validate", *args, "--mode", mode, "--format", "json"])
        assert rc == (cli.EXIT_VALID if all(expected.values()) else cli.EXIT_VIOLATIONS), mode
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"], mode
        got = {(t["shape"], t["node"]): t["valid"] for t in report["targets"]}
        assert got == expected, mode
