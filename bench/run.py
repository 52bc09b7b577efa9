"""Benchmark of the four validation routes of ``ontoshacl validate``.

usage: python3 bench/run.py --workload {corpus,abox,paths} --seed N
                            --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
It writes its inputs, one result file per run and, with ``--trace 1``, a
span file under ``.bench_runs/``, and prints one JSON object as the last
line of its output.

Each (input, mode) pair is a unit. A run makes interleaved passes over all
units until ``--seconds`` are used up (at least three), calling
``ontoshacl.cli.main`` in-process with ``--format json`` and collecting
garbage before each call. Every call's verdicts are checked.

A fixed pure-Python loop is timed a few times before and after every call
and, from a timer signal, every few milliseconds during it (``HostClock``).
A call's cost is its time counted in loops at the speed those samples
show, times ``REF_LOOP_S``: seconds on a host whose loop takes that long.
A unit's cost is the mean of the middle half of its passes' costs, and a
mode's time is the sum over its units. The result file keeps the measured
seconds of every call, each unit's minimum and median, and every host
sample beside the metrics (see README.md for why).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones (``spans.py``) and prints the per-layer metrics from the
traced passes, with the difference between the two as the tracing
overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

# the benchmark's own modules, found beside this file
import check
import spans
import workloads

MODES = ("direct", "rewrite", "pure-alchi", "pure-shaclb")
MIN_PASSES = 3
# the loop's median time on the host the benchmark was written on, in a
# quiet stretch: a printed time is a cost in loops times this
REF_LOOP_S = 0.000112
# the loop is sampled this often during a call, and this many times
# before and after it
TICK_S = 0.005
EDGE_SAMPLES = 4
# a run stops starting passes past this many seconds, whatever --seconds says
HARD_LIMIT_S = 140.0
RESULTS_DIR = ".bench_runs"


def load_cli(root: str):
    """Import ``ontoshacl.cli`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ontoshacl", "cli.py")):
        raise SystemExit("error: no src/ontoshacl/cli.py here; run from the root of a checkout")
    sys.path.insert(0, src)
    import ontoshacl.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported ontoshacl from {cli.__file__}, not from {src}")
    return cli


def host_speed_sample() -> float:
    """One timing of a fixed pure-Python loop of arithmetic and dict stores."""
    t0 = time.perf_counter()
    x = 0
    d = {}
    for i in range(1_000):
        x += i * i % 7
        d[i & 63] = x
    return time.perf_counter() - t0


class HostClock:
    """Host-speed samples, in the order taken, and the timing of calls
    against them.

    ``timed`` samples the loop a few times before and after a call and,
    through a SIGALRM timer, every ``TICK_S`` during it. The mean of the
    middle half of those samples is the host's speed during the call, so
    the work the call did, counted in loops, is its duration over that
    mean. The duration is net of the samples taken during the call. The
    middle half, rather than all samples, keeps a sample that an interrupt
    slowed or a fast stretch sped up from tilting the reading.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._inner: List[float] = []

    def read(self) -> List[float]:
        got = [host_speed_sample() for _ in range(EDGE_SAMPLES)]
        self.samples += got
        return got

    def _tick(self, signum, frame) -> None:
        self._inner.append(host_speed_sample())

    def timed(self, fn: Callable[[], None], ticks: bool = True) -> Tuple[float, float]:
        """Run fn; return its net seconds and its cost in reference seconds."""
        before = self.read()
        self._inner = []
        if ticks:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            # stop the timer first, so every sample in _inner lies inside
            # the timed interval and is subtracted from it
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            if ticks:
                signal.signal(signal.SIGALRM, old)
        inner, self._inner = self._inner, []
        self.samples += inner
        seconds = elapsed - sum(inner)
        around = before + inner + self.read()
        return seconds, seconds * REF_LOOP_S / middle_half_mean(around)


def middle_half_mean(values) -> float:
    """Mean of the values between the first and the third quartile."""
    ranked = sorted(values)
    k = len(ranked) // 4
    return statistics.mean(ranked[k:len(ranked) - k])


def start_and_import(root: str) -> None:
    """Interpreter start plus ``import ontoshacl.cli``, in a child process."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", "import ontoshacl.cli"],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: import ontoshacl.cli failed: {proc.stderr.decode()[-500:]}")


class Call:
    """Exit code, output, net seconds and cost of one in-process CLI call."""

    def __init__(self, cli, argv: List[str], clock: HostClock, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        self.rc: Optional[int] = None

        def invoke() -> None:
            try:
                if tracer is None:
                    self.rc = cli.main(argv)
                else:
                    self.rc = tracer.call("cli.main", cli.main, argv)
            except SystemExit as exc:
                self.rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a failed run
                err.write(traceback.format_exc())

        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.seconds, self.cost = clock.timed(invoke)
        self.stdout = out.getvalue()
        self.stderr = err.getvalue()

    def report(self) -> Tuple[Optional[dict], int]:
        """The JSON report and the number of lines printed before it."""
        lines = self.stdout.splitlines()
        if "{" not in lines:
            return None, 0
        k = lines.index("{")
        try:
            return json.loads("\n".join(lines[k:])), k
        except ValueError:
            return None, k


class Unit:
    def __init__(self, inp, mode: str):
        self.inp = inp
        self.mode = mode
        self.times: List[Tuple[float, float]] = []  # (seconds, cost) per untraced pass
        self.traced: List[Tuple[float, float, list]] = []  # (seconds, cost, spans)
        self.stats: Optional[dict] = None
        self.rewritten: Optional[int] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    @property
    def name(self) -> str:
        return f"{self.inp.name}/{self.mode}"

    def cost(self) -> float:
        """Cost in reference seconds: the mean of the middle half of the
        untraced passes' costs."""
        return middle_half_mean(c for _, c in self.times)

    def median_traced(self) -> Tuple[float, float, list]:
        """The traced call of median cost (the lower one of an even count)."""
        ranked = sorted(self.traced, key=lambda c: c[1])
        return ranked[(len(ranked) - 1) // 2]

    def argv(self, show_rewrite: bool = False) -> List[str]:
        f = self.inp.files
        argv = ["validate", "--tbox", f["tbox"], "--abox", f["abox"],
                "--shapes", f["shacl"], "--targets", f["targets"],
                "--mode", self.mode, "--format", "json"]
        return argv + ["--show-rewrite"] if show_rewrite else argv


class Run:
    def __init__(self, cli, root: str, workload: str, seed: int):
        self.cli = cli
        self.root = root
        self.workdir = os.path.join(RESULTS_DIR, "inputs", f"{workload}-seed{seed}")
        os.makedirs(os.path.join(root, self.workdir), exist_ok=True)
        self.inputs = workloads.BUILDERS[workload](root, self.workdir, seed)
        self.targets = {}
        for inp in self.inputs:
            with open(os.path.join(root, inp.files["targets"]), encoding="utf-8") as fh:
                self.targets[inp.name] = set(workloads.read_targets(fh.read())[0])
        self.units = [Unit(inp, m) for inp in self.inputs for m in MODES if m in inp.modes]
        self.problems: List[str] = []  # run-level faults: they make `correct` false
        self.bad_model: Dict[str, str] = {}
        self.setup: List[Tuple[float, float]] = []  # (seconds, cost)
        self.host = HostClock()

    # -- checks ----------------------------------------------------------

    def prepare(self) -> None:
        """Untimed calls before the passes. ``--show-rewrite`` prints the
        rewriting C_T, whose size is `rewritten_constraints`. With
        ``check_model``, the direct route's model must satisfy every axiom
        and assertion by the benchmark's own checker."""
        for unit in self.units:
            if unit.mode == "rewrite":
                call = Call(self.cli, unit.argv(show_rewrite=True), self.host)
                report, printed = call.report()
                if report is None or call.rc not in (0, 1):
                    self.problems.append(f"{unit.name} --show-rewrite: exit code {call.rc}")
                unit.rewritten = printed
        for inp in self.inputs:
            if not inp.check_model:
                continue
            f = inp.files
            argv = ["build-model", "--tbox", f["tbox"], "--abox", f["abox"], "--emit"]
            call = Call(self.cli, argv, self.host)
            if call.rc != 0:
                self.bad_model[inp.name] = f"build-model exit code {call.rc}"
                continue
            with open(os.path.join(self.root, f["tbox"]), encoding="utf-8") as fh:
                tbox = fh.read()
            with open(os.path.join(self.root, f["abox"]), encoding="utf-8") as fh:
                abox = fh.read()
            why = check.violation(tbox, abox, call.stdout)
            if why is not None:
                self.bad_model[inp.name] = f"direct model: {why}"

    def verdict_error(self, unit: Unit, call: Call, report: Optional[dict],
                      reference: Optional[dict]) -> Optional[str]:
        if call.rc not in (0, 1):
            return f"exit code {call.rc}: {call.stderr.strip()[-300:]}"
        if report is None:
            return "no JSON report"
        verdicts = {(t["shape"], t["node"]): t["valid"] for t in report["targets"]}
        if set(verdicts) != self.targets[unit.inp.name]:
            return "reported targets differ from the requested ones"
        if (call.rc == 0) != all(verdicts.values()):
            return "exit code disagrees with the verdicts"
        expected = unit.inp.expected if unit.inp.expected is not None else reference
        if expected is None:
            return "no direct verdicts to compare with"
        wrong = sorted(k for k in expected if verdicts.get(k) != expected[k])
        if wrong:
            s, i = wrong[0]
            return f"{len(wrong)} wrong verdicts, first ${s}(@{i}): got {verdicts.get((s, i))}"
        if unit.mode == "direct" and unit.inp.name in self.bad_model:
            return self.bad_model[unit.inp.name]
        return None

    # -- passes ----------------------------------------------------------

    def one_pass(self, tracer=None) -> None:
        reference: Dict[str, Optional[dict]] = {}
        for unit in self.units:
            if tracer is not None:
                tracer.spans = []
                tracer.input, tracer.mode = unit.inp.name, unit.mode
            call = Call(self.cli, unit.argv(), self.host, tracer)
            report, _ = call.report()
            if unit.mode == "direct" and report is not None and call.rc in (0, 1):
                reference[unit.inp.name] = {
                    (t["shape"], t["node"]): t["valid"] for t in report["targets"]}
            error = self.verdict_error(unit, call, report, reference.get(unit.inp.name))
            unit.attempted += 1
            if error is not None:
                unit.failed += 1
                if len(unit.failures) < 3:
                    unit.failures.append(error)
                if unit.mode not in unit.inp.known_fault:
                    self.problems.append(f"{unit.name}: {error}")
            if report is not None:
                if unit.stats is None:
                    unit.stats = report["stats"]
                elif report["stats"] != unit.stats:
                    self.problems.append(f"{unit.name}: stats changed between passes")
            if tracer is None:
                unit.times.append((call.seconds, call.cost))
            else:
                unit.traced.append((call.seconds, call.cost, tracer.spans))

    def sample_setup(self, n: int) -> None:
        for _ in range(n):
            self.setup.append(self.host.timed(lambda: start_and_import(self.root), ticks=False))

    def measure(self, seconds: float, traced: bool) -> int:
        """Passes until the time is used up; returns how many were made."""
        tracer = spans.Tracer() if traced else None
        start = time.perf_counter()
        self.sample_setup(3)
        durations: List[float] = []
        while True:
            elapsed = time.perf_counter() - start
            if durations:
                ahead = elapsed + statistics.mean(durations)
                if ahead > HARD_LIMIT_S or (len(durations) >= MIN_PASSES and ahead > seconds):
                    break
            t0 = time.perf_counter()
            self.one_pass()
            if tracer is not None:
                tracer.install()
                try:
                    self.one_pass(tracer)
                finally:
                    tracer.uninstall()
            durations.append(time.perf_counter() - t0)
            self.sample_setup(2)
        return len(durations)

    # -- metrics ---------------------------------------------------------

    def mode_seconds(self, mode: str) -> float:
        return sum(u.cost() for u in self.units if u.mode == mode)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        m = {"setup_s": (middle_half_mean(c for _, c in self.setup), "s")}
        for mode in MODES:
            m[mode.replace("-", "_") + "_s"] = (self.mode_seconds(mode), "s")
        m["rewritten_constraints"] = (
            sum(u.rewritten or 0 for u in self.units if u.mode == "rewrite"), "count")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return m

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        """Self times, in reference seconds, and sizes of each unit's
        traced call of median cost, summed over the units."""
        times: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        traced = 0.0
        for unit in self.units:
            _, cost, call_spans = unit.median_traced()
            # call_spans[0] is cli.main; it also covers the host samples
            # taken during the call, so the self times are shares of the cost
            root = call_spans[0]
            scale = cost / (root.end - root.start)
            traced += cost
            for span, own in zip(call_spans, spans.self_times(call_spans)):
                if span.name == "cli.main":
                    key = "cli.other_s"
                elif span.name == "evaluate.validate":
                    key = f"evaluate.validate.{span.mode.replace('-', '_')}_s"
                else:
                    key = span.name + "_s"
                times[key] = times.get(key, 0.0) + own * scale
                counts[span.name + "_calls"] = counts.get(span.name + "_calls", 0) + 1
                layer = span.name.split(".")[0]
                for k, v in span.sizes.items():
                    counts[f"{layer}.{k}"] = counts.get(f"{layer}.{k}", 0) + v
        m: Dict[str, Tuple[float, str]] = {k: (v, "s") for k, v in sorted(times.items())}
        m.update({k: (v, "count") for k, v in sorted(counts.items())})
        inputs = counts.get("rewrite.inputs", 0)
        m["rewrite.growth"] = (counts.get("rewrite.emitted", 0) / inputs if inputs else 0.0, "ratio")
        untraced = sum(self.mode_seconds(mode) for mode in MODES)
        m["trace.traced_s"] = (traced, "s")
        m["trace.untraced_s"] = (untraced, "s")
        m["trace.overhead_s"] = (traced - untraced, "s")
        return m


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True, choices=("corpus", "abox", "paths"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = load_cli(root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    run = Run(cli, root, args.workload, args.seed)
    run.prepare()
    passes = run.measure(args.seconds, traced=bool(args.trace))

    e2e = run.end_to_end()
    layers = run.per_layer() if args.trace else {}
    shown = {**e2e, **layers}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    metrics = {k: {"value": shown[k][0], "unit": shown[k][1]} for k in wanted}

    per_mode: Dict[str, Dict[str, int]] = {}
    for u in run.units:
        pm = per_mode.setdefault(u.mode, {"attempted": 0, "failed": 0})
        pm["attempted"] += u.attempted
        pm["failed"] += u.failed
    attempted = sum(u.attempted for u in run.units)
    failed = sum(u.failed for u in run.units)
    result = {"correct": not run.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    readings = run.host.samples
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "python": sys.version.split()[0],
        "host_speed_s": {"reading": middle_half_mean(readings), "min": min(readings),
                         "median": statistics.median(readings), "samples": len(readings),
                         "reference": REF_LOOP_S},
        "setup_samples": run.setup, "host_samples": readings,
        "per_mode": per_mode, "problems": run.problems[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "units": [{"unit": u.name, "cost_s": u.cost(),
                   "min_s": min(t for t, _ in u.times),
                   "median_s": statistics.median(t for t, _ in u.times),
                   "times": u.times, "traced": [(t, c) for t, c, _ in u.traced],
                   "stats": u.stats, "attempted": u.attempted, "failed": u.failed,
                   "failures": u.failures, "known_fault": u.inp.known_fault.get(u.mode)}
                  for u in run.units],
        "result": result,
    }
    out_dir = os.path.join(root, RESULTS_DIR)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(out_dir, f"BENCH_{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if args.trace:
        traced = {u.name: [s.as_dict() for s in u.median_traced()[2]] for u in run.units}
        with open(os.path.join(out_dir, f"TRACE_{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(traced, fh)

    for mode, pm in per_mode.items():
        print(f"{mode}: attempted {pm['attempted']} failed {pm['failed']}")
    print(f"passes {passes}; host-speed reading {middle_half_mean(readings) * 1e3:.4f} ms "
          f"(middle-half mean of {len(readings)} loop samples, median "
          f"{statistics.median(readings) * 1e3:.4f} ms); result file {RESULTS_DIR}/BENCH_{stem}.json")
    for p in run.problems[:5]:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
