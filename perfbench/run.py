"""Seeded benchmark of ``mixedqt decide`` over three instance ladders.

Usage, from the repository root::

    python3 perfbench/run.py --workload planted-squares --seed 1 --seconds 30 --trace 0

One process, one client, one call at a time (a closed loop).  Each call is
``mixedqt.cli.run(["decide", FILE, "--node-limit", N, ...])`` in-process on a
file written during set-up, with its exit code and any witness checked
against an oracle label.  Passes over the ladder repeat while another pass
still fits in ``--seconds``; an untraced run makes at least two passes.

Other work on a shared machine slows every computation in the process for
stretches of milliseconds to tens of seconds.  So each call's wall time is
scaled by the machine's speed while it ran: the time a fixed pure-Python
computation (:func:`reference`) takes before, during and after the call,
against :data:`REFERENCE_S` (see :class:`SpeedClock`).  The end-to-end
times are these scaled times, each rung at its fastest pass; the report
lines also give the raw wall times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that run the same calls under spans, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last line
of standard output is one JSON object; the lines before it list every rung
with its outcome.  The exit code is 0 when every verdict and witness checked
out, 1 when one did not, and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10   # before the first pass; one more set-up precedes every later pass
MIN_PASSES = 2       # untraced passes per run: each rung's latency is its best of these
REFERENCE_S = 0.9e-3  # about reference() on an idle core of a 2-core 2.1 GHz Xeon
PROBE_INTERVAL = 0.1  # seconds between reference() samples taken during a call

END_TO_END = {
    "setup_s": "s",
    "decide_total_s": "s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Spans of a traced call.  ``cli.dispatch`` wraps the ``decide`` command, so
# its self time is what the command does outside parsing, the decider and
# serialisation: reading the file, the ``auto`` dispatch and writing the
# witness.  The others wrap public library functions (see trace_targets).
TIMED_SPANS = (
    "formats.parse", "formats.serialize", "cli.dispatch",
    "structure.decide_deg3", "structure.orient_deg3", "structure.decide_girth4",
    "solver.decide_qt", "solver.verify_witness",
    "reduction.build_reduction", "reduction.extract",
)
LAYERS = ("cli", "formats", "structure", "solver", "reduction")
# The decider span directly under ``cli.dispatch`` names the method chosen.
DISPATCH = {
    "structure.decide_deg3": "deg3",
    "structure.orient_deg3": "deg3",
    "structure.decide_girth4": "girth4",
    "solver.decide_qt": "exact",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in TIMED_SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    for method in ("exact", "deg3", "girth4"):
        units[f"cli.dispatch.{method}"] = "count"
    units["structure.removed_vertices"] = "count"
    units["solver.budget_exceeded"] = "count"
    units["solver.recursion_errors"] = "count"
    for layer in LAYERS:
        units[f"layer.{layer}_self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# A fixed graph for reference(): vertex v points to 7v+1, 7v+2 and 7v+3 modulo 500.
_REFERENCE_ADJ = [frozenset((v * 7 + k) % 500 for k in range(1, 4)) for v in range(500)]


def reference() -> float:
    """Seconds taken by a fixed computation that does the solver's kind of
    work (set algebra, list indexing, a graph search) without calling it."""
    adj = _REFERENCE_ADJ
    t0 = perf_counter()
    for _ in range(3):
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in adj[v] - seen:
                seen.add(w)
                stack.append(w)
                len(adj[w] & adj[v])
    return perf_counter() - t0


class SpeedClock:
    """Times work and scales it to the reference machine's speed.

    reference() is timed before and after the work and, from a SIGALRM
    handler, every PROBE_INTERVAL seconds during it, so a long call is
    scaled by the speed over its whole length.  The time the samples taken
    during the work cost is taken off its wall time.
    """

    def __init__(self) -> None:
        self.last = reference()

    def time(self, work):
        """Return ``(work(), wall seconds, scaled seconds)``."""
        samples, spent = [self.last], 0.0

        def sample(signum, frame):
            nonlocal spent
            t0 = perf_counter()
            try:
                samples.append(reference())
            except RecursionError:   # the work is at the recursion limit: skip
                pass
            spent += perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0 - spent
            signal.signal(signal.SIGALRM, previous)
        self.last = reference()
        samples.append(self.last)
        return result, wall, wall * REFERENCE_S / statistics.fmean(samples)


@dataclass
class Call:
    rung: int
    outcome: str        # yes, no, budget, exit<code>, or error:<exception type>
    seconds: float      # wall time
    scaled: float       # wall time at the reference machine's speed
    wrong: str | None   # why the result is wrong, None when it checked out

    @property
    def failed(self) -> bool:
        return self.outcome not in ("yes", "no") or self.wrong is not None


def exit_outcome(code: int) -> str:
    return {0: "yes", 1: "no", 3: "budget"}.get(code, f"exit{code}")


def decide_argv(rung, path: Path, wpath: Path) -> list[str]:
    argv = ["decide", str(path), "--node-limit", str(rung.node_limit)]
    if rung.witness:
        argv += ["--witness", str(wpath)]
    return argv


def call_cli(argv: list[str]) -> str:
    from mixedqt import cli

    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return exit_outcome(cli.run(argv))
    except Exception as exc:  # a crash is a recorded outcome, never a lost rung
        return f"error:{type(exc).__name__}"


def check(rung, outcome: str, wpath: Path) -> str | None:
    """Why the call's result is wrong, or None.  Calls without a verdict
    are failures but not wrong answers."""
    from mixedqt import formats, reduction, solver

    if outcome not in ("yes", "no"):
        return None
    answer = outcome == "yes"
    if rung.expect is not None and answer != rung.expect:
        return f"verdict {outcome.upper()} but the oracle says {'YES' if rung.expect else 'NO'}"
    if not (answer and rung.witness):
        return None
    if not wpath.is_file():
        return "YES without a witness file"
    try:
        mixed = formats.parse_mixed(wpath.read_text())
        verdict = solver.verify_witness(rung.graph, mixed)
        if not verdict.ok:
            return "witness rejected: " + "; ".join(verdict.problems[:3])
        if rung.nae is not None:
            cnf, rmap = rung.nae
            assignment = reduction.witness_to_assignment(rmap, mixed)
            if not reduction.is_nae_satisfying(cnf, assignment):
                return "extracted assignment is not NAE-satisfying"
    except Exception as exc:
        return f"witness check raised {type(exc).__name__}: {exc}"
    return None


def run_pass(rungs, workdir: Path, clock: SpeedClock, tracer=None) -> list[Call]:
    """One pass over the ladder, one call per rung, every result checked.
    Untraced calls are timed by ``clock``.  With a tracer, each call runs
    under a ``cli.run`` span and each check under a ``bench.check`` span,
    and only the spans time them."""
    import ladders

    calls = []
    for i, rung in enumerate(rungs):
        path = ladders.graph_file(workdir, i)
        wpath = path.with_suffix(".mixed")
        wpath.unlink(missing_ok=True)
        argv = decide_argv(rung, path, wpath)
        gc.collect()
        if tracer is None:
            outcome, seconds, scaled = clock.time(lambda: call_cli(argv))
            wrong = check(rung, outcome, wpath)
        else:
            tracer.instance = rung.id
            t0 = perf_counter()
            with tracer.span("cli.run"):
                outcome = call_cli(argv)
            seconds = scaled = perf_counter() - t0
            with tracer.span("bench.check"):
                wrong = check(rung, outcome, wpath)
        calls.append(Call(i, outcome, seconds, scaled, wrong))
    return calls


def trace_targets(tracer):
    from mixedqt import formats, reduction, solver, structure

    def count_removed(result):
        tracer.counts["structure.removed_vertices"] += len(result[1].steps)

    return [
        (formats.parse_graph, "formats.parse", None),
        (formats.serialize_mixed, "formats.serialize", None),
        (structure.decide_deg3, "structure.decide_deg3", None),
        (structure.orient_deg3, "structure.orient_deg3", None),
        (structure.decide_girth4, "structure.decide_girth4", None),
        (structure.reduce_removable, None, count_removed),
        (solver.decide_qt, "solver.decide_qt", None),
        (solver.verify_witness, "solver.verify_witness", None),
        (reduction.build_reduction, "reduction.build_reduction", None),
        (reduction.witness_to_assignment, "reduction.extract", None),
    ]


@contextmanager
def traced_program(tracer):
    """The library functions of :func:`trace_targets` and the ``decide``
    command itself under spans; everything is restored on exit."""
    import tracing
    from mixedqt import cli

    command = cli._COMMANDS["decide"]
    cli._COMMANDS["decide"] = tracer.wrap(command, "cli.dispatch")
    try:
        with tracing.patched(tracer, trace_targets(tracer)):
            yield
    finally:
        cli._COMMANDS["decide"] = command


def setup(workload: str, seed: int, keep=None):
    """The ladder's rungs and their graph files' texts."""
    import ladders

    rungs = ladders.LADDERS[workload](seed)
    if keep is not None:
        rungs = [r for r in rungs if keep(r)]
    return rungs, ladders.graph_texts(rungs)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, keep=None) -> dict:
    """Set up, run passes for ``seconds`` and return the result, the outcome
    of each rung in the first pass, and the report lines.  ``keep``, when
    given, selects the rungs to run (the tests use it for a small subset)."""
    import ladders
    import tracing

    setup_times = []
    tracer = tracing.Tracer() if trace else None
    clock = SpeedClock()

    def timed_setup():
        gc.unfreeze()
        gc.collect()
        if trace:
            targets = [t for t in trace_targets(tracer) if t[1] == "reduction.build_reduction"]
            with tracing.patched(tracer, targets), tracer.span("bench.setup"):
                rungs, texts = setup(workload, seed, keep)
        else:
            (rungs, texts), _wall, scaled = clock.time(lambda: setup(workload, seed, keep))
            setup_times.append(scaled)
        # Writing the files is left out of setup_s: on a shared file system the
        # same 90 KB take anywhere from 3 to 30 ms, whatever the program does.
        shutil.rmtree(workdir, ignore_errors=True)
        ladders.write_files(texts, workdir)
        # Park set-up's objects outside the collector, so the collections
        # before and inside each call only walk what that call allocates.
        gc.collect()
        gc.freeze()
        return rungs

    for _ in range(1 if trace else SETUP_REPEATS):
        rungs = timed_setup()

    untraced: list[list[Call]] = []
    traced: list[list[Call]] = []
    traced_from = len(tracer.spans) if trace else 0
    counts_before = tracer.counts.copy() if trace else None
    deadline = perf_counter() + seconds
    while True:
        if untraced and not trace:
            rungs = timed_setup()   # spread set-up samples over the run
        t0 = perf_counter()
        untraced.append(run_pass(rungs, workdir, clock))
        if trace:
            with traced_program(tracer):
                traced.append(run_pass(rungs, workdir, clock, tracer))
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and perf_counter() + (perf_counter() - t0) > deadline:
            break

    calls = [c for p in untraced + traced for c in p]
    wrong = [c for c in calls if c.wrong is not None]
    outcomes: dict[int, set[str]] = {}
    for c in calls:
        outcomes.setdefault(c.rung, set()).add(c.outcome)
    changed = [i for i, seen in outcomes.items() if len(seen) > 1]

    report = [f"workload {workload} seed {seed} rungs {len(rungs)} "
              f"instances-sha256 {ladders.instance_hash(rungs)}",
              f"python {platform.python_version()} nproc {os.cpu_count()} threads 1 "
              f"untraced-passes {len(untraced)} traced-passes {len(traced)} "
              f"calls {len(calls)} setups {len(setup_times)}"]
    for c in untraced[0]:
        note = f" WRONG: {c.wrong}" if c.wrong else ""
        report.append(f"rung {rungs[c.rung].id} {c.outcome} {c.seconds * 1e3:.1f}ms "
                      f"scaled {c.scaled * 1e3:.1f}ms{note}")
    for i in changed:
        report.append(f"outcome of {rungs[i].id} changed between calls: "
                      f"{' '.join(sorted(outcomes[i]))}")

    if trace:
        metrics = layer_metrics(tracer, traced_from, counts_before, untraced, traced)
        tracer.write(HERE / "out" / f"spans-{workload}-seed{seed}.jsonl")
        units = per_layer_units()
    else:
        flat = [c for p in untraced for c in p]
        best_ms = [min(p[i].scaled for p in untraced) * 1e3 for i in range(len(rungs))]
        deciles = statistics.quantiles(best_ms, n=10, method="inclusive")
        wall_ms = [min(p[i].seconds for p in untraced) * 1e3 for i in range(len(rungs))]
        wall = statistics.quantiles(wall_ms, n=10, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "decide_total_s": sum(best_ms) / 1e3,
            "decide_p50_ms": deciles[4],
            "decide_p90_ms": deciles[8],
            "fail_ratio": sum(c.failed for c in flat) / len(flat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        report.append(f"latency samples {len(best_ms)} (fastest of {len(untraced)} "
                      f"calls per rung); unscaled wall time: total {sum(wall_ms) / 1e3:.3f}s "
                      f"p50 {wall[4]:.3f}ms p90 {wall[8]:.3f}ms")
        report.append(f"wrong_answers {len(wrong)}")
    return {
        "report": report,
        "outcomes": [(rungs[c.rung].id, c.outcome) for c in untraced[0]],
        "result": {
            "correct": not wrong and not changed,
            "attempted": len(calls),
            "failed": len(wrong),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def layer_metrics(tracer, first: int, counts_before, untraced, traced) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one traced pass of the ladder:
    set-up spans (only ``build_reduction`` is traced there) count once,
    pass spans are divided by the number of traced passes."""
    npass = len(traced)
    spans = tracer.spans
    setup_s, setup_calls = tracer.self_times(0, first)
    pass_s, pass_calls = tracer.self_times(first, len(spans))

    def per_run(setup_part: float, pass_part: float) -> float:
        return setup_part + pass_part / npass

    self_s = {k: per_run(setup_s.get(k, 0.0), pass_s.get(k, 0.0))
              for k in set(setup_s) | set(pass_s)}
    errors = [s[5] for s in spans[first:] if s[0] == "solver.decide_qt"]
    methods = [DISPATCH[s[0]] for s in spans[first:]
               if s[3] >= 0 and spans[s[3]][0] == "cli.dispatch" and s[0] in DISPATCH]
    metrics: dict[str, float] = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
        metrics[f"{name}_calls"] = per_run(setup_calls[name], pass_calls[name])
    for method in ("exact", "deg3", "girth4"):
        metrics[f"cli.dispatch.{method}"] = methods.count(method) / npass
    key = "structure.removed_vertices"
    metrics[key] = (tracer.counts[key] - counts_before[key]) / npass
    metrics["solver.budget_exceeded"] = errors.count("BudgetExceeded") / npass
    metrics["solver.recursion_errors"] = errors.count("RecursionError") / npass
    for layer in LAYERS:
        metrics[f"layer.{layer}_self_s"] = sum(
            (v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0)
    traced_total = statistics.median(sum(c.seconds for c in p) for p in traced)
    untraced_total = statistics.median(sum(c.seconds for c in p) for p in untraced)
    metrics["trace.overhead_s"] = traced_total - untraced_total
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("planted-squares", "nae-reductions", "poly-classes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import mixedqt from it."""
    if not (SRC / "mixedqt" / "__init__.py").is_file():
        print(f"perfbench: no mixedqt sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import mixedqt

    if Path(mixedqt.__file__).resolve().parent != SRC / "mixedqt":
        print(f"perfbench: imported mixedqt from {mixedqt.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
