"""Layered proof-replay benchmark for permbinom.

    python3 bench/run.py --workload {sweep,bigfield,elimination} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
``src/``; it installs nothing and starts no other process.  One run repeats
passes of one workload for ``--seconds`` seconds.  Every pass imports the
package afresh (so module-level caches start cold, as in a user's process),
builds its inputs from the seed, runs the timed phase and checks every
answer.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics ``setup_s`` and ``wall_s``,
the medians over the run's passes of the set-up and timed phases at
reference host speed, and ``peak_rss_mb`` (peak resident memory of this
process).  Hosts that share cores run for tens of seconds at a time up to
twice as slowly, which moved plain medians by more than 25% between runs;
so each phase is divided by the slowdown that a fixed calibration loop
measured beside it (see ``calibrate.py``).  The result file keeps every
pass's plain times and slowdowns.  ``--trace 1`` alternates an untraced
reference pass with a pass that records a span around every package call,
then runs probes, and reports the per-layer metrics of ``layers.json``
(medians over the traced passes, in plain seconds).
Each run also writes ``bench/results/<workload>-seed<N>-trace<T>.json`` with
the environment and every pass, and traced runs the spans as JSON lines.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from calibrate import Calibrator
from spans import END, LAYER, START, Tracer, dump, layer_stats, self_times
from workloads import GOLDEN, WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
MODULES = ("ffield", "hermite", "symalg", "classify", "cli")

# The ffield and s_q probes run on the bigfield fields, one per arithmetic shape.
SHAPES = dict(zip(("p2", "odd_prime", "odd_prime_power"), WORKLOADS["bigfield"].fields()))
N_OPS = 20_000
N_S_Q = 200
PROBE_REPEATS = 3


def import_package() -> SimpleNamespace:
    """Import permbinom afresh, dropping any earlier copy of its modules."""
    for name in [m for m in sys.modules if m == "permbinom" or m.startswith("permbinom.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"permbinom.{m}") for m in MODULES})


def one_pass(workload, seed, tr, traced, checks, golden, cal=None) -> tuple:
    """Set-up and timed phase of one pass; the answers are checked afterwards.

    ``cal`` times both phases; without one they read in plain seconds.
    """
    cal = cal or Calibrator()
    gc.collect()
    cpu0 = time.process_time()
    with cal.phase() as setup, tr.span("setup"):
        pkg = import_package()
        state = workload.setup(pkg, seed, tr)
    with cal.phase() as timed, tr.span("timed"):
        out = (workload.traced_run if traced else workload.run)(pkg, state, tr)
    record = {
        "setup_s": setup["s"],
        "wall_s": timed["s"],
        "cpu_s": time.process_time() - cpu0,
        "setup_raw_s": setup["raw_s"],
        "wall_raw_s": timed["raw_s"],
        "setup_slowdown": setup["slowdown"],
        "wall_slowdown": timed["slowdown"],
    }
    (workload.check_traced if traced else workload.check)(out, checks, golden)
    return record, out


def timed_phase_accounting(spans, checks) -> tuple:
    """Duration and self time of the traced timed phase; checks that the
    self times of every span inside it add up to its duration."""
    root = next(i for i, s in enumerate(spans) if s[LAYER] == "timed")
    selfs = self_times(spans)
    duration = spans[root][END] - spans[root][START]
    inside = sum(selfs[root:])  # spans are appended in start order
    checks.expect(abs(inside - duration) <= 1e-9 + 1e-9 * duration,
                  f"trace: self times sum to {inside}, timed phase took {duration}")
    return duration, selfs[root]


def seconds_of(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def probe(workload, seed) -> dict:
    """Layer figures that no workload call isolates: the modulus search and
    peak allocation of each field build, and per-call costs of field
    arithmetic and S_q on seeded batches."""
    fields = workload.fields()
    if not fields:
        return {}
    pkg = import_package()
    ffield, s_q = pkg.ffield, pkg.hermite.s_q
    out = {"ffield.canonical_modulus.s": 0.0, "ffield.make_field.peak_kb": 0.0}
    ctxs = {}
    for p, e in dict.fromkeys(fields):
        out["ffield.canonical_modulus.s"] += statistics.median(
            seconds_of(ffield.canonical_modulus, p, 2 * e) for _ in range(PROBE_REPEATS))
        tracemalloc.start()
        try:
            ctxs[p, e] = ffield.make_field(p, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["ffield.make_field.peak_kb"] = max(out["ffield.make_field.peak_kb"], peak / 1024)
    rng = random.Random(seed)
    s_q_seconds = 0.0
    for shape, (p, e) in SHAPES.items():
        ctx = ctxs.get((p, e)) or ffield.make_field(p, e)
        operands = [(rng.randrange(ctx.q2), rng.randrange(ctx.q2)) for _ in range(N_OPS)]
        for op in ("add", "mul", "pow"):
            fn = getattr(ctx, op)

            def batch():
                for a, b in operands:
                    fn(a, b)

            out[f"ffield.{op}.ns.{shape}"] = statistics.median(
                seconds_of(batch) for _ in range(PROBE_REPEATS)) / N_OPS * 1e9
        pairs = [(rng.randrange(1, ctx.q2), rng.randrange(ctx.q)) for _ in range(N_S_Q)]
        s_q_seconds += seconds_of(lambda: [s_q(ctx, a, alpha) for a, alpha in pairs])
    out["hermite.s_q.us"] = s_q_seconds / (N_S_Q * len(SHAPES)) * 1e6
    return out


def per_layer(workload, iterations, probes, checks) -> dict:
    """Medians over the traced passes, plus the probes; a layer the workload
    bypasses reads 0.  Counts must repeat exactly across passes."""
    metrics = dict(probes)
    for key in iterations[0]:
        metrics[key] = statistics.median(it[key] for it in iterations)
    if "ffield.make_field.s" in metrics and "ffield.canonical_modulus.s" in metrics:
        metrics["ffield.make_field.tables_s"] = (
            metrics["ffield.make_field.s"] - metrics["ffield.canonical_modulus.s"])
    for spec in LAYERS:
        if spec["unit"] == "count" and spec["name"] in iterations[0]:
            values = {it[spec["name"]] for it in iterations}
            checks.expect(len(values) == 1, f"trace: {spec['name']} differs across passes: {values}")
    metrics["failed_frac"] = checks.failed / checks.attempted
    out = {}
    for spec in LAYERS:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif workload.name in spec["on"]:
            raise KeyError(f"layer metric {name} was not measured on {workload.name}")
        else:
            value = 0.0
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def traced_iteration(workload, seed, checks, golden) -> tuple:
    """An untraced reference pass, then a traced pass; returns both records,
    the traced pass's per-layer figures and its spans."""
    ref_tr = Tracer(enabled=workload.trace_reference)
    ref, _ = one_pass(workload, seed, ref_tr, False, checks, golden)
    tr = Tracer(enabled=True)
    record, out = one_pass(workload, seed, tr, True, checks, golden)
    wall, unattributed = timed_phase_accounting(tr.spans, checks)
    it = layer_stats(tr.spans)
    it.update(workload.counts(out))
    it["trace.wall_s"] = wall
    it["trace.unattributed_s"] = unattributed
    it["trace.overhead_s"] = wall - ref["wall_s"]
    if workload.trace_reference:
        ref_stats = layer_stats(ref_tr.spans)
        it["classify.sweep.s"] = ref_stats["classify.sweep.s"]
        it["cli.overhead_s"] = ref_stats["cli.run.s"]
        it["classify.sweep.unattributed_s"] = unattributed
    return ref, record, it, tr.spans


def measure(workload, seed: int, seconds: float, trace: bool, golden=GOLDEN) -> dict:
    """One benchmark run; returns the full record (result line and details)."""
    checks = Checks()
    passes, iterations, spans = [], [], []
    cal = Calibrator(None if trace else workload.calibration)
    cal.sample()  # warm-up: the loop's first run fills its caches
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if not trace:
                record, _ = one_pass(workload, seed, Tracer(tick=cal.tick), False, checks,
                                     golden, cal)
                passes.append(record)
            else:
                ref, record, it, pass_spans = traced_iteration(workload, seed, checks, golden)
                passes += [dict(ref, kind="reference"), dict(record, kind="traced")]
                iterations.append(it)
                spans.append(pass_spans)
            if time.perf_counter() >= deadline:
                break
    except Exception as exc:  # a raising pass is a failed check, not a crash
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"{workload.name}: {type(exc).__name__}: {exc}")

    metrics = {}
    if passes and not trace:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in passes), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    elif iterations:
        metrics = per_layer(workload, iterations, probe(workload, seed), checks)
    return {
        "result": {
            "correct": checks.failed == 0 and bool(metrics),
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed,
            "metrics": metrics,
        },
        "failures": checks.failures[:50],
        "passes": passes,
        "spans": spans,
    }


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permbinom" / "__init__.py").is_file():
        print(f"error: no permbinom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        first = import_package()  # also compiles the bytecode before any pass
    except ImportError as exc:
        print(f"error: cannot import permbinom: {exc}", file=sys.stderr)
        return 2
    if not Path(first.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: permbinom was imported from {first.cli.__file__}", file=sys.stderr)
        return 2
    del first

    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **run["result"],
        "failures": run["failures"],
        "passes": run["passes"],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans_path = stem.with_suffix(".spans.jsonl")
        spans_path.unlink(missing_ok=True)
        for i, pass_spans in enumerate(run["spans"]):
            dump(pass_spans, spans_path, workload=args.workload, seed=args.seed, traced_pass=i)
    for failure in run["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
