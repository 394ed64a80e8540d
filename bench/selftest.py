"""Self-test of the benchmark itself.

    python3 bench/selftest.py

- Runs every workload at the reduced sizes of ``workloads.SMOKE``, untraced
  on two seeds and traced on one, and requires every check to pass and
  every per-layer metric the workload measures to be reported.
- Corrupts one golden value per workload and requires the run to be
  reported as failed, with a nonzero ``failed_frac``.
- Requires ``BENCHMARK.json`` to name the workloads and the metrics that
  ``run.py`` reports, with the same units.
- Runs ``run.py`` in a copy that holds only ``BENCHMARK.json`` and the
  benchmark's directory and requires it to fail without printing a result.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
from workloads import GOLDEN, SMOKE, WORKLOADS


def corrupted(golden: dict, workload: str) -> dict:
    bad = copy.deepcopy(golden)
    if workload == "sweep":
        bad["sweep"]["pp_counts"]["5"] += 1
    elif workload == "bigfield":
        bad["bigfield"]["class_sizes"]["2^5"] += 1
    else:
        bad["elimination"]["pipeline"]["factorization"]["2"] += 1
    return bad


def smoke(problems: list) -> None:
    for name, workload in SMOKE.items():
        for seed, trace in ((1, False), (2, False), (1, True)):
            out = run.measure(workload, seed, 0, trace)
            if not out["result"]["correct"] or out["result"]["failed"]:
                problems.append(f"{name} seed={seed} trace={trace}: {out['failures'][:3]}")
        layer_metrics = out["result"]["metrics"]  # from the traced run
        for spec in run.LAYERS:
            value = layer_metrics[spec["name"]]["value"]
            if name in spec["on"] and not value and spec["name"] != "failed_frac":
                problems.append(f"{name}: per-layer {spec['name']} reads 0")
        bad = run.measure(workload, 1, 0, True, golden=corrupted(GOLDEN, name))["result"]
        if bad["correct"] or not bad["metrics"]["failed_frac"]["value"] > 0:
            problems.append(f"{name}: corrupted golden value was not counted as a failure")


def contract(problems: list) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != {
        "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    want = [{k: s[k] for k in ("name", "unit", "better")} for s in run.LAYERS]
    if bench["per_layer"] != want:
        problems.append("BENCHMARK.json per_layer differs from layers.json")


def bare_copy_fails(problems: list) -> None:
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"run.py without sources exited {proc.returncode} with {proc.stdout!r}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems: list = []
    contract(problems)
    smoke(problems)
    bare_copy_fails(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
