"""Steadiness report: one workload run k times, one seed per run.

For every metric it prints the median, the quartiles and the spread
(inter-quartile range over the median) of the k values, next to the
metric's bound in ``BENCHMARK.json``.  A benchmark is steady enough when
every end-to-end spread except ``setup_s`` is below a third of its
bound.  The last line is the same report as one JSON object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List

from stats import spread

_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int
             ) -> Dict[str, Any]:
    """Run the benchmark in a fresh process; return its result object."""
    completed = subprocess.run(
        [sys.executable, _RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed ({completed.returncode}): "
                           f"{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def report(spec: Dict[str, Any], workload: str, first_seed: int,
           repeat: int, seconds: float, trace: int) -> int:
    declared = spec["per_layer" if trace else "end_to_end"]
    bounds = {entry["name"]: entry.get("bound") for entry in declared}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    success = True
    for seed in range(first_seed, first_seed + repeat):
        result = run_once(workload, seed, seconds, trace)
        success = success and result["correct"] and not result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={value[-1]:.6g}" for name, value in values.items()),
            flush=True)
    summary: Dict[str, Any] = {"workload": workload, "runs": repeat,
                               "correct": success, "metrics": {}}
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        row = spread(series)
        row["bound"] = bounds[name]
        summary["metrics"][name] = row
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{name:32s} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.4f} {bound:>6s}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if success else 1
