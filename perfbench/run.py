#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload plan_paper --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric, timed from outside around calls into each layer.  The
last line of standard output is the result object; the line before it
is the run record (machine diagnostics, never used to scale a metric).
Any failed output check makes the exit code 1.  ``BENCHMARK.json``
lists plan_paper and serve_churn; plan_large is run by hand (see the
README).

    python3 perfbench/run.py --workload serve_churn --repeat 5 --seed 1

runs one workload on seeds 1..5 and prints each metric's median,
quartiles and spread (see ``steadiness.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

PLAN_WORKLOADS = ("plan_paper", "plan_large")
WORKLOADS = PLAN_WORKLOADS + ("serve_churn",)
#: Fresh processes whose set-up time is measured; setup_s is the median.
SETUP_PROBES = 3
_CALIBRATION_LOOPS = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def load_spec() -> Dict[str, Any]:
    with open(SPEC) as handle:
        return json.load(handle)


def calibration_s() -> float:
    """Time of a fixed pure-Python loop (a machine-speed diagnostic)."""
    started = perf_counter()
    total = 0
    for i in range(_CALIBRATION_LOOPS):
        total += i * i
    return perf_counter() - started


def git_sha() -> Optional[str]:
    """HEAD of the checkout's git directory, when it has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed request."""
    started = perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = perf_counter() - started
    child.stdout.close()
    if child.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    if workload == "serve_churn":
        import serve as module
        result = module.run(ROOT, seed, seconds, trace)
    else:
        import plans as module
        setups = [] if trace else [probe_setup(workload, seed)
                                   for _ in range(SETUP_PROBES)]
        module.setup(workload, seed)
        result = module.run(workload, seed, seconds, trace)
        if not trace:
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["notes"]["setup_samples_s"] = setups
    if trace and not result["failures"] and set(result["metrics"]) != set(
            module.LAYERS):
        raise RuntimeError(f"{workload} measured {sorted(result['metrics'])}"
                           f", expected {sorted(module.LAYERS)}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is missing: no package at "
              f"{os.path.relpath(os.path.join(SRC, 'repro'), ROOT)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None
               else float(spec["run_seconds"]))

    if args.setup_probe:
        import plans
        plans.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.repeat:
        import steadiness
        return steadiness.report(spec, args.workload, args.seed,
                                 args.repeat, seconds, args.trace)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
        "calibration_s": calibration_s(),
    }
    result = measure(args.workload, args.seed, seconds, bool(args.trace))
    record["loadavg_after"] = os.getloadavg()
    record.update(result["notes"])

    attempted, failed = result["attempted"], result["failed"]
    measured = result["metrics"]
    if not args.trace and measured:
        measured["success_ratio"] = (attempted - failed) / attempted
    names = [entry["name"] for entry in declared]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: "
                           f"{unknown}")
    correct = failed == 0 and not result["failures"]
    if correct and not args.trace and set(measured) != set(names):
        raise RuntimeError(f"end-to-end metrics missing: "
                           f"{sorted(set(names) - set(measured))}")
    # A per-layer metric of a layer this workload does not run is 0.
    metrics = {entry["name"]: {"value": measured.get(entry["name"], 0.0),
                               "unit": entry["unit"]}
               for entry in declared if entry["name"] in measured
               or args.trace}

    for failure in result["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
