"""``bundle-charging loadgen`` — open-loop load generator.

Drives a live planning service (``bundle-charging serve``) with a
deterministic arrival schedule and a Zipf-skewed request mix, scores
latencies coordinated-omission-safely, prints a percentile table, and
optionally writes the full ``bundle-charging/loadgen/v1`` report as
JSON.  Exit status 1 when every request failed — a run that never got
an answer is a connectivity problem, not a measurement.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import constants
from .mix import build_pool, churn_mix, sample_indices
from .report import build_report, render_table, write_report
from .runner import establish_sessions, run_load, serialize_pool
from .schedule import SCHEDULE_KINDS, arrival_offsets

try:  # provenance is optional, like everywhere else
    from ..obs.manifest import build_manifest as _build_manifest
except ImportError:  # pragma: no cover - repro.obs stripped/blocked
    _build_manifest = None  # type: ignore[assignment]

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundle-charging loadgen",
        description="Open-loop load generator for the planning "
                    "service (coordinated-omission-safe latencies).")
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service base URL (default: %(default)s)")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="offered arrival rate in req/s "
                             "(default: %(default)s)")
    parser.add_argument("--duration-s", type=float, default=10.0,
                        help="run length (default: %(default)s)")
    parser.add_argument("--schedule", choices=SCHEDULE_KINDS,
                        default="constant",
                        help="arrival-rate shape (default: %(default)s)")
    parser.add_argument("--rate-end", type=float, default=None,
                        help="final rate for step/ramp schedules")
    parser.add_argument("--step-at-s", type=float, default=None,
                        help="step instant (step schedule; default: "
                             "midpoint)")
    parser.add_argument("--pool", type=int, default=8,
                        help="distinct requests in the mix "
                             "(default: %(default)s)")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf skew exponent; 0 = uniform "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="mix sampling seed (default: %(default)s)")
    parser.add_argument("--n", type=int, default=60,
                        help="sensors per requested deployment "
                             "(default: %(default)s)")
    parser.add_argument("--planner", default="BC",
                        help="planner every request asks for "
                             "(default: %(default)s)")
    parser.add_argument("--radius-m", type=float, default=20.0,
                        help="bundle radius of the requests "
                             "(default: %(default)s)")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="sender threads (default: %(default)s)")
    parser.add_argument("--timeout-s", type=float, default=30.0,
                        help="per-request HTTP timeout "
                             "(default: %(default)s)")
    parser.add_argument("--churn", type=float, default=0.0,
                        help="fraction of arrivals sent as "
                             "/v1/plan/delta repairs against "
                             "established sessions; every delta body "
                             "is precomputed before the clock starts "
                             "(default: %(default)s)")
    parser.add_argument("--out", default=None,
                        help="write the loadgen/v1 report JSON here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        offsets = arrival_offsets(args.schedule, args.rate,
                                  args.duration_s,
                                  rate_end=args.rate_end,
                                  step_at_s=args.step_at_s)
        pool = build_pool(args.pool, args.n, args.planner,
                          radius_m=args.radius_m)
        assignment = sample_indices(len(offsets), args.pool,
                                    args.zipf_s, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not offsets:
        print("error: schedule produced zero arrivals "
              "(rate * duration < 1)", file=sys.stderr)
        return 2

    if not 0.0 <= args.churn <= 1.0:
        print(f"error: --churn must be in [0, 1]: {args.churn!r}",
              file=sys.stderr)
        return 2

    plan_url = args.url.rstrip("/") + "/v1/plan"
    print(f"loadgen: {len(offsets)} requests over {args.duration_s}s "
          f"({args.schedule} @ {args.rate} req/s, pool={args.pool}, "
          f"zipf_s={args.zipf_s}, churn={args.churn}) -> {plan_url}")
    bodies = serialize_pool(pool)
    urls = kinds = None
    if args.churn > 0.0:
        # Untimed establishment phase: one plan per rank mints the
        # session handles every delta body targets; then the whole
        # delta pool is built before the schedule starts.
        handles = establish_sessions(plan_url, bodies,
                                     timeout_s=args.timeout_s)
        established = sum(1 for handle in handles
                          if handle is not None)
        print(f"churn: established {established}/{len(pool)} sessions")
        # build_pool's requests name no field, so they plan on the
        # default one.
        extra, assignment, kinds = churn_mix(
            assignment, handles, args.churn, args.seed + 1, args.n,
            field_side_m=constants.FIELD_SIDE_M)
        bodies = bodies + serialize_pool(extra)
        delta_url = args.url.rstrip("/") + "/v1/plan/delta"
        urls = [plan_url] * len(pool) + [delta_url] * len(extra)
    recorder, duration = run_load(plan_url, offsets,
                                  bodies, assignment,
                                  timeout_s=args.timeout_s,
                                  concurrency=args.concurrency,
                                  urls=urls, kinds=kinds)

    config = {
        "url": args.url, "schedule": args.schedule, "rate": args.rate,
        "rate_end": args.rate_end, "step_at_s": args.step_at_s,
        "duration_s": args.duration_s, "pool": args.pool,
        "zipf_s": args.zipf_s, "seed": args.seed, "n": args.n,
        "planner": args.planner, "radius_m": args.radius_m,
        "concurrency": args.concurrency, "timeout_s": args.timeout_s,
        "churn": args.churn,
    }
    offered = {"kind": args.schedule, "rate": args.rate,
               "rate_end": args.rate_end, "requests": len(offsets)}
    provenance = None
    if _build_manifest is not None:
        provenance = _build_manifest("loadgen", config, seeds=[args.seed],
                                     wall_time_s=duration)
    report = build_report(config, offered, duration,
                          recorder.summary(), provenance=provenance)
    print(render_table(report))
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    if recorder.count and recorder.errors >= recorder.count:
        print("error: every request failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
