"""One workload in one single-threaded process.

Sets up (imports, seeded inputs, towers and rings), then runs whole rounds
of the workload's jobs back to back until ``--seconds`` have passed, and
prints one JSON object as its last line.  ``run.py`` starts this script and
turns that object into the benchmark's metrics.

The ``setup_done`` timestamp is read from CLOCK_MONOTONIC, which every
process on the machine shares, so the parent can subtract the moment it
started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import frobjet  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rounds(jobs: list, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat the round until ``seconds`` have passed; never stop mid-round."""
    clock = time.perf_counter
    durations, problems = [], []
    failed = check_failed = rounds = 0
    start = clock()
    deadline = start + seconds
    while True:
        for job in jobs:
            span = (tracer.span(f"job.{job.kind}") if tracer
                    else contextlib.nullcontext())
            t0 = clock()
            try:
                with span:
                    bad = job.run()
            except Exception as exc:
                # a job that raises is a failed job; the run goes on
                failed += 1
                problems.append(f"{job.kind}:{job.label}: "
                                + traceback.format_exception_only(exc)[-1]
                                .strip())
            else:
                if bad:
                    failed += 1
                    check_failed += 1
                    problems.append(f"{job.kind}:{job.label}: checks {bad}")
            durations.append(clock() - t0)
        rounds += 1
        if clock() >= deadline:
            break
    wall = clock() - start
    return {"rounds": rounds, "attempted": len(durations), "failed": failed,
            "check_failed": check_failed, "wall_s": wall,
            "job_p50_s": statistics.median(durations),
            "problems": problems[:5]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out", default=None,
                    help="trace the layers and write the spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report when it ended")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(frobjet.__file__).resolve().parents:
        print(f"error: frobjet was imported from {frobjet.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        jobs = workloads.prepare(args.workload, args.seed)
    setup_done = monotonic()
    result = {"workload": args.workload, "seed": args.seed,
              "setup_done": setup_done}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    setup_snap = tracer.snapshot() if tracer else None
    result.update(run_rounds(jobs, args.seconds, tracer))
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["per_layer"] = tracer.layer_metrics(
            setup_snap, tracer.snapshot(), result["rounds"])
        tracer.remove()
        tracer.dump(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "rounds": result["rounds"], "wall_s": result["wall_s"],
            "jobs": workloads.describe(jobs)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
