"""frobjet benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload frobenius-catalog --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in its own single-threaded worker process (worker.py),
as a closed loop with one caller: whole rounds of jobs back to back for
``--seconds``.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics jobs_per_s, job_p50_s, setup_s and
peak_rss_mib; with ``--trace 1`` the worker wraps frobjet's layers
(spans.py) and the metrics are the per-layer ones, for one set-up plus one
round, and the spans go to perfbench/out/.

setup_s is the time from starting a worker process to its first timed job,
taken as the median over the main worker and SETUP_PROBES workers that stop
after set-up.

``--workload all`` runs the three workloads one after another and prints
every figure; with ``--trace 1`` it adds a traced run of each and states
the tracing overhead.  The exit status is 0 whenever a result was printed,
2 when the benchmark cannot run (no frobjet sources beside it, bad
arguments, a worker that crashed or hung).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("frobenius-catalog", "log-congruence", "ramified-characters")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    """Run worker.py to completion; returns its JSON and the setup time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    started = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def untraced(workload: str, seed: int, seconds: float) -> dict:
    main = spawn(workload, seed, seconds)
    setups = [main["setup_s"]] + [
        spawn(workload, seed, seconds, "--setup-only")["setup_s"]
        for _ in range(SETUP_PROBES)]
    metrics = {
        "jobs_per_s": {"value": (main["attempted"] - main["failed"])
                       / main["wall_s"], "unit": "jobs/s"},
        "job_p50_s": {"value": main["job_p50_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": main["peak_rss_kib"] / 1024,
                         "unit": "MiB"},
    }
    return dict(main, metrics=metrics)


def traced(workload: str, seed: int, seconds: float) -> dict:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    result = spawn(workload, seed, seconds, "--trace-out", str(path))
    return dict(result, metrics=result["per_layer"], trace_file=str(path))


def summary(result: dict) -> dict:
    return {"correct": result["check_failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}


def headline(label: str, result: dict) -> str:
    lines = [f"{label}: {result['rounds']} rounds, {result['attempted']} "
             f"jobs attempted, {result['failed']} failed, "
             f"{result['wall_s']:.2f} s timed"]
    lines += [f"  problem: {p}" for p in result["problems"]]
    return "\n".join(lines)


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    report = {}
    for workload in WORKLOADS:
        plain = untraced(workload, seed, seconds)
        print(headline(workload, plain))
        for name, m in plain["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        entry = {"untraced": summary(plain)}
        if trace:
            tr = traced(workload, seed, seconds)
            round_plain = plain["wall_s"] / plain["rounds"]
            round_traced = tr["wall_s"] / tr["rounds"]
            overhead = round_traced / round_plain - 1
            print(headline(f"{workload} traced", tr))
            print(f"  round time {round_plain:.4f} s untraced, "
                  f"{round_traced:.4f} s traced: overhead {overhead:+.1%}; "
                  f"spans in {tr['trace_file']}")
            entry["traced"] = summary(tr)
            entry["trace_overhead"] = overhead
        report[workload] = entry
        sys.stdout.flush()
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the frobjet benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "frobjet" / "__init__.py").is_file():
        print(f"error: no frobjet sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds,
                                     bool(args.trace))))
            return 0
        run = traced if args.trace else untraced
        result = run(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(headline(args.workload, result))
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
