#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` starts set-up-only processes, then measuring processes,
each running the workload's fixed number of units, until ``--seconds``
have passed, and prints the end-to-end metrics.  ``--trace 1`` runs one
measuring process with the layer wrappers of ``layers.py`` on every other
unit (paper-cold: a traced and an untraced process) and prints the
per-layer metrics.  Every measurement runs in a fresh ``unit.py`` process.
The last line of standard output is the result object; diagnostics go to
standard error.  The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import percentile  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only processes per run; setup_s is the median of these and the
#: measuring processes' own set-up times.
SETUP_PROBES = 4

#: Every run must end well inside three minutes.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, trace: int, scratch: Path,
          deadline: float) -> dict:
    """Run one unit.py process and return its JSON document."""
    scratch.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [sys.executable, str(HERE / "unit.py"), workload,
           "--seed", str(seed), "--mode", mode,
           "--trace", str(trace), "--scratch", str(scratch),
           "--root", str(ROOT)]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} {mode} process timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"{workload} {mode} process exited "
                       f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks_passed(docs) -> int:
    """Checks that passed in every measuring process."""
    names = set.intersection(*(
        {n for n, c in d["checks"].items() if c["passed"]} for d in docs))
    return len(names)


def end_to_end(docs, setups) -> dict:
    units = [u for d in docs for u in d["units"]]
    ops = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units)
    median = statistics.median
    values = {
        "setup_s": (median(setups), "s"),
        "work_s": (median(u["cpu_s"] for u in units), "s"),
        "points_per_s": (median(u["points"] / u["cpu_s"] for u in units),
                         "1/s"),
        "req_per_s": (median(len(u["latencies_ms"]) / u["cpu_s"]
                             for u in units), "1/s"),
        "req_p50_ms": (median(median(u["latencies_ms"]) for u in units),
                       "ms"),
        "ok_ratio": (1.0 - failed / ops, "ratio"),
        "peak_rss_mb": (median(d["peak_rss_mb"] for d in docs), "MB"),
        "table1_err_pct": (docs[0]["simulated"]["table1_err_pct"], "%"),
        "coexec_err_pct": (docs[0]["simulated"]["coexec_err_pct"], "%"),
        "checks_passed": (checks_passed(docs), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(docs) -> dict:
    """Per-layer metrics of the traced process (the last of *docs*)."""
    units = [u for d in docs for u in d["units"]]
    untraced = [u for u in units if not u["traced"]]
    median = statistics.median
    layers = dict(docs[-1]["layers"])
    layers["trace.overhead_ratio"] = (
        median(u["cpu_s"] for u in units if u["traced"])
        / median(u["cpu_s"] for u in untraced))
    layers["req.p99_ms"] = median(percentile(u["latencies_ms"], 99)
                                  for u in untraced)
    return {name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def run(args, scratch: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    counter = iter(range(1000))

    def child(mode, trace=0):
        return spawn(args.workload, args.seed, mode, trace,
                     scratch / f"p{next(counter)}", deadline)

    if args.trace:
        # paper-cold runs one unit per process: its untraced twin is a
        # second process.  Other workloads interleave inside one process.
        docs = [child("measure", trace=1)]
        if not any(not u["traced"] for u in docs[0]["units"]):
            docs.insert(0, child("measure"))
        metrics = per_layer(docs)
    else:
        setups = [child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        docs = []
        started = time.monotonic()
        while not docs or time.monotonic() - started < args.seconds:
            docs.append(child("measure"))
        setups += [d["setup_s"] for d in docs]
        metrics = end_to_end(docs, setups)

    units = [u for d in docs for u in d["units"]]
    failed_checks = [f"{n}: {c['detail']}" for d in docs
                     for n, c in d["checks"].items() if not c["passed"]]
    for line in failed_checks:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not failed_checks,
        "attempted": sum(u["ops"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-{os.getpid()}")
    try:
        result = run(args, scratch)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
