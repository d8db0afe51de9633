#!/usr/bin/env python3
"""One benchmark process: set up a workload, then optionally measure it.

``run.py`` starts this script; each start is a fresh interpreter, so set-up
time includes interpreter start-up and imports.  ``--mode setup`` stops
after set-up; ``--mode measure`` runs the workload's fixed number of
units, checks the outputs and prints one JSON document as its last line
of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import SPEED  # noqa: E402

# One CPU for every thread of the process: the host-speed samples then
# describe the CPU the work runs on, and service-mix's hand-offs between
# its event loop and dispatch thread stay on one CPU instead of waking the
# other (a cross-CPU wake-up costs a virtual machine far more, and by a
# varying amount).
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
# Sample the host's speed from the start, so set-up is normalized too.
SPEED.start()


def counters(workload, compile_cache_stats) -> dict:
    """Cumulative per-layer counters the program keeps itself."""
    out = dict(workload.layer_metrics())
    out["sim.trace.launches"] = sum(m.trace.n_launches
                                    for m in workload.machines())
    out["compiler.misses"] = compile_cache_stats()[1]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from checks import CheckList, percentile
    from workloads import WORKLOADS, cpu_seconds

    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    workload.setup()
    start = (0, 0.0)
    doc = {"setup_s": (cpu_seconds() - SPEED.spent_since(start))
           / SPEED.slowdown(start)}
    if args.mode == "setup":
        SPEED.stop()
        workload.close()
        print(json.dumps(doc))
        return 0

    from repro.compiler.cache import compile_cache_stats

    # A traced process of a many-unit workload alternates untraced and
    # traced units, so the overhead ratio compares units run side by side;
    # paper-cold runs one unit, so run.py compares it with an untraced
    # process instead.
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    interleave = tracer is not None and workload.units > 1
    layers: dict = {}
    by_source: dict = {}
    units = []
    while len(units) < workload.units:
        traced = tracer is not None and (not interleave or len(units) % 2)
        if traced:
            before = counters(workload, compile_cache_stats)
            tracer.install()
        unit = asdict(workload.run_unit())
        if traced:
            tracer.uninstall()
            after = counters(workload, compile_cache_stats)
            for name, value in after.items():
                layers[name] = layers.get(name, 0) + value - before[name]
            for source, samples in unit["by_source"].items():
                by_source.setdefault(source, []).extend(samples)
        unit["traced"] = bool(traced)
        units.append(unit)
    SPEED.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers.update(tracer.metrics())
        for source in ("cache", "computed"):
            samples = by_source.get(source)
            layers[f"req.{source}_p50_ms"] = (
                percentile(samples, 50) if samples else 0.0)
        wall = sum(u["wall_s"] for u in units if u["traced"])
        layers["unattributed_s"] = wall - tracer.attributed_main_s()
        layers["host.slowdown_ratio"] = SPEED.slowdown(start)

    checks = CheckList()
    simulated = workload.check(checks)
    workload.close()
    doc.update(units=units, peak_rss_mb=peak_rss_mb, layers=layers,
               simulated=simulated, checks=checks.to_dict())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
