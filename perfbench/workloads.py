"""The benchmark's three workloads: paper-cold, sweep-model, service-mix.

Each workload object is driven by ``unit.py`` in a fresh process:
``setup()`` (timed as set-up), then ``run_unit()`` ``units`` times (timed
as the workload), then ``check()`` (untimed).  Inputs come
only from the seed: ``ReproConfig(seed=...)`` for the input arrays, and a
``random.Random(seed)`` for the sweep-model config draw and the
service-mix request stream.  See README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import io
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from checks import (
    CheckList,
    host_reference,
    model_errors,
    pinned_digest,
    records_digest,
    table1_err_pct,
    coexec_err_pct,
    value_matches,
)
from hostspeed import SPEED


@dataclass
class UnitResult:
    """One measured unit of work."""

    wall_s: float
    points: int          # points computed
    ops: int             # operations attempted
    failed: int          # operations failed, refused or dropped
    #: Per-call latency: CPU time where one thread does the work
    #: (paper-cold, sweep-model), wall time for service-mix's concurrent
    #: HTTP requests; both divided by the host's slowdown.
    latencies_ms: List[float] = field(default_factory=list)
    cpu_s: float = 0.0   # normalized process CPU time of the timed region
    #: service-mix: latencies (ms) by response source (cache, computed, ...)
    by_source: Dict[str, List[float]] = field(default_factory=dict)


def cpu_seconds() -> float:
    """User CPU time of this process, all threads.

    Work is timed on the process's CPU clock, not the wall clock: the
    shared hosts this runs on take a varying share of each virtual CPU
    away (steal), which the wall clock reports as the program slowing.
    System time is left out: most of it is the result cache's fsync,
    whose cost on these hosts swings by 5x within seconds with the
    neighbours' disk traffic.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Clock:
    """Accumulates wall time and normalized CPU time over ``with`` blocks.

    CPU time is the process's CPU time minus the host-speed kernel's,
    divided by the host's slowdown over the block (see hostspeed.py).
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Clock":
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()
        self._mark = SPEED.mark()
        return self

    def __exit__(self, *exc) -> None:
        raw = cpu_seconds() - self._cpu - SPEED.spent_since(self._mark)
        self.slowdown = SPEED.slowdown(self._mark)
        self.last_cpu_s = raw / self.slowdown
        self.wall_s += time.perf_counter() - self._wall
        self.cpu_s += self.last_cpu_s


def _counts_per_stage(stats) -> Dict[str, float]:
    """sweep.stage.*_s from SweepStats, by stage-name family."""
    out = {"table1": 0.0, "fig1": 0.0, "coexec_base": 0.0, "coexec_opt": 0.0}
    for name, stage in stats.stages.items():
        if name.startswith("table1-"):
            out["table1"] += stage.wall_seconds
        elif name.startswith("sweep-"):
            out["fig1"] += stage.wall_seconds
        elif name.startswith("coexec-") and name.endswith("-baseline"):
            out["coexec_base"] += stage.wall_seconds
        elif name.startswith("coexec-") and name.endswith("-optimized"):
            out["coexec_opt"] += stage.wall_seconds
    return {f"sweep.stage.{k}_s": v for k, v in out.items()}


class Workload:
    name = ""
    #: Units each measuring process runs.  A fixed count, not a time
    #: limit: a unit's cost depends on what the process has done before
    #: (caches and memos fill), so every process runs the same sequence
    #: and a slow host runs fewer processes, not shorter ones.
    units = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def machines(self) -> List[Any]:
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        """Cumulative per-layer counters the program keeps itself."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# paper-cold
# --------------------------------------------------------------------------


def _write_only_cache_class():
    from repro.sweep import ResultCache

    class WriteOnlyCache(ResultCache):
        """A result cache whose reads miss until ``reads`` is switched on.

        The paper sequence regenerates every figure twice (once for the
        printout, once inside the shape-check report).  With reads off,
        both passes compute every point, as ``--no-cache`` does, and
        every point is still written to the cache.
        """

        reads = False

        def get(self, key):
            if not self.reads:
                return None
            return super().get(key)

    return WriteOnlyCache


class PaperCold(Workload):
    """The whole examples/reproduce_paper.py sequence, cold, at the 4M cap."""

    name = "paper-cold"
    units = 1    # a second unit would not be cold

    def setup(self) -> None:
        from repro import Machine, ReproConfig
        from repro.sweep import SweepExecutor

        self.machine = Machine(config=ReproConfig(seed=self.seed))
        self.cache = _write_only_cache_class()(self.scratch / "result-cache")
        self.executor = SweepExecutor(self.machine, workers=1,
                                      cache=self.cache)
        self.cold = self._cold_state()
        self.output = None

    def machines(self):
        return [self.machine]

    def _cold_state(self) -> Dict[str, Any]:
        from repro.compiler.cache import compile_cache_stats

        return {
            "compile_cache": compile_cache_stats(),
            "cache_entries": self.cache.entry_count(),
            "launches": self.machine.trace.n_launches,
            "machine_memos": sorted(
                k for k in vars(self.machine)
                if k in ("_measure_memo", "_slab_value_cache")
            ),
        }

    def run_unit(self) -> UnitResult:
        calls: List[float] = []

        def call(fn, *args, **kwargs):
            with Clock() as one:
                result = fn(*args, **kwargs)
            calls.append(one.cpu_s * 1e3)
            return result

        with Clock() as clock:
            self.output = paper_sequence(self.machine, self.executor, call)
        stats = self.executor.stats
        return UnitResult(
            wall_s=clock.wall_s,
            points=stats.total_computed,
            ops=stats.total_points,
            failed=stats.total_failed + stats.total_errors,
            latencies_ms=calls,
            cpu_s=clock.cpu_s,
        )

    def layer_metrics(self) -> Dict[str, float]:
        return _counts_per_stage(self.executor.stats)

    def digest(self) -> str:
        return paper_digest(*self.output[:3])

    def check(self, checks: CheckList) -> Dict[str, float]:
        from repro.core.cases import PAPER_CASES
        from repro.evaluation.report import (
            check_coexec_shape, check_figure1_shape, check_table1_shape,
        )

        rows, fig1, coexec, report = self.output
        cold = self.cold
        checks.add("cold.compile_cache_empty",
                   cold["compile_cache"] == (0, 0, 0),
                   f"compile cache at start {cold['compile_cache']}")
        checks.add("cold.result_cache_empty", cold["cache_entries"] == 0,
                   f"{cold['cache_entries']} entries at start")
        checks.add("cold.machine_fresh",
                   cold["launches"] == 0 and not cold["machine_memos"],
                   f"launches {cold['launches']}, memos "
                   f"{cold['machine_memos']}")
        checks.add("cold.no_result_cache_hits", self.cache.hits == 0,
                   f"{self.cache.hits} hits")
        computed = self.executor.stats.total_computed
        checks.add("cache.every_point_written",
                   self.cache.stores == computed > 0,
                   f"{self.cache.stores} stores for {computed} computed")

        digest = self.digest()
        checks.add("digest", digest == pinned_digest(self.name), digest)

        # Co-execution runs with verify=False in the sequence: check every
        # (site, flavour, case, p) value against the host reference here.
        refs = {c.name: host_reference(self.machine.workload(c),
                                       c.result_type.numpy)
                for c in PAPER_CASES}
        bad = [
            f"{site}/{opt}/{name}/p{m.cpu_part}"
            for (site, opt), fig in coexec.items()
            for name, sweep in fig.sweeps.items()
            for m in sweep.measurements
            if not value_matches(m.value, refs[name],
                                 sweep.case.result_type.numpy)
        ]
        checks.add("values.coexec", not bad, ", ".join(bad[:4]))

        # Figure 1 points (verify=False too): read their written records.
        self.cache.reads = True
        bad = []
        for case in PAPER_CASES:
            for point in fig1[case.name].sweep.points:
                key = self.executor.cache_key(
                    "gpu_point", (case, point.config, 200, False))
                record = self.cache.get(key)
                if record is None or not value_matches(
                        record["value"], refs[case.name],
                        case.result_type.numpy):
                    bad.append(f"{case.name}/{point.config.label()}")
        checks.add("values.fig1", not bad, ", ".join(bad[:4]))

        shape = list(check_table1_shape(rows))
        for fig in fig1.values():
            shape.extend(check_figure1_shape(fig))
        shape.extend(check_coexec_shape(
            coexec[("A1", False)], coexec[("A1", True)],
            coexec[("A2", False)], coexec[("A2", True)]))
        failed = [c.name for c in shape if not c.passed]
        checks.add("shape_checks", not failed and len(shape) > 0,
                   f"{len(shape) - len(failed)}/{len(shape)} passed")
        first = report.splitlines()[0]
        passed, _, total = first.split()[2].partition("/")
        checks.add("report_shape_checks", passed == total, first)

        return {
            "table1_err_pct": table1_err_pct(rows),
            "coexec_err_pct": coexec_err_pct(coexec[("A1", True)],
                                             coexec[("A2", True)]),
        }


def paper_sequence(machine, executor, call):
    """The calls of examples/reproduce_paper.py, in its order.

    Each table, figure and report call goes through ``call`` (which times
    it); the rendered text goes to a buffer.  Returns the results the
    checks need: (Table 1 rows, Figure 1 panels, co-execution figures,
    shape-check report).
    """
    from repro.core.cases import PAPER_CASES
    from repro.core.coexec import AllocationSite
    from repro.evaluation.figures import (
        chart_coexec_figure, chart_figure1, generate_coexec_figure,
        generate_figure1, generate_speedup_figure, render_coexec_figure,
        render_figure1, render_speedup_figure,
    )
    from repro.evaluation.report import full_report
    from repro.evaluation.tables import generate_table1, render_table1

    out = io.StringIO()
    rows = call(generate_table1, machine, executor=executor)
    out.write(render_table1(rows))
    fig1 = {}
    for case in PAPER_CASES:
        fig = call(generate_figure1, machine, case, executor=executor)
        fig1[case.name] = fig
        out.write(render_figure1(fig))
        out.write(chart_figure1(fig))
    coexec = {}
    for site in (AllocationSite.A1, AllocationSite.A2):
        for optimized in (False, True):
            fig = call(generate_coexec_figure, machine, PAPER_CASES, site,
                       optimized, verify=False, executor=executor)
            coexec[(site.value, optimized)] = fig
            out.write(render_coexec_figure(fig))
            out.write(chart_coexec_figure(fig))
    for site in ("A1", "A2"):
        fig = generate_speedup_figure(coexec[(site, False)],
                                      coexec[(site, True)])
        out.write(render_speedup_figure(fig))
    report = call(full_report, machine, executor=executor)
    out.write(report)
    return rows, fig1, coexec, report


def paper_digest(rows, fig1, coexec) -> str:
    """Digest of the sequence's simulated bandwidths and elapsed times."""
    records: List[Tuple] = []
    for name, row in sorted(rows.items()):
        records.append(("table1", name, row.base_gbs, row.optimized_gbs,
                        row.optimized_config.label()))
    for name, fig in sorted(fig1.items()):
        for point in fig.sweep.points:
            records.append(("fig1", name, point.config.label(),
                            point.bandwidth_gbs))
    for (site, optimized), fig in sorted(coexec.items()):
        for name, sweep in sorted(fig.sweeps.items()):
            for m in sweep.measurements:
                records.append(("coexec", site, optimized, name, m.cpu_part,
                                m.bandwidth_gbs, m.elapsed_seconds))
    return records_digest(records)


def paper_digest_small(seed: int) -> str:
    """The paper-cold digest at a 64K functional cap (bandwidths and
    elapsed times do not depend on the cap)."""
    from repro import Machine, ReproConfig
    from repro.sweep import SweepExecutor

    machine = Machine(config=ReproConfig(seed=seed,
                                         functional_elements_cap=1 << 16))
    executor = SweepExecutor(machine, workers=1, cache=None)
    output = paper_sequence(machine, executor, lambda fn, *a, **k: fn(*a, **k))
    return paper_digest(*output[:3])


# --------------------------------------------------------------------------
# sweep-model
# --------------------------------------------------------------------------

PROFILES = ("gh200", "v100", "a100")
MODEL_CASES = ("C1", "C2")
#: Configs per gpu_points call (one call = one "request" of this workload).
SWEEP_BATCH = 500
#: gpu_points calls per unit, spread evenly over the profiles and cases;
#: enough that a unit's 99th percentile is its second-slowest call.
SWEEP_CALLS = 120
#: The fixed, seed-independent probe grid behind the pinned digest.
PROBE_TEAMS = (1, 64, 4096, 131072)
PROBE_V = (1, 4, 32)
PROBE_THREADS = (32, 256, 1000)


def draw_configs(rng: random.Random, n: int) -> List[Tuple[int, int, int]]:
    """n seeded (teams, v, threads) draws; every draw is a valid launch.

    teams and V are powers of two (KernelConfig requires it), V <= teams
    and V divides both cases' element counts; threads is any value the
    three profiles accept (rounded up to a warp by the runtime).
    """
    out = []
    for _ in range(n):
        teams = 1 << rng.randrange(0, 18)
        v = min(teams, 1 << rng.randrange(0, 6))
        out.append((teams, v, rng.randrange(1, 1025)))
    return out


class SweepModel(Workload):
    """Seeded random configs for C1/C2 on three machine profiles."""

    name = "sweep-model"
    units = 6

    def setup(self) -> None:
        from repro import Machine, ReproConfig
        from repro.core.cases import case_by_name
        from repro.sweep import SweepExecutor

        self.cases = [case_by_name(n) for n in MODEL_CASES]
        self.machines_by_profile = {
            p: Machine(config=ReproConfig(seed=self.seed, machine_profile=p))
            for p in PROFILES
        }
        self.executors = {
            p: SweepExecutor(m, workers=1, cache=None)
            for p, m in self.machines_by_profile.items()
        }
        # Lazy set-up a sweep pays once per process happens here: the
        # input arrays, the model tables and the verified value memo.
        from repro.core.optimized import KernelConfig

        for executor in self.executors.values():
            for case in self.cases:
                executor.gpu_points(case, [KernelConfig(teams=1024)],
                                    verify=True, stage="setup")
        self.rng = random.Random(self.seed)
        self.values: Dict[Tuple[str, str], set] = {}
        self.last_draws: Dict[Tuple[str, str], List[Tuple]] = {}

    def machines(self):
        return list(self.machines_by_profile.values())

    def run_unit(self) -> UnitResult:
        from repro.core.optimized import KernelConfig
        from repro.core.timing import TRIALS

        clock = Clock()
        points, failed = 0, 0
        latencies = []
        combos = [(p, c) for p in PROFILES for c in self.cases]
        for i in range(SWEEP_CALLS):
            profile, case = combos[i % len(combos)]
            draws = draw_configs(self.rng, SWEEP_BATCH)
            configs = [KernelConfig(teams=t, v=v, threads=th)
                       for t, v, th in draws]
            with clock:
                records = self.executors[profile].gpu_points(
                    case, configs, trials=TRIALS, verify=True, stage="model")
            latencies.append(clock.last_cpu_s * 1e3)
            bad = sum(1 for r in records if r.get("failed"))
            failed += bad
            points += len(records) - bad
            self.values.setdefault((profile, case.name), set()).update(
                r["value"] for r in records if not r.get("failed"))
            self.last_draws[(profile, case.name)] = draws
        return UnitResult(clock.wall_s, points, SWEEP_BATCH * SWEEP_CALLS,
                          failed, latencies, clock.cpu_s)

    def digest(self) -> str:
        return sweep_digest(self.executors, self.cases)

    def check(self, checks: CheckList) -> Dict[str, float]:
        from repro import Machine, ReproConfig
        from repro.core.optimized import KernelConfig
        from repro.core.timing import TRIALS, measure_gpu_reduction

        bad = []
        for profile, machine in self.machines_by_profile.items():
            for case in self.cases:
                ref = host_reference(machine.workload(case),
                                     case.result_type.numpy)
                seen = self.values.get((profile, case.name), set())
                if seen != {ref}:
                    bad.append(f"{profile}/{case.name}: {sorted(seen)[:3]} "
                               f"!= {ref}")
        checks.add("values.host_reference", not bad, "; ".join(bad))

        digest = self.digest()
        checks.add("digest", digest == pinned_digest(self.name), digest)

        # A seeded sample of the drawn points against the scalar pipeline
        # (the slab path's differential oracle), on small-cap machines.
        sample_rng = random.Random(self.seed ^ 0x5A5A)
        mismatches = []
        for profile in PROFILES:
            scalar = Machine(config=ReproConfig(
                seed=self.seed, machine_profile=profile, slab=False,
                functional_elements_cap=1 << 16))
            for case in self.cases:
                draws = self.last_draws[(profile, case.name)]
                for teams, v, threads in sample_rng.sample(draws, 2):
                    config = KernelConfig(teams=teams, v=v, threads=threads)
                    (record,) = self.executors[profile].gpu_points(
                        case, [config], trials=TRIALS, verify=False)
                    m = measure_gpu_reduction(scalar, case, config,
                                              trials=TRIALS, verify=False)
                    if (record["bandwidth_gbs"], record["elapsed_seconds"]) \
                            != (m.bandwidth_gbs, m.elapsed_seconds):
                        mismatches.append(f"{profile}/{case.name}/"
                                          f"{config.label()}")
        checks.add("slab_matches_scalar", not mismatches,
                   ", ".join(mismatches))
        t1, cx = model_errors(self.seed)
        return {"table1_err_pct": t1, "coexec_err_pct": cx}


def sweep_digest(executors, cases) -> str:
    from repro.core.optimized import KernelConfig
    from repro.core.timing import TRIALS

    configs = [KernelConfig(teams=t, v=v, threads=th)
               for t in PROBE_TEAMS for v in PROBE_V if v <= t
               for th in PROBE_THREADS]
    records = []
    for profile in PROFILES:
        for case in cases:
            for config, r in zip(configs, executors[profile].gpu_points(
                    case, configs, trials=TRIALS, verify=False)):
                records.append((profile, case.name, config.label(),
                                r["bandwidth_gbs"], r["elapsed_seconds"]))
    return records_digest(records)


def sweep_digest_small(seed: int) -> str:
    from repro import Machine, ReproConfig
    from repro.core.cases import case_by_name
    from repro.sweep import SweepExecutor

    executors = {
        p: SweepExecutor(Machine(config=ReproConfig(
            seed=seed, machine_profile=p, functional_elements_cap=1 << 16)),
            workers=1, cache=None)
        for p in PROFILES
    }
    return sweep_digest(executors, [case_by_name(n) for n in MODEL_CASES])


# --------------------------------------------------------------------------
# service-mix
# --------------------------------------------------------------------------

SERVICE_DTYPES = ("int8", "int32", "float32", "float64")
SERVICE_SIZES = tuple(1 << k for k in range(14, 21))   # 16K .. 1M elements
#: One request in this many asks for a point not requested before.
NEW_POINT_EVERY = 5
#: Requests per run_load call (one unit of this workload).
SERVICE_BLOCK = 400
SERVICE_CLIENTS = 2
#: Fixed, seed-independent requests behind the pinned digest.
PROBE_REQUESTS = tuple(
    dict({"dtype": d, "elements": 1 << 18, "trials": 100}, **variant)
    for d in SERVICE_DTYPES
    for variant in ({}, {"teams": 1024, "v": 4, "threads": 256})
)


class RequestStream:
    """Seeded /simulate bodies: every fifth request asks for a new point.

    New points walk the (dtype, size) classes in a seeded order, each
    class once per round, so every run sees the same mix of input sizes;
    their launch geometry and trial count are drawn at random.  The other
    requests repeat an earlier point chosen uniformly.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.points: List[Dict[str, Any]] = []
        self._seen: set = set()
        self._classes: List[Tuple[str, int]] = []
        self._sent = 0

    def _new_point(self) -> Dict[str, Any]:
        rng = self.rng
        if not self._classes:
            self._classes = [(d, n) for d in SERVICE_DTYPES
                             for n in SERVICE_SIZES]
            rng.shuffle(self._classes)
        dtype, elements = self._classes.pop()
        while True:
            point: Dict[str, Any] = {"dtype": dtype, "elements": elements,
                                     "trials": rng.choice((50, 100, 200))}
            if rng.random() >= 0.125:      # 1 in 8 new points is a baseline
                teams = 1 << rng.randrange(0, 17)
                point.update(teams=teams,
                             v=min(teams, 1 << rng.randrange(0, 4)),
                             threads=32 * rng.randrange(1, 33))
            key = tuple(sorted(point.items()))
            if key not in self._seen:
                self._seen.add(key)
                self.points.append(point)
                return point

    def next_block(self, n: int) -> List[Dict[str, Any]]:
        block = []
        for _ in range(n):
            if self._sent % NEW_POINT_EVERY == 0:
                block.append(dict(self._new_point()))
            else:
                block.append(dict(self.rng.choice(self.points)))
            self._sent += 1
        return block


class ServiceMix(Workload):
    """An in-process HTTP service under a 2-connection closed loop."""

    name = "service-mix"
    units = 12

    def setup(self) -> None:
        from repro import Machine, ReproConfig
        from repro.service.http import ServiceHTTPServer
        from repro.service.scheduler import ReductionService, ServiceSettings
        from repro.sweep import ResultCache, SweepExecutor
        from repro.telemetry.metrics import MetricsRegistry

        self.machine = Machine(config=ReproConfig(seed=self.seed))
        self.cache = ResultCache(self.scratch / "service-cache")
        self.executor = SweepExecutor(self.machine, workers=1,
                                      cache=self.cache)
        self.registry = MetricsRegistry()
        self.service = ReductionService(self.machine, self.executor,
                                        ServiceSettings(),
                                        registry=self.registry)
        self.server = ServiceHTTPServer(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self.host, self.port = self.loop.run_until_complete(
            self.server.start())
        self.stream = RequestStream(self.seed)

    def machines(self):
        return [self.machine]

    def run_unit(self) -> UnitResult:
        from repro.service.loadgen import run_load

        block = self.stream.next_block(SERVICE_BLOCK)
        before = self.registry.total("service.computed")
        with Clock() as clock:
            report = self.loop.run_until_complete(run_load(
                self.host, self.port, block, clients=SERVICE_CLIENTS))
        computed = int(self.registry.total("service.computed") - before)
        by_source = {key[3:]: [s * 1e3 / clock.slowdown for s in samples]
                     for key, samples in report.latencies.items()
                     if key.startswith("ok:")}
        failed = (report.rejected + report.errors + report.dropped
                  + report.by_source.get("degraded", 0))
        latencies = [s * 1e3 / clock.slowdown for samples in (
            report.latencies.get(k, []) for k in
            ("ok", "rejected", "error", "dropped")) for s in samples]
        return UnitResult(report.wall_seconds, computed, report.sent, failed,
                          latencies, clock.cpu_s, by_source)

    def layer_metrics(self) -> Dict[str, float]:
        return {f"service.{name}": self.registry.total(f"service.{name}")
                for name in ("batches", "computed", "coalesced", "cache_hits",
                             "retries", "rejected")}

    def _submit_all(self, bodies) -> List[Any]:
        from repro.service.api import parse_request

        async def go():
            return [await self.service.submit(parse_request(dict(b)))
                    for b in bodies]

        return self.loop.run_until_complete(go())

    def digest(self) -> str:
        responses = self._submit_all(PROBE_REQUESTS)
        if any(r.status != "ok" for r in responses):
            return "probe-failed"
        return records_digest(
            (i, r.result["bandwidth_gbs"], r.result["elapsed_seconds"])
            for i, r in enumerate(responses))

    def check(self, checks: CheckList) -> Dict[str, float]:
        from repro import Machine, ReproConfig
        from repro.core.timing import measure_gpu_reduction
        from repro.service.api import parse_request

        unique = self.stream.points
        computed = int(self.registry.total("service.computed"))
        checks.add("service.computed_equals_unique_points",
                   computed == len(unique),
                   f"{computed} computed, {len(unique)} unique points")

        refs: Dict[Tuple[str, int], Any] = {}
        bad = []
        for body in unique:
            request = parse_request(dict(body))
            kind, payload = request.payload()
            record = self.cache.get(self.executor.cache_key(kind, payload))
            case = request.case
            ref_key = (case.element_type.name, case.elements)
            if ref_key not in refs:
                refs[ref_key] = host_reference(self.machine.workload(case),
                                               case.result_type.numpy)
            if record is None or not value_matches(
                    record["value"], refs[ref_key], case.result_type.numpy):
                bad.append(request.describe())
        checks.add("values.host_reference", not bad and bool(unique),
                   "; ".join(bad[:3]))

        # A seeded sample of served points against the scalar pipeline.
        scalar = Machine(config=ReproConfig(
            seed=self.seed, slab=False, functional_elements_cap=1 << 16))
        mismatches = []
        for body in random.Random(self.seed ^ 0x5A5A).sample(
                unique, min(8, len(unique))):
            request = parse_request(dict(body))
            kind, payload = request.payload()
            record = self.cache.get(self.executor.cache_key(kind, payload))
            m = measure_gpu_reduction(scalar, request.case, request.config,
                                      trials=request.trials, verify=False)
            if record is None or (record["bandwidth_gbs"],
                                  record["elapsed_seconds"]) != (
                                      m.bandwidth_gbs, m.elapsed_seconds):
                mismatches.append(request.describe())
        checks.add("served_matches_scalar", not mismatches,
                   "; ".join(mismatches))

        digest = self.digest()
        checks.add("digest", digest == pinned_digest(self.name), digest)
        t1, cx = model_errors(self.seed)
        return {"table1_err_pct": t1, "coexec_err_pct": cx}

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


def service_digest_small(seed: int) -> str:
    """The service-mix digest from a fresh service at a 64K cap."""
    from repro import Machine, ReproConfig
    from repro.service.scheduler import ReductionService
    from repro.sweep import SweepExecutor
    from repro.telemetry.metrics import MetricsRegistry

    workload = ServiceMix(seed, Path("."))
    machine = Machine(config=ReproConfig(seed=seed,
                                         functional_elements_cap=1 << 16))
    workload.service = ReductionService(
        machine, SweepExecutor(machine, workers=1, cache=None),
        registry=MetricsRegistry())
    workload.loop = asyncio.new_event_loop()
    try:
        return workload.digest()
    finally:
        workload.loop.run_until_complete(workload.service.stop())
        workload.loop.close()


WORKLOADS = {w.name: w for w in (PaperCold, SweepModel, ServiceMix)}
