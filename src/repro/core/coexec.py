"""CPU+GPU co-execution in unified memory (paper §IV, Listings 7-8).

The work is split at fraction ``p`` (the "CPU part"): the GPU reduces the
leading ``LenD = M - LenH`` elements inside an ``omp master`` block with
``nowait``, every other host thread works the trailing ``LenH`` elements in
a ``for simd`` loop, and the implicit barrier joins the two before the
partial sums combine.

Timing per trial, on the simulated clock through the event engine:

``trial = fork_join + max(t_gpu, t_cpu) + combine``

where ``t_gpu`` includes any fault-migration stall the UM page-state
machine reports for the GPU's range, and ``t_cpu`` streams its range at a
local/remote blend depending on residency.  The allocation site drives
everything:

* **A1** — allocate once before the p-loop.  The p = 0 iteration migrates
  the whole array to HBM (amortized over the N = 200 trials); every later
  p re-uses GPU-resident pages for the GPU part and reads the (also
  GPU-resident) CPU part coherently over C2C.
* **A2** — allocate afresh per p.  The GPU part re-migrates at every p;
  the CPU part stays in LPDDR at full speed.

Bandwidth per Listing 8: ``1e-9 * M * sizeof(T) * N / elapsed``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.cache import cached_compile
from ..cpu.exec_model import execute_host_reduction
from ..cpu.perf import estimate_cpu_reduction_time
from ..errors import MeasurementError
from ..gpu.exec_model import execute_reduction, grouping_key
from ..gpu.kernels import ReductionKernel
from ..memory.unified import UnifiedMemoryManager
from ..openmp.reduction_ops import get_reduction_op
from ..sim.engine import Engine
from ..util.units import gb_per_s
from ..util.validation import check_fraction
from .baseline import baseline_program
from .cases import Case
from .machine import Machine
from .optimized import KernelConfig, optimized_program
from .timing import TRIALS
from .verify import verify_result

__all__ = [
    "AllocationSite",
    "CPU_PART_GRID",
    "CoExecMeasurement",
    "CoExecSweep",
    "measure_coexec_sweep",
]

#: Listing 8's p grid: 0.0, 0.1, ..., 1.0.
CPU_PART_GRID: Tuple[float, ...] = tuple(round(i / 10, 1) for i in range(11))

#: End-of-region combine of the two partial sums (scalar work).
_COMBINE_SECONDS = 2e-7


class AllocationSite(enum.Enum):
    """Where the input array is allocated relative to the p-loop."""

    A1 = "A1"  # once, before the loop over p
    A2 = "A2"  # afresh, inside every p iteration


@dataclass(frozen=True)
class CoExecMeasurement:
    """One (case, site, p) co-execution measurement."""

    case: Case
    site: AllocationSite
    config: Optional[KernelConfig]
    cpu_part: float
    trials: int
    elapsed_seconds: float
    bandwidth_gbs: float
    gpu_seconds_steady: float
    cpu_seconds_steady: float
    migration_seconds: float
    value: np.generic

    @property
    def is_baseline(self) -> bool:
        return self.config is None


@dataclass(frozen=True)
class CoExecSweep:
    """A full p sweep for one (case, site, kernel-flavour)."""

    case: Case
    site: AllocationSite
    config: Optional[KernelConfig]
    measurements: Tuple[CoExecMeasurement, ...]

    def at(self, p: float) -> CoExecMeasurement:
        for m in self.measurements:
            if abs(m.cpu_part - p) < 1e-9:
                return m
        raise KeyError(f"no measurement at p={p}")

    @property
    def gpu_only(self) -> CoExecMeasurement:
        return self.at(0.0)

    @property
    def cpu_only(self) -> CoExecMeasurement:
        return self.at(1.0)

    def best(self) -> CoExecMeasurement:
        return max(self.measurements, key=lambda m: m.bandwidth_gbs)

    def speedup_over_gpu_only(self) -> List[Tuple[float, float]]:
        """(p, bandwidth / bandwidth@p=0) series."""
        base = self.gpu_only.bandwidth_gbs
        return [(m.cpu_part, m.bandwidth_gbs / base) for m in self.measurements]

    def series(self) -> List[Tuple[float, float]]:
        """(p, GB/s) series — one Figure 2/4 curve."""
        return [(m.cpu_part, m.bandwidth_gbs) for m in self.measurements]


def _gpu_kernel_for(
    machine: Machine, case: Case, len_d: int, config: Optional[KernelConfig]
) -> ReductionKernel:
    """Compile + launch-resolve the device kernel for the LenD-element part."""
    sub = case.scaled(len_d, name=f"{case.name}-gpupart")
    if config is None:
        program = baseline_program(sub)
        env = None
    else:
        program = optimized_program(sub, config)
        env = config.env()
    compiled = cached_compile(program)
    return compiled.launch(machine.runtime, env)


def _split_elements(case: Case, p: float, v: int) -> Tuple[int, int]:
    """(LenD, LenH) with LenD rounded down to a multiple of V."""
    len_h = int(round(case.elements * p))
    len_d = case.elements - len_h
    len_d -= len_d % v
    return len_d, case.elements - len_d


def _trial_seconds(machine: Machine, gpu_s: float, cpu_s: float) -> float:
    """Compose one Listing-7 trial on the event engine (nowait overlap)."""
    engine = Engine()
    done = {"gpu": 0.0, "cpu": 0.0}
    if gpu_s > 0.0:
        engine.after(gpu_s, lambda e: done.__setitem__("gpu", e.clock.now),
                     label="gpu-part")
    if cpu_s > 0.0:
        engine.after(cpu_s, lambda e: done.__setitem__("cpu", e.clock.now),
                     label="cpu-part")
    barrier = engine.run()
    fork_join = machine.cpu.fork_join_overhead_us * 1e-6
    return fork_join + barrier + _COMBINE_SECONDS


def _functional_coexec(
    machine: Machine,
    case: Case,
    kernel: Optional[ReductionKernel],
    len_d: int,
    verify: bool,
) -> np.generic:
    """Actually compute sumD + sumH on the size-capped workload.

    Both partial sums go through the machine's value memo: the allocation
    site moves only pages and time, so A1 and A2 compute each (case,
    kernel, p) partial once.  The device prefix's range fixes the host
    suffix's, so a pair of checked hits was checked together.
    """
    data = machine.workload(case)
    n = data.size
    n_d = 0
    if kernel is not None:
        n_d = int(round(n * (len_d / case.elements)))
        n_d -= n_d % kernel.elements_per_iteration
    rtype = case.result_type
    parts = []
    if n_d > 0:
        geometry = kernel.geometry
        grouping = grouping_key(n_d, kernel.result_type, kernel.identifier,
                                geometry.grid, geometry.block,
                                kernel.elements_per_iteration)
        parts.append((0, n_d, grouping,
                      lambda: execute_reduction(data[:n_d], kernel)))
    if n_d < n:
        parts.append((n_d, n, ("host", machine.cpu.cores),
                      lambda: execute_host_reduction(data[n_d:], machine.cpu,
                                                     rtype)))
    op = get_reduction_op("+", rtype)

    def total_of(values):
        sum_d = values[0] if n_d > 0 else rtype.zero()
        sum_h = values[-1] if n_d < n else rtype.zero()
        return op.combine(rtype.numpy.type(sum_d), rtype.numpy.type(sum_h))

    def check(values):
        verify_result(total_of(values), data, rtype)

    return total_of(machine.functional_values(
        case, "+", parts, check if verify else None
    ))


def measure_coexec_sweep(
    machine: Machine,
    case: Case,
    site: AllocationSite,
    config: Optional[KernelConfig] = None,
    p_grid: Sequence[float] = CPU_PART_GRID,
    trials: int = TRIALS,
    verify: Optional[bool] = None,
    unified_memory: bool = True,
    access_counter_threshold: Optional[int] = None,
) -> CoExecSweep:
    """Run the Listing 8 measurement: sweep p over *p_grid* at *site*.

    ``config=None`` co-runs the baseline device kernel (Figures 2a/4a),
    otherwise the optimized kernel (Figures 2b/4b).  The p grid is walked
    in ascending order — the paper's loop order, which the A1 residency
    story depends on.

    Extension knobs beyond the paper's setup:

    * ``unified_memory=False`` — compile without ``-gpu=mem:unified``:
      the ``map(to: inD[0:LenD])`` clause then performs a real
      host-to-device copy on every trial (the present table is entered
      and exited per target region), and the CPU always reads local
      memory.  The allocation site becomes irrelevant.
    * ``access_counter_threshold`` — enable GH200-style access-counter
      migrate-back in the UM manager (see
      :class:`~repro.memory.unified.UnifiedMemoryManager`).
    """
    if trials <= 0:
        raise MeasurementError(f"trials must be positive, got {trials}")
    p_values = [check_fraction(p, "p") for p in p_grid]
    if sorted(p_values) != p_values:
        raise MeasurementError("p_grid must be ascending (the Listing 8 loop order)")
    do_verify = machine.config.strict_verify if verify is None else verify
    if not unified_memory:
        return _measure_coexec_explicit(
            machine, case, site, config, p_values, trials, do_verify
        )

    um = UnifiedMemoryManager(
        machine.system,
        machine.trace,
        access_counter_threshold=access_counter_threshold,
    )
    esize = case.element_type.size
    alloc = None
    if site is AllocationSite.A1:
        alloc = um.allocate(case.input_bytes, name=f"{case.name}-A1")
        um.cpu_first_touch(alloc)

    results: List[CoExecMeasurement] = []
    v = config.v if config is not None else 1
    for p in p_values:
        if site is AllocationSite.A2:
            if alloc is not None:
                um.free(alloc)
            alloc = um.allocate(case.input_bytes, name=f"{case.name}-A2-p{p}")
            um.cpu_first_touch(alloc)

        len_d, len_h = _split_elements(case, p, v)
        kernel = (
            _gpu_kernel_for(machine, case, len_d, config) if len_d else None
        )

        # --- first trial: may include the fault-migration stall ---------
        migration = 0.0
        if len_d:
            plan = um.gpu_read(alloc, 0, len_d * esize)
            migration = plan.migration_seconds
        gpu_first = (
            machine.run_kernel(kernel).total + migration if len_d else 0.0
        )

        def cpu_trial_seconds() -> float:
            if not len_h:
                return 0.0
            cplan = um.cpu_read(alloc, len_d * esize, len_h * esize)
            blended = cplan.effective_bandwidth_gbs(
                machine.cpu.stream_bandwidth_gbs,
                machine.link.remote_read_gbs,
            )
            return estimate_cpu_reduction_time(
                machine.cpu,
                len_h,
                case.element_type,
                stream_bandwidth_gbs=blended,
            ).total + cplan.migration_seconds

        cpu_first = cpu_trial_seconds()
        first = _trial_seconds(machine, gpu_first, cpu_first)

        # --- steady state: sampled with a second trial's plans (pages
        # resident; with access counters enabled, hot pages may have
        # migrated home, making later CPU reads local) ---------------------
        gpu_steady = gpu_first - migration
        if len_d:
            um.gpu_read(alloc, 0, len_d * esize)  # GPU touches again
        cpu_s = cpu_trial_seconds()
        steady = _trial_seconds(machine, gpu_steady, cpu_s)
        elapsed = first + (trials - 1) * steady

        value = _functional_coexec(machine, case, kernel, len_d, do_verify)
        results.append(
            CoExecMeasurement(
                case=case,
                site=site,
                config=config,
                cpu_part=p,
                trials=trials,
                elapsed_seconds=elapsed,
                bandwidth_gbs=gb_per_s(case.input_bytes * trials, elapsed),
                gpu_seconds_steady=gpu_steady,
                cpu_seconds_steady=cpu_s,
                migration_seconds=migration,
                value=value,
            )
        )

    return CoExecSweep(
        case=case, site=site, config=config, measurements=tuple(results)
    )


def _measure_coexec_explicit(
    machine: Machine,
    case: Case,
    site: AllocationSite,
    config: Optional[KernelConfig],
    p_values: Sequence[float],
    trials: int,
    do_verify: bool,
) -> CoExecSweep:
    """Co-execution without unified memory: ``map`` copies per trial.

    Each target-region entry maps ``inD[0:LenD]`` (host-to-device DMA at
    link rate) and unmaps it on exit, so every trial pays the copy; the
    CPU part always streams local LPDDR.  This is the configuration the
    paper avoids by compiling with ``-gpu=mem:unified``.
    """
    from ..openmp.data_env import DeviceDataEnvironment

    env = DeviceDataEnvironment(
        machine.link, machine.gpu.memory.capacity_bytes
    )
    esize = case.element_type.size
    v = config.v if config is not None else 1
    results: List[CoExecMeasurement] = []
    for p in p_values:
        len_d, len_h = _split_elements(case, p, v)
        kernel = (
            _gpu_kernel_for(machine, case, len_d, config) if len_d else None
        )
        # Target-region entry/exit: map(to:) copies in, release frees.
        if len_d:
            copy_s = env.map_to("inD", len_d * esize)
            env.unmap("inD")
        else:
            copy_s = 0.0
        gpu_s = (machine.run_kernel(kernel).total + copy_s) if len_d else 0.0
        cpu_s = (
            estimate_cpu_reduction_time(
                machine.cpu, len_h, case.element_type
            ).total
            if len_h
            else 0.0
        )
        trial = _trial_seconds(machine, gpu_s, cpu_s)
        elapsed = trials * trial
        value = _functional_coexec(machine, case, kernel, len_d, do_verify)
        results.append(
            CoExecMeasurement(
                case=case,
                site=site,
                config=config,
                cpu_part=p,
                trials=trials,
                elapsed_seconds=elapsed,
                bandwidth_gbs=gb_per_s(case.input_bytes * trials, elapsed),
                gpu_seconds_steady=gpu_s,
                cpu_seconds_steady=cpu_s,
                migration_seconds=copy_s,
                value=value,
            )
        )
    return CoExecSweep(
        case=case, site=site, config=config, measurements=tuple(results)
    )
