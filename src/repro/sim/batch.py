"""Batch-vectorized slab evaluation of GPU sweep points.

:func:`evaluate_gpu_slab` prices an entire *slab* — a list of
``(case, config, trials, verify)`` points, exactly the payloads of the
executor's ``gpu_point`` task — in a few NumPy passes instead of one
trip through :func:`~repro.core.timing.measure_gpu_reduction` per point.
It produces the same result records, **byte-identical** under
:func:`~repro.sweep.fingerprint.canonical_json`, because it runs the
scalar path's own expressions over arrays (IEEE-754 float64 elementwise
operations are deterministic, so an identical expression tree over
identical inputs yields identical bits):

1. per-point *validation* walks the slab in submission order and raises
   the same exception type and message, at the same first failing point,
   as the serial loop would (trials / divisibility / thread_limit /
   device capacity / occupancy);
2. the one kernel-time model, :func:`~repro.gpu.perf.kernel_times`,
   prices every point in one call over arrays (the scalar path's
   :func:`~repro.gpu.perf.estimate_kernel_time` is the same function on a
   one-entry batch), reading the GPU spec and calibration straight off
   the machine;
3. the Listing 6 per-trial scalar motion is priced once per distinct
   result type and gathered by index;
4. functional values come from the one functional executor,
   :func:`~repro.gpu.exec_model._execute_reduction`, through the
   machine's one value memo
   (:meth:`~repro.core.machine.Machine.functional_values`), keyed by the
   grouping class of the point's schedule
   (:func:`~repro.gpu.exec_model.grouping_key`): integer sums are
   geometry-independent, so one value per (T, R, size) serves every
   geometry; float schedules that cut the same chunks share a value, and
   the executor runs once per distinct class.

Known, intentional divergence from the serial loop: the slab validates
*every* point before computing any, so when two points would both raise,
the earlier point's error wins even if the serial loop would have
recorded some launches first — trace contents on *exception* paths may
differ (successful slabs record identical launch traces, in order).

Fault injection: the executor's worker-side slab task fires the
``slab.evaluate`` point *around* this function (see
:func:`repro.sweep.executor._task_gpu_slab`) so crash / hang / slow /
wrong_result modes interact with the shared-memory transport the way
``worker.task`` interacts with the pickle transport; the evaluator
itself stays a pure function.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.verify import verify_result
from ..errors import LaunchError, MeasurementError, MemoryModelError
from ..gpu.exec_model import _execute_reduction, grouping_key
from ..gpu.kernels import ReductionKernel
from ..gpu.occupancy import warps_per_block
from ..gpu.perf import gather_by_type, kernel_times
from ..memory.migration import MigrationEngine
from ..openmp.heuristics import default_num_teams, default_thread_limit
from ..openmp.reduction_ops import required_arrays
from ..openmp.runtime import LaunchGeometry
from ..telemetry.state import metrics
from .trace import KernelLaunchRecord

__all__ = ["evaluate_gpu_slab", "SLAB_POINT_BUCKETS"]

#: ``slab.points_per_batch`` histogram buckets (points per evaluate call).
SLAB_POINT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0
)


def _resolve_point(machine, gpu, case, config, op: str = "+") -> tuple:
    """Launch geometry + kernel name for one point, scalar-path order.

    Mirrors ``cached_compile(program).launch(...)`` →
    :meth:`~repro.openmp.runtime.DeviceRuntime.resolve_launch` without
    building program/directive objects: clause values first, then ICVs,
    then the heuristics, then the device thread limit check, then the
    round-up to a whole warp.  Non-sum identifiers append the scalar
    path's ``_{op}`` program-name suffix.
    """
    icvs = machine.runtime.icvs
    suffix = "" if op == "+" else f"_{op}"
    if config is not None:
        if case.elements % config.v:
            raise LaunchError(
                f"case {case.name}: M={case.elements} is not divisible by "
                f"v={config.v}"
            )
        v = config.v
        # thread_limit(threads) / num_teams(teams/V) clause evaluations.
        block = config.threads
        grid, from_clause = config.teams // config.v, True
        name = f"{case.name.lower()}_optimized{suffix}_v{v}"
    else:
        v = 1
        if icvs.teams_thread_limit is not None:
            block = min(icvs.teams_thread_limit, gpu.max_threads_per_block)
        elif icvs.thread_limit is not None:
            block = min(icvs.thread_limit, gpu.max_threads_per_block)
        else:
            block = default_thread_limit(None)
        if icvs.num_teams is not None:
            grid, from_clause = icvs.num_teams, False
        else:
            grid, from_clause = default_num_teams(case.elements, block), False
        name = f"{case.name.lower()}_baseline{suffix}_v{v}"
    if block > gpu.max_threads_per_block:
        raise LaunchError(
            f"thread_limit {block} exceeds device maximum "
            f"{gpu.max_threads_per_block}"
        )
    if block % gpu.warp_size:
        block = -(-block // gpu.warp_size) * gpu.warp_size
    return grid, block, from_clause, v, name


def _validate_point(gpu, case, block: int, arrays: int = 1) -> None:
    """The scalar path's post-launch checks, in its order."""
    # DeviceDataEnvironment: map_to("in", M*sizeof(T)) [, map_to("in2",
    # ...) for two-array ops], map_alloc("sum", R).
    capacity = gpu.memory.capacity_bytes
    if case.input_bytes > capacity:
        raise MemoryModelError(
            f"device memory exhausted mapping 'in': "
            f"0 + {case.input_bytes} > {capacity}"
        )
    mapped = case.input_bytes
    if arrays > 1:
        if mapped + case.input_bytes > capacity:
            raise MemoryModelError(
                f"device memory exhausted mapping 'in2': "
                f"{mapped} + {case.input_bytes} > {capacity}"
            )
        mapped += case.input_bytes
    rsize = case.result_type.size
    if mapped + rsize > capacity:
        raise MemoryModelError(
            f"device memory exhausted mapping 'sum': "
            f"{mapped} + {rsize} > {capacity}"
        )
    # estimate_kernel_time(): the block must fit on an SM.
    warps_per_block(gpu, block)


def _value_for(machine, case, grid: int, block: int, v: int, name: str,
               do_verify: bool, op: str = "+"):
    """Functional value for one point, through the machine's value memo.

    The value comes from the *same* executor as the scalar path
    (byte-identity by construction), keyed by the grouping class the
    point's schedule induces on the whole workload — every integer sum
    shares one entry per (T, R, size), and float schedules that cut the
    same chunks share theirs.  Verification (against the host reference)
    runs once per key.
    """
    n = machine.functional_elements(case)
    rtype = case.result_type

    def compute():
        kernel = ReductionKernel(
            name=name,
            geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
            elements=case.elements,
            elements_per_iteration=v,
            element_type=case.element_type,
            result_type=rtype,
            identifier=op,
            arrays=required_arrays(op),
        )
        second = machine.workload_pair(case) if op == "dot" else None
        return _execute_reduction(machine.workload(case), kernel, second)

    def check(values):
        second = machine.workload_pair(case) if op == "dot" else None
        verify_result(values[0], machine.workload(case), rtype, op, second)

    grouping = grouping_key(n, rtype, op, grid, block, v)
    [value] = machine.functional_values(
        case, op, [(0, n, grouping, compute)], check if do_verify else None
    )
    return value


def evaluate_gpu_slab(machine, payloads: Sequence[tuple]) -> List[dict]:
    """Evaluate a slab of ``gpu_point`` payloads in a few NumPy passes.

    Parameters
    ----------
    machine:
        The :class:`~repro.core.machine.Machine` the points run on.
    payloads:
        ``(case, config, trials, verify)`` tuples, exactly as built by
        :meth:`~repro.sweep.executor.SweepExecutor.gpu_points`; non-sum
        reductions append a fifth ``op`` element (identifier string).

    Returns
    -------
    list of dict
        One ``{"bandwidth_gbs", "elapsed_seconds", "value"}`` record per
        payload, in submission order — byte-identical (canonical JSON)
        to the records of the scalar ``_task_gpu_point`` loop.
    """
    payloads = list(payloads)
    n = len(payloads)
    metrics().histogram(
        "slab.points_per_batch", boundaries=SLAB_POINT_BUCKETS
    ).observe(n)
    if n == 0:
        return []
    gpu = machine.gpu

    # -- pass 1: validate in submission order; gather per-point scalars
    # (appended to lists, one array per column after the loop).
    grid_c: List[int] = []
    block_c: List[int] = []
    v_c: List[int] = []
    trip_c: List[int] = []
    input_bytes_c: List[int] = []
    trials_c: List[float] = []
    etypes: List[str] = []
    rtypes: List[str] = []
    from_clause: List[bool] = []
    names: List[str] = []
    ops: List[str] = []
    for payload in payloads:
        case, config, trials, _verify = payload[:4]
        op = payload[4] if len(payload) > 4 else "+"
        ops.append(op)
        if trials <= 0:
            raise MeasurementError(f"trials must be positive, got {trials}")
        g, b, fc, v, name = _resolve_point(machine, gpu, case, config, op)
        arrays = required_arrays(op)
        _validate_point(gpu, case, b, arrays)
        grid_c.append(g)
        block_c.append(b)
        v_c.append(v)
        trip_c.append(case.elements // v)
        from_clause.append(fc)
        names.append(name)
        etypes.append(case.element_type.name)
        rtypes.append(case.result_type.name)
        # Mirrors kernel.input_bytes: dot streams both operands, so its
        # memory term and bandwidth numerator count both arrays.
        input_bytes_c.append(case.input_bytes * arrays)
        trials_c.append(trials)
    input_bytes = np.array(input_bytes_c, dtype=np.float64)
    trials_arr = np.array(trials_c, dtype=np.float64)

    # -- pass 2: the kernel-time model over the whole slab.
    total = kernel_times(
        gpu, machine.calibration, grid_c, block_c, v_c, trip_c, input_bytes,
        etypes, rtypes,
    ).total

    # Listing 6: per-trial `target update to/from` of the R scalar (a
    # bulk copy, which no page size enters).
    copy_s = MigrationEngine(machine.link, page_bytes=1).bulk_copy_seconds
    [copy] = gather_by_type(rtypes, lambda rtype: copy_s(rtype.size))
    trial_seconds = (copy + copy) + total
    elapsed = trials_arr * trial_seconds
    bandwidth = input_bytes * trials_arr / 1e9 / elapsed

    # -- pass 3: launch trace (submission order, like the serial loop).
    # Python floats via tolist(): the same values as per-element float()
    # conversions, without a NumPy scalar per read.
    record_launch = machine.trace.record_launch
    for i, duration in enumerate(total.tolist()):
        record_launch(
            KernelLaunchRecord(
                time=0.0,
                name=names[i],
                grid=grid_c[i],
                block=block_c[i],
                elements=payloads[i][0].elements,
                from_clause=from_clause[i],
                duration=duration,
            )
        )

    # -- pass 4: functional values + records.
    strict = machine.config.strict_verify
    records: List[dict] = []
    for i, (bw, seconds) in enumerate(zip(bandwidth.tolist(),
                                          elapsed.tolist())):
        case, verify = payloads[i][0], payloads[i][3]
        do_verify = strict if verify is None else verify
        value = _value_for(machine, case, grid_c[i], block_c[i], v_c[i],
                           names[i], do_verify, ops[i])
        records.append(
            {
                "bandwidth_gbs": bw,
                "elapsed_seconds": seconds,
                "value": value.item(),
            }
        )
    return records
