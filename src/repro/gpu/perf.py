"""Analytic kernel-time model.

``time = launch + max(memory, issue, block_latency, atomic)`` with

* **memory**: input bytes over the achievable bandwidth from
  :mod:`repro.gpu.memory_system` (occupancy- and V-dependent);
* **issue**: total warp instructions over the GPU's aggregate issue rate —
  the compute-bound regime the paper notes for small team counts
  ("The increase turns a compute-bound kernel into a memory-bound kernel");
* **block latency**: each SM residency slot runs its share of the grid
  *serially*; one block's wall time is bounded below by its dependent
  chain — per iteration a load round-trip plus the serial accumulates —
  plus the end-of-team combine.  With the runtime-heuristic grids
  (millions of single-iteration blocks, Listing 2) this term dominates and
  produces the paper's 4.3-15.4% baseline efficiencies; with the
  optimized grids it collapses to noise;
* **atomic**: the same-address global atomics of the atomic lowerings
  (:mod:`repro.gpu.strategies`), which serialize; zero for TREE.

The model is written once, elementwise over NumPy arrays
(:func:`kernel_times`): :func:`estimate_kernel_time` prices one kernel as
a one-entry batch, and the slab evaluator (:mod:`repro.sim.batch`) prices
a whole sweep with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..dtypes import scalar_type
from ..hardware.spec import GpuSpec
from .calibration import GpuCalibration, DEFAULT_CALIBRATION
from .kernels import ReductionKernel
from .memory_system import littles_law_bandwidth_gbs
from .occupancy import residency, warps_per_block
from .strategies import ReductionStrategy, atomic_ops, atomic_same_address_ns

__all__ = ["KernelTiming", "KernelTimes", "estimate_kernel_time",
           "gather_by_type", "kernel_times"]


@dataclass(frozen=True)
class KernelTiming:
    """Decomposed kernel-time prediction (all in seconds)."""

    launch: float
    memory: float
    issue: float
    block_latency: float
    atomic: float = 0.0

    @property
    def total(self) -> float:
        return self.launch + max(
            self.memory, self.issue, self.block_latency, self.atomic
        )

    @property
    def memory_bound(self) -> bool:
        """True when DRAM traffic sets the kernel body time."""
        return self.memory >= max(self.issue, self.block_latency, self.atomic)

    @property
    def bottleneck(self) -> str:
        """Name of the dominant body term."""
        parts = {
            "memory": self.memory,
            "issue": self.issue,
            "block_latency": self.block_latency,
            "atomic": self.atomic,
        }
        return max(parts, key=parts.get)


class KernelTimes(NamedTuple):
    """Elementwise kernel-time terms of a batch (seconds, float64 arrays);
    :class:`KernelTiming`'s fields, in order, then their ``total``."""

    launch: float
    memory: np.ndarray
    issue: np.ndarray
    block_latency: np.ndarray
    atomic: np.ndarray
    total: np.ndarray


def gather_by_type(types: Sequence, *lookups):
    """One float64 array per *lookup*, entry i the lookup of ``types[i]``.

    Each lookup runs once per distinct type; the values are gathered by
    index, so a batch pays a dict probe per entry, not a calibration read.
    """
    index = {t: i for i, t in enumerate(dict.fromkeys(types))}
    codes = np.array(list(map(index.__getitem__, types)), dtype=np.intp)
    table = np.array(
        [[lookup(scalar_type(t)) for lookup in lookups] for t in index],
        dtype=np.float64,
    )
    return table[codes].T


def kernel_times(
    gpu: GpuSpec, calibration: GpuCalibration, grid, block, v, trip,
    input_bytes, element_types: Sequence, result_types: Sequence,
    strategy: ReductionStrategy = ReductionStrategy.TREE,
) -> KernelTimes:
    """Predict the times of a batch of launches on *gpu*, elementwise.

    Entry i is one kernel: ``grid[i]`` x ``block[i]`` threads running the
    ``trip[i]``-iteration Listing 5 loop that accumulates ``v[i]``
    elements of ``element_types[i]`` per iteration into a
    ``result_types[i]`` and streams ``input_bytes[i]`` bytes, lowered
    with *strategy*.  Types are :class:`~repro.dtypes.ScalarType` objects
    or names.  The launches must be valid (see
    :func:`~repro.gpu.occupancy.warps_per_block`).
    """
    grid = np.asarray(grid, dtype=np.int64)
    block = np.asarray(block, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    trip = np.asarray(trip, dtype=np.float64)
    input_bytes = np.asarray(input_bytes, dtype=np.float64)
    size, efficiency, inflight_scale, elem_cycles, iter_fixed = gather_by_type(
        element_types,
        lambda t: t.size,
        calibration.efficiency_for,
        calibration.inflight_scale_for,
        calibration.element_issue_for,
        calibration.iter_fixed_for,
    )
    combine_cycles, atomic_ns = gather_by_type(
        result_types, calibration.combine_cycles_for, atomic_same_address_ns
    )
    clock_hz = gpu.clock_ghz * 1e9

    # Residency.
    warps = -(-block // gpu.warp_size)
    blocks_per_sm, active_blocks = residency(gpu, grid, warps)

    # Memory term.
    bw = littles_law_bandwidth_gbs(
        gpu, calibration, active_blocks * warps, v, size, inflight_scale,
        efficiency,
    )
    memory_time = input_bytes / (bw * 1e9)

    # Issue term: the whole iteration space, one warp-instruction bundle
    # per 32 thread-iterations, over the GPU's aggregate issue throughput.
    insts_per_iter = calibration.loop_overhead_insts + iter_fixed + v * elem_cycles
    warp_insts = trip * insts_per_iter / gpu.warp_size
    issue_time = warp_insts / (gpu.sms * gpu.issue_rate_ipc * clock_hz)

    # Block-latency term: blocks_per_slot blocks run serially per residency
    # slot; a block's wall time is its dependent chain.  Within one
    # iteration the V loads issue back-to-back and overlap (one memory
    # round-trip), but iterations serialize on the accumulator.  The chain
    # uses the *average* iterations per thread (static chunks differ by at
    # most one and late blocks retire early), floored at one round-trip.
    latency_cycles = gpu.memory.latency_ns * 1e-9 * clock_hz
    chain_per_iter = latency_cycles + v * elem_cycles
    avg_iterations = np.maximum(1.0, trip / (grid * block))
    # The end-of-team epilogue depends on the strategy: the TREE lowering
    # pays the full calibrated combine; the atomic strategies replace it
    # with a short (or no) in-block phase plus global atomics below.
    if strategy is ReductionStrategy.TREE:
        epilogue = combine_cycles
    elif strategy is ReductionStrategy.WARP_ATOMIC:
        epilogue = 120.0  # 5-level warp shuffle tree
    else:  # THREAD_ATOMIC
        epilogue = 0.0
    block_cycles = (
        calibration.block_setup_cycles
        + avg_iterations * chain_per_iter
        + epilogue
    )
    blocks_per_slot = -(-grid // (gpu.sms * blocks_per_sm))
    block_latency = blocks_per_slot * block_cycles / clock_hz

    # Same-address global atomics serialize at the memory subsystem.
    n_atomics = atomic_ops(strategy, grid, warps, block)
    atomic_time = n_atomics * atomic_ns * 1e-9

    launch = gpu.kernel_launch_latency_us * 1e-6
    body = np.maximum(
        np.maximum(np.maximum(memory_time, issue_time), block_latency),
        atomic_time,
    )
    return KernelTimes(
        launch=launch,
        memory=memory_time,
        issue=issue_time,
        block_latency=block_latency,
        atomic=atomic_time,
        total=launch + body,
    )


def estimate_kernel_time(
    gpu: GpuSpec,
    kernel: ReductionKernel,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
) -> KernelTiming:
    """Predict the execution time of *kernel* on *gpu*.

    A one-entry :func:`kernel_times` batch.

    Raises
    ------
    LaunchError
        If the kernel's block cannot launch on *gpu*.
    """
    geo = kernel.geometry
    warps_per_block(gpu, geo.block)
    times = kernel_times(
        gpu, calibration, [geo.grid], [geo.block],
        [kernel.elements_per_iteration], [kernel.trip_count],
        [kernel.input_bytes], [kernel.element_type], [kernel.result_type],
        kernel.strategy,
    )
    return KernelTiming(times.launch, *(float(t[0]) for t in times[1:5]))
