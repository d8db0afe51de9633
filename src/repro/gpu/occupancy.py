"""Occupancy calculation: how many blocks/warps are resident per SM.

The reduction kernels use no shared memory and few registers, so the only
binding limits are the architectural caps: resident warps per SM and
resident blocks per SM.  The result drives the memory-level-parallelism
model — the paper's saturation thresholds (4096 teams for C1/C3/C4, 32768
for C2) fall exactly where the grid first fills every SM to its residency
limit with enough bytes in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LaunchError
from ..hardware.spec import GpuSpec
from ..util.validation import check_positive_int

__all__ = ["OccupancyResult", "occupancy", "residency", "warps_per_block"]


@dataclass(frozen=True)
class OccupancyResult:
    """Residency outcome for a launch of ``grid`` x ``block`` threads."""

    grid: int
    block: int
    warps_per_block: int
    blocks_per_sm: int
    active_blocks: int      # blocks simultaneously resident on the GPU
    active_warps: int       # warps simultaneously resident on the GPU
    waves: int              # ceil(grid / concurrent-block capacity)


def warps_per_block(gpu: GpuSpec, block: int) -> int:
    """Warps a *block*-thread team occupies on *gpu*.

    Raises
    ------
    LaunchError
        If the block exceeds the device's thread limit or needs more warps
        than one SM can hold.
    """
    if block > gpu.max_threads_per_block:
        raise LaunchError(
            f"block size {block} exceeds device maximum "
            f"{gpu.max_threads_per_block}"
        )
    warps = -(-block // gpu.warp_size)
    if warps > gpu.max_warps_per_sm:
        raise LaunchError(
            f"a {block}-thread block needs {warps} warps, more "
            f"than the {gpu.max_warps_per_sm} an SM can hold"
        )
    return warps


def residency(gpu: GpuSpec, grid, warps):
    """``(blocks_per_sm, active_blocks)`` for *grid* teams of *warps* warps.

    Works elementwise on integers or integer arrays of already-validated
    launches (see :func:`warps_per_block`).
    """
    blocks_per_sm = np.minimum(
        gpu.max_blocks_per_sm, gpu.max_warps_per_sm // warps
    )
    return blocks_per_sm, np.minimum(grid, gpu.sms * blocks_per_sm)


def occupancy(gpu: GpuSpec, grid: int, block: int) -> OccupancyResult:
    """Compute residency for a ``grid`` x ``block`` launch on *gpu*.

    Raises
    ------
    LaunchError
        If the block size exceeds device limits.
    """
    check_positive_int(grid, "grid")
    check_positive_int(block, "block")
    warps = warps_per_block(gpu, block)
    blocks_per_sm, active_blocks = residency(gpu, grid, warps)
    blocks_per_sm, active_blocks = int(blocks_per_sm), int(active_blocks)
    return OccupancyResult(
        grid=grid,
        block=block,
        warps_per_block=warps,
        blocks_per_sm=blocks_per_sm,
        active_blocks=active_blocks,
        active_warps=active_blocks * warps,
        waves=-(-grid // (gpu.sms * blocks_per_sm)),
    )
