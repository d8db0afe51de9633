"""GPU memory-system model: achievable bandwidth via Little's law.

A streaming kernel sustains ``bytes_in_flight / latency`` until it hits the
DRAM ceiling.  Bytes in flight grow with (a) resident warps — set by grid
size and occupancy — and (b) bytes each warp keeps outstanding, which grows
with the per-iteration access width ``V * sizeof(T)`` up to an LSU cap.

This single mechanism explains the paper's central observation: the
baseline (V=1) curves need many more teams to approach peak and plateau
lower, while V=4 (32-bit types) or V=32 (int8) saturates ~89-95% of peak
once the grid fills the machine (Fig. 1a-d).
"""

from __future__ import annotations

import numpy as np

from ..dtypes import scalar_type
from ..hardware.spec import GpuSpec
from ..util.validation import check_positive_int
from .calibration import GpuCalibration, DEFAULT_CALIBRATION

__all__ = [
    "warp_inflight_bytes",
    "achievable_bandwidth_gbs",
    "littles_law_bandwidth_gbs",
]


def _inflight_bytes(gpu, calibration, v, size, inflight_scale):
    """``warp_size * V * size`` clamped to the LSU cap, scaled by the
    pipelining slack, then derated per element type (elementwise)."""
    raw = gpu.warp_size * v * size
    capped = np.minimum(raw, calibration.warp_inflight_cap_bytes)
    return capped * calibration.mlp_scale * inflight_scale


def littles_law_bandwidth_gbs(
    gpu: GpuSpec,
    calibration: GpuCalibration,
    active_warps,
    v,
    size,
    inflight_scale,
    efficiency,
):
    """Elementwise sustained read bandwidth (GB/s).

    ``min(efficiency * peak, active_warps * inflight_bytes / latency)``
    over integers or arrays: *size*, *inflight_scale* and *efficiency*
    are the element type's width and calibration constants, one per
    entry (or one for all).
    """
    per_warp = _inflight_bytes(gpu, calibration, v, size, inflight_scale)
    latency_s = gpu.memory.latency_ns * 1e-9
    concurrency_gbs = active_warps * per_warp / latency_s / 1e9
    ceiling_gbs = efficiency * gpu.memory.peak_bandwidth_gbs
    return np.minimum(ceiling_gbs, concurrency_gbs)


def warp_inflight_bytes(
    gpu: GpuSpec,
    elements_per_iteration: int,
    element_type,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Bytes one warp keeps in flight toward DRAM.

    ``warp_size * V * sizeof(T)`` — a warp issues one V-element-wide
    contiguous access per thread per iteration — clamped to the calibrated
    LSU/MSHR cap and scaled by the pipelining slack factor.
    """
    v = check_positive_int(elements_per_iteration, "elements_per_iteration")
    st = scalar_type(element_type)
    return float(_inflight_bytes(
        gpu, calibration, v, st.size, calibration.inflight_scale_for(st)
    ))


def achievable_bandwidth_gbs(
    gpu: GpuSpec,
    active_warps: int,
    elements_per_iteration: int,
    element_type,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Sustained read bandwidth (GB/s) for a resident-warp population.

    ``min(efficiency(T) * peak, active_warps * inflight_bytes / latency)``.
    """
    check_positive_int(active_warps, "active_warps")
    v = check_positive_int(elements_per_iteration, "elements_per_iteration")
    st = scalar_type(element_type)
    return float(littles_law_bandwidth_gbs(
        gpu, calibration, active_warps, v, st.size,
        calibration.inflight_scale_for(st), calibration.efficiency_for(st),
    ))
