"""Tests for the kernel-time model."""

import pytest

from repro.dtypes import INT32, INT64, INT8
from repro.gpu.kernels import ReductionKernel
from repro.gpu.perf import estimate_kernel_time
from repro.hardware import hopper_gpu
from repro.openmp.runtime import LaunchGeometry


@pytest.fixture(scope="module")
def gpu():
    return hopper_gpu()


def _kernel(grid, block, elements, v=1, t=INT32, r=None):
    return ReductionKernel(
        name="k",
        geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
        elements=elements,
        elements_per_iteration=v,
        element_type=t,
        result_type=r or t,
    )


class TestRegimes:
    def test_heuristic_grid_is_block_latency_bound(self, gpu):
        # Listing 2's geometry for C1: 8.2M single-iteration blocks.
        timing = estimate_kernel_time(gpu, _kernel(8_192_000, 128, 1_048_576_000))
        assert timing.bottleneck == "block_latency"
        assert not timing.memory_bound

    def test_optimized_grid_is_memory_bound(self, gpu):
        timing = estimate_kernel_time(
            gpu, _kernel(16384, 256, 1_048_576_000, v=4)
        )
        assert timing.memory_bound
        assert timing.bottleneck == "memory"

    def test_tiny_grid_is_underfilled_memory_bound(self, gpu):
        small = estimate_kernel_time(gpu, _kernel(32, 256, 1_048_576_000, v=4))
        big = estimate_kernel_time(gpu, _kernel(16384, 256, 1_048_576_000, v=4))
        assert small.total > 10 * big.total  # paper: small teams starve BW


class TestMonotonicity:
    def test_time_decreases_with_grid_until_saturation(self, gpu):
        times = [
            estimate_kernel_time(gpu, _kernel(g, 256, 1 << 30, v=4)).total
            for g in (32, 128, 512, 2048, 8192)
        ]
        assert all(t2 <= t1 * 1.001 for t1, t2 in zip(times, times[1:]))

    def test_time_scales_with_elements_when_memory_bound(self, gpu):
        t1 = estimate_kernel_time(gpu, _kernel(16384, 256, 1 << 28, v=4)).total
        t2 = estimate_kernel_time(gpu, _kernel(16384, 256, 1 << 30, v=4)).total
        # Body scales 4x; launch latency is constant.
        assert t2 / t1 == pytest.approx(4.0, rel=0.05)


class TestComponents:
    def test_launch_latency_constant(self, gpu):
        a = estimate_kernel_time(gpu, _kernel(128, 256, 1 << 20, v=4))
        b = estimate_kernel_time(gpu, _kernel(8192, 256, 1 << 30, v=4))
        assert a.launch == b.launch == pytest.approx(4e-6)

    def test_int8_issue_cost_exceeds_int32(self, gpu):
        k8 = _kernel(2048, 256, 1 << 30, v=32, t=INT8, r=INT64)
        k32 = _kernel(2048, 256, 1 << 30, v=8, t=INT32)
        t8 = estimate_kernel_time(gpu, k8)
        t32 = estimate_kernel_time(gpu, k32)
        # Same trip count and geometry; int8 issues more per iteration.
        assert t8.issue > t32.issue

    def test_total_is_launch_plus_max(self, gpu):
        t = estimate_kernel_time(gpu, _kernel(16384, 256, 1 << 30, v=4))
        assert t.total == pytest.approx(
            t.launch + max(t.memory, t.issue, t.block_latency)
        )
