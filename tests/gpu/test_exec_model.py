"""Tests for the functional device executor."""

import numpy as np
import pytest

from repro.dtypes import FLOAT32, FLOAT64, INT32, INT64, INT8
from repro.gpu.exec_model import execute_reduction, thread_chunk_starts
from repro.gpu.kernels import ReductionKernel
from repro.openmp.runtime import LaunchGeometry


def _kernel(grid=8, block=32, v=1, t=INT32, r=None, elements=1 << 16,
            identifier="+"):
    return ReductionKernel(
        name="k",
        geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
        elements=elements,
        elements_per_iteration=v,
        element_type=t,
        result_type=r or t,
        identifier=identifier,
    )


class TestThreadChunkStarts:
    def test_covers_whole_array(self):
        starts, team_starts = thread_chunk_starts(1000, grid=4, block=8, v=1)
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)
        assert starts[-1] < 1000

    def test_v_scales_offsets(self):
        s1, _ = thread_chunk_starts(1024, 2, 4, 1)
        s4, _ = thread_chunk_starts(1024, 2, 4, 4)
        assert np.all(s4 % 4 == 0)
        assert len(s4) <= len(s1)

    def test_more_threads_than_iterations(self):
        starts, team_starts = thread_chunk_starts(10, grid=64, block=32, v=1)
        # one-iteration chunks, only 10 of them
        assert len(starts) == 10
        np.testing.assert_array_equal(starts, np.arange(10))

    def test_team_boundaries_sorted(self):
        _, team_starts = thread_chunk_starts(100000, 16, 8, 2)
        assert np.all(np.diff(team_starts) > 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            thread_chunk_starts(0, 1, 1, 1)


class TestIntegerCorrectness:
    def test_matches_numpy_sum(self, rng):
        data = rng.integers(-100, 100, size=100_000).astype(np.int32)
        result = execute_reduction(data, _kernel(grid=64, block=128))
        assert result == data.sum(dtype=np.int32)

    @pytest.mark.parametrize("grid,block,v", [(1, 32, 1), (7, 32, 1),
                                              (64, 256, 4), (4096, 128, 32)])
    def test_geometry_invariance_for_ints(self, rng, grid, block, v):
        # Modular addition is associative: ANY partitioning yields the
        # same wrapped sum.
        data = rng.integers(-(2**31), 2**31, size=65_536, dtype=np.int64)
        data = data.astype(np.int32)  # values spanning the full range
        expected = data.sum(dtype=np.int32)
        got = execute_reduction(data, _kernel(grid=grid, block=block, v=v))
        assert got == expected

    def test_int32_wraparound(self):
        data = np.full(4, 2**30, dtype=np.int32)
        result = execute_reduction(data, _kernel(grid=2, block=32))
        assert result == np.int32(0)  # 4 * 2^30 mod 2^32

    def test_int8_widening_to_int64(self, rng):
        # The paper's C2 pairing: int8 inputs, int64 accumulator.
        data = rng.integers(-128, 128, size=1 << 16).astype(np.int8)
        result = execute_reduction(data, _kernel(t=INT8, r=INT64, v=32))
        assert result.dtype == np.dtype("int64")
        assert result == data.sum(dtype=np.int64)

    def test_int8_would_overflow_int8(self, rng):
        data = np.full(1000, 100, dtype=np.int8)
        result = execute_reduction(data, _kernel(t=INT8, r=INT64))
        assert result == 100_000  # far beyond int8 range


class TestFloatCorrectness:
    def test_float32_close_to_reference(self, rng):
        data = rng.random(1 << 16).astype(np.float32)
        result = execute_reduction(data, _kernel(t=FLOAT32, v=4))
        assert result == pytest.approx(float(data.sum(dtype=np.float64)),
                                       rel=1e-5)

    def test_float64_close_to_reference(self, rng):
        data = rng.random(1 << 16).astype(np.float64)
        result = execute_reduction(data, _kernel(t=FLOAT64, v=4))
        assert result == pytest.approx(float(data.sum()), rel=1e-12)

    def test_deterministic(self, rng):
        data = rng.random(10_000).astype(np.float32)
        k = _kernel(t=FLOAT32, grid=16, block=64)
        assert execute_reduction(data, k) == execute_reduction(data, k)


class TestOtherIdentifiers:
    def test_max(self, rng):
        data = rng.integers(-1000, 1000, size=4096).astype(np.int32)
        assert execute_reduction(data, _kernel(identifier="max")) == data.max()

    def test_min(self, rng):
        data = rng.integers(-1000, 1000, size=4096).astype(np.int32)
        assert execute_reduction(data, _kernel(identifier="min")) == data.min()

    def test_bitwise_and(self):
        data = np.array([0b1110, 0b0111] * 100, dtype=np.int32)
        assert execute_reduction(data, _kernel(identifier="&")) == 0b0110

    def test_bitwise_xor(self, rng):
        data = rng.integers(0, 1 << 30, size=999).astype(np.int32)
        assert execute_reduction(data, _kernel(identifier="^")) == \
            np.bitwise_xor.reduce(data)

    def test_logical_and(self):
        data = np.ones(512, dtype=np.int32)
        assert execute_reduction(data, _kernel(identifier="&&")) == 1
        data[100] = 0
        assert execute_reduction(data, _kernel(identifier="&&")) == 0

    def test_logical_or(self):
        data = np.zeros(512, dtype=np.int32)
        assert execute_reduction(data, _kernel(identifier="||")) == 0
        data[13] = -5
        assert execute_reduction(data, _kernel(identifier="||")) == 1

    def test_product(self):
        data = np.full(10, 2, dtype=np.int64)
        assert execute_reduction(data, _kernel(t=INT64, identifier="*")) == 1024


class TestEdges:
    def test_empty_array_returns_identity(self):
        out = execute_reduction(np.empty(0, dtype=np.int32), _kernel())
        assert out == 0

    def test_single_element(self):
        out = execute_reduction(np.array([42], dtype=np.int32), _kernel())
        assert out == 42

    def test_ragged_tail_with_v(self, rng):
        # Array length not divisible by V: the tail iteration is short.
        data = rng.integers(-50, 50, size=1003).astype(np.int32)
        out = execute_reduction(data, _kernel(v=4))
        assert out == data.sum(dtype=np.int32)

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            execute_reduction(np.ones(8, dtype=np.float32), _kernel())

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            execute_reduction(np.ones((4, 4), dtype=np.int32), _kernel())
