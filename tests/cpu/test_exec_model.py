"""Tests for the functional host executor."""

import numpy as np
import pytest

from repro.cpu.exec_model import execute_host_reduction
from repro.dtypes import FLOAT32, INT32, INT64, SCALAR_TYPES
from repro.errors import UnsupportedReductionError
from repro.gpu.exec_model import execute_reduction
from repro.gpu.kernels import ReductionKernel
from repro.hardware import grace_cpu
from repro.openmp.reduction_ops import (
    ALL_REDUCTION_IDENTIFIERS,
    required_arrays,
    validate_reduction,
)
from repro.openmp.runtime import LaunchGeometry


@pytest.fixture(scope="module")
def cpu():
    return grace_cpu()


class TestHostReduction:
    def test_matches_numpy(self, cpu, rng):
        data = rng.integers(-100, 100, size=123_457).astype(np.int32)
        assert execute_host_reduction(data, cpu, INT32) == data.sum(dtype=np.int32)

    def test_wraps_in_result_type(self, cpu):
        data = np.full(4, 2**30, dtype=np.int32)
        assert execute_host_reduction(data, cpu, INT32) == np.int32(0)

    def test_widening(self, cpu):
        data = np.full(1 << 20, 127, dtype=np.int8)
        out = execute_host_reduction(data, cpu, INT64)
        assert out == 127 * (1 << 20)

    def test_float_grouping_tolerance(self, cpu, rng):
        data = rng.random(1 << 16).astype(np.float32)
        out = execute_host_reduction(data, cpu, FLOAT32)
        assert float(out) == pytest.approx(float(data.sum(dtype=np.float64)),
                                           rel=1e-5)

    def test_empty(self, cpu):
        assert execute_host_reduction(np.empty(0, dtype=np.int32), cpu, INT32) == 0

    def test_fewer_elements_than_cores(self, cpu):
        data = np.arange(5, dtype=np.int32)
        assert execute_host_reduction(data, cpu, INT32) == 10

    def test_2d_rejected(self, cpu):
        with pytest.raises(ValueError):
            execute_host_reduction(np.ones((2, 2), dtype=np.int32), cpu, INT32)

    def test_result_dtype(self, cpu):
        data = np.ones(8, dtype=np.int8)
        out = execute_host_reduction(data, cpu, INT64)
        assert out.dtype == np.dtype("int64")


def _empty_input_cases():
    for ident in ALL_REDUCTION_IDENTIFIERS:
        for rname in ("int8", "int32", "int64"):
            try:
                validate_reduction(ident, rname)
            except UnsupportedReductionError:
                continue
            yield ident, rname


@pytest.mark.parametrize("ident,rname", list(_empty_input_cases()))
def test_empty_input_identity_matches_device(cpu, ident, rname):
    # An empty reduction returns the identifier's identity (1 for '*',
    # -1 for '&', 1 for '&&', ...) on host and device alike.
    rtype = SCALAR_TYPES[rname]
    empty = np.empty(0, dtype=np.int32)
    second = empty if ident == "dot" else None
    kernel = ReductionKernel(
        name="empty",
        geometry=LaunchGeometry(grid=4, block=32, from_clause=True),
        elements=128,
        elements_per_iteration=1,
        element_type=INT32,
        result_type=rtype,
        identifier=ident,
        arrays=required_arrays(ident),
    )
    device = execute_reduction(empty, kernel, second)
    host = execute_host_reduction(empty, cpu, rtype, ident, second)
    assert host.dtype == device.dtype
    assert host.tobytes() == device.tobytes()
