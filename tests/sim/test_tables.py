"""The batched kernel-time model's per-type tables and residency arrays.

:func:`~repro.gpu.perf.kernel_times` prices a slab with one table of
calibration constants per *distinct* type, gathered by index, and one
residency computation over arrays.  These tests pin that a batch mixing
every dtype hands each entry its own type's constants and matches the
scalar memory-system and occupancy calculators, and that the slab's
pass-1 launch check fails with the scalar model's exact message.
"""

import dataclasses

import numpy as np
import pytest

from repro import Machine, ReproConfig
from repro.config import DEFAULT_CONFIG
from repro.core.cases import Case
from repro.core.optimized import KernelConfig
from repro.core.timing import measure_gpu_reduction
from repro.dtypes import SCALAR_TYPES
from repro.errors import LaunchError
from repro.gpu.memory_system import achievable_bandwidth_gbs
from repro.gpu.occupancy import occupancy, residency
from repro.gpu.perf import gather_by_type, kernel_times
from repro.sim.batch import evaluate_gpu_slab

#: Every dtype, in a mixed order with repeats.
_MIXED = ["int32", "float64", "int8", "int32", "float32", "int64", "int8"]


@pytest.fixture(scope="module")
def machine():
    return Machine(config=DEFAULT_CONFIG.with_cap(1 << 14))


class TestScalarParity:
    @pytest.mark.parametrize("dtype", sorted(SCALAR_TYPES))
    @pytest.mark.parametrize("v", [1, 2, 4, 8, 16])
    def test_inflight_matches_scalar(self, machine, dtype, v):
        # A mixed batch: entry i must see its own type's constants.
        gpu, cal = machine.gpu, machine.calibration
        types = _MIXED + [dtype]
        n = len(types)
        grid, block, trip = 4096, 256, 1 << 20
        input_bytes = [trip * v * SCALAR_TYPES[t].size for t in types]
        times = kernel_times(gpu, cal, [grid] * n, [block] * n, [v] * n,
                             [trip] * n, input_bytes, types, types)
        warps = occupancy(gpu, grid, block).active_warps
        for i, t in enumerate(types):
            bw = achievable_bandwidth_gbs(gpu, warps, v, t, cal)
            assert times.memory[i] == input_bytes[i] / (bw * 1e9)

    @pytest.mark.parametrize("dtype", sorted(SCALAR_TYPES))
    def test_rows_cover_every_dtype(self, dtype):
        types = _MIXED + [SCALAR_TYPES[dtype], dtype]
        [size] = gather_by_type(types, lambda t: t.size)
        assert size.tolist() == [SCALAR_TYPES[t].size for t in _MIXED] + [
            SCALAR_TYPES[dtype].size
        ] * 2

    @pytest.mark.parametrize(
        "grid,block",
        [(1, 32), (16, 64), (132, 128), (4096, 256), (100_000, 1024), (7, 96)],
    )
    def test_occupancy_matches_scalar(self, machine, grid, block):
        occ = occupancy(machine.gpu, grid, block)
        warps = np.asarray([occ.warps_per_block], dtype=np.int64)
        bps, active_blocks = residency(
            machine.gpu, np.asarray([grid], dtype=np.int64), warps
        )
        assert int(bps[0]) == occ.blocks_per_sm
        assert int((active_blocks * warps)[0]) == occ.active_warps

    def test_occupancy_error_message_parity(self, machine):
        # On the real profile max_threads_per_block binds before the warp
        # cap, so shrink the warp cap to make the warp branch reachable in
        # both paths and compare the exact messages.
        gpu = dataclasses.replace(machine.system.gpu, max_warps_per_sm=16)
        system = dataclasses.replace(machine.system, gpu=gpu)
        scalar = Machine(system=system, config=ReproConfig(slab=False))
        slab = Machine(system=system, config=ReproConfig(slab=True))
        block = gpu.max_threads_per_block  # 32 warps > 16
        case = Case("W", "int32", "int32", 1 << 12)
        config = KernelConfig(teams=1024, v=1, threads=block)
        with pytest.raises(LaunchError) as scalar_err:
            measure_gpu_reduction(scalar, case, config, trials=1)
        with pytest.raises(LaunchError) as slab_err:
            evaluate_gpu_slab(slab, [(case, config, 1, None)])
        assert str(slab_err.value) == str(scalar_err.value)
        assert "warps" in str(slab_err.value)
