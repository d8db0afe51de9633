"""Property-based tests on the performance models.

Invariants: times are positive and finite; more parallelism never hurts
(until saturation, where it plateaus); bandwidth never exceeds the
efficiency ceiling; occupancy never exceeds architectural caps; and the
batched kernel-time model equals an independent scalar oracle bit for bit.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.dtypes import SCALAR_TYPES
from repro.gpu.kernels import ReductionKernel
from repro.gpu.memory_system import achievable_bandwidth_gbs
from repro.gpu.occupancy import occupancy
from repro.gpu.perf import estimate_kernel_time, kernel_times
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.gpu.strategies import ATOMIC_SAME_ADDRESS_NS, ReductionStrategy
from repro.hardware import hopper_gpu
from repro.hardware.profiles import system_for_profile
from repro.openmp.runtime import LaunchGeometry

GPU = hopper_gpu()

grids = st.integers(min_value=1, max_value=1 << 24)
blocks = st.sampled_from([32, 64, 128, 256, 512, 1024])
vs = st.sampled_from([1, 2, 4, 8, 16, 32])
types = st.sampled_from(sorted(SCALAR_TYPES))


def _kernel(grid, block, v, t, elements=1 << 26):
    r = "int64" if t == "int8" else t
    return ReductionKernel(
        name="k",
        geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
        elements=elements,
        elements_per_iteration=v,
        element_type=t,
        result_type=r,
    )


class TestOccupancyProperties:
    @given(grid=grids, block=blocks)
    @settings(max_examples=100, deadline=None)
    def test_caps_respected(self, grid, block):
        occ = occupancy(GPU, grid, block)
        assert 1 <= occ.blocks_per_sm <= GPU.max_blocks_per_sm
        assert occ.active_warps <= GPU.max_resident_warps
        assert occ.active_blocks <= grid
        assert occ.waves >= 1
        # waves * capacity always covers the grid.
        assert occ.waves * GPU.sms * occ.blocks_per_sm >= grid


class TestBandwidthProperties:
    @given(warps=st.integers(min_value=1, max_value=GPU.max_resident_warps),
           v=vs, t=types)
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_ceiling(self, warps, v, t):
        bw = achievable_bandwidth_gbs(GPU, warps, v, t)
        ceiling = DEFAULT_CALIBRATION.efficiency_for(t) * \
            GPU.memory.peak_bandwidth_gbs
        assert 0 < bw <= ceiling + 1e-9

    @given(warps=st.integers(min_value=1, max_value=4000), v=vs, t=types)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_warps(self, warps, v, t):
        assert achievable_bandwidth_gbs(GPU, warps + 100, v, t) >= \
            achievable_bandwidth_gbs(GPU, warps, v, t)

    @given(warps=st.integers(min_value=1, max_value=8448), t=types,
           v=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_v(self, warps, v, t):
        assert achievable_bandwidth_gbs(GPU, warps, 2 * v, t) >= \
            achievable_bandwidth_gbs(GPU, warps, v, t)


class TestKernelTimeProperties:
    @given(grid=grids, block=blocks, v=vs, t=types)
    @settings(max_examples=100, deadline=None)
    def test_positive_finite(self, grid, block, v, t):
        timing = estimate_kernel_time(GPU, _kernel(grid, block, v, t))
        assert 0 < timing.total < 1e4
        assert timing.memory > 0 and timing.issue > 0
        assert timing.block_latency > 0

    @given(grid=st.integers(min_value=1, max_value=1 << 20), block=blocks,
           v=vs, t=types)
    @settings(max_examples=60, deadline=None)
    def test_more_blocks_never_slower_below_capacity(self, grid, block, v, t):
        occ = occupancy(GPU, grid, block)
        assume(grid * 2 <= GPU.sms * occ.blocks_per_sm)
        t1 = estimate_kernel_time(GPU, _kernel(grid, block, v, t)).total
        t2 = estimate_kernel_time(GPU, _kernel(grid * 2, block, v, t)).total
        assert t2 <= t1 * 1.0001

    @given(grid=st.sampled_from([256, 1024, 4096]), block=blocks, v=vs,
           t=types)
    @settings(max_examples=60, deadline=None)
    def test_time_monotone_in_elements(self, grid, block, v, t):
        small = estimate_kernel_time(GPU, _kernel(grid, block, v, t,
                                                  elements=1 << 22)).total
        large = estimate_kernel_time(GPU, _kernel(grid, block, v, t,
                                                  elements=1 << 26)).total
        assert large >= small


# The fuzzer's type pairings (verify/fuzzer.py): same-kind, never
# narrowing, int8 always widening to int64 as in the paper's C2.
_TYPE_PAIRS = (
    ("int8", "int64"),
    ("int32", "int32"),
    ("int32", "int64"),
    ("int64", "int64"),
    ("float32", "float32"),
    ("float32", "float64"),
    ("float64", "float64"),
)


def _oracle(gpu, cal, grid, block, v, trip, input_bytes, t, r, strategy):
    """The scalar kernel-time expression tree, in plain Python floats.

    A test-local copy of the model as it stood before it was written over
    arrays: occupancy, Little's law, issue, block latency and atomics, each
    in its original operation order.  Returns ``(memory, issue,
    block_latency, atomic, total)``.
    """
    t, r = SCALAR_TYPES[t], SCALAR_TYPES[r]
    warps = -(-block // gpu.warp_size)
    blocks_per_sm = min(gpu.max_blocks_per_sm, gpu.max_warps_per_sm // warps)
    active_warps = min(grid, gpu.sms * blocks_per_sm) * warps
    clock_hz = gpu.clock_ghz * 1e9

    raw = gpu.warp_size * v * t.size
    per_warp = (
        min(float(raw), cal.warp_inflight_cap_bytes)
        * cal.mlp_scale * cal.inflight_scale_for(t)
    )
    latency_s = gpu.memory.latency_ns * 1e-9
    concurrency = active_warps * per_warp / latency_s / 1e9
    bw = min(cal.efficiency_for(t) * gpu.memory.peak_bandwidth_gbs,
             concurrency)
    memory = input_bytes / (bw * 1e9)

    elem_cycles = cal.element_issue_for(t)
    insts = cal.loop_overhead_insts + cal.iter_fixed_for(t) + v * elem_cycles
    warp_insts = trip * insts / gpu.warp_size
    issue = warp_insts / (gpu.sms * gpu.issue_rate_ipc * clock_hz)

    chain = gpu.memory.latency_ns * 1e-9 * clock_hz + v * elem_cycles
    avg_iterations = max(1.0, trip / (grid * block))
    if strategy is ReductionStrategy.TREE:
        epilogue, n_atomics = cal.combine_cycles_for(r), 0
    elif strategy is ReductionStrategy.WARP_ATOMIC:
        epilogue, n_atomics = 120.0, grid * warps
    else:
        epilogue, n_atomics = 0.0, grid * block
    cycles = cal.block_setup_cycles + avg_iterations * chain + epilogue
    blocks_per_slot = -(-grid // (gpu.sms * blocks_per_sm))
    block_latency = blocks_per_slot * cycles / clock_hz
    atomic = n_atomics * ATOMIC_SAME_ADDRESS_NS[r.name] * 1e-9

    total = gpu.kernel_launch_latency_us * 1e-6 + max(
        memory, issue, block_latency, atomic
    )
    return memory, issue, block_latency, atomic, total


@st.composite
def _launches(draw):
    """One valid launch: ``(grid, block, v, trip, input_bytes, t, r)``."""
    t, r = draw(st.sampled_from(_TYPE_PAIRS))
    v = draw(vs)
    trip = draw(st.integers(min_value=1, max_value=1 << 28))
    arrays = draw(st.sampled_from([1, 1, 2]))  # dot streams two arrays
    return (
        draw(st.integers(min_value=1, max_value=0xFFFFFF)),
        32 * draw(st.integers(min_value=1, max_value=32)),
        v,
        trip,
        arrays * trip * v * SCALAR_TYPES[t].size,
        t,
        r,
    )


class TestKernelTimesOracle:
    @given(
        launches=st.lists(_launches(), min_size=1, max_size=12),
        strategy=st.sampled_from(list(ReductionStrategy)),
        profile=st.sampled_from(["gh200", "v100", "a100"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_scalar_oracle(self, launches, strategy, profile):
        gpu = system_for_profile(profile).gpu
        cal = DEFAULT_CALIBRATION
        columns = [list(c) for c in zip(*launches)]
        batch = kernel_times(gpu, cal, *columns, strategy)
        terms = ("memory", "issue", "block_latency", "atomic", "total")
        for i, launch in enumerate(launches):
            expected = _oracle(gpu, cal, *launch, strategy)
            single = kernel_times(
                gpu, cal, *[[x] for x in launch], strategy
            )
            for name, want in zip(terms, expected):
                # == on float64: bit-equal values, not approximately equal.
                assert getattr(batch, name)[i] == want, (name, launch)
                assert getattr(single, name)[0] == want, (name, launch)
