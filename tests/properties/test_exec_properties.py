"""Property-based tests on the executor's chunking helper and value path.

Both the closed-form ``thread_chunk_starts`` and the executor's shortcuts
(flat integer reduction, skipped degenerate levels) are checked against
naive references kept here: the filtered-lattice + ``searchsorted``
construction of the chunk starts, and a three-level ``reduceat``
hierarchy over those starts.  ``grouping_key`` is checked for soundness:
schedules with equal keys cut the same chunks and return the same bits.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dtypes import SCALAR_TYPES
from repro.errors import UnsupportedReductionError
from repro.gpu.exec_model import (
    FLAT_GROUPING,
    _execute_reduction,
    grouping_key,
    thread_chunk_starts,
)
from repro.gpu.kernels import ReductionKernel
from repro.openmp.reduction_ops import required_arrays, validate_reduction
from repro.openmp.runtime import LaunchGeometry

params = st.tuples(
    st.integers(min_value=1, max_value=200_000),   # n elements
    st.integers(min_value=1, max_value=0xFFFFFF),  # grid
    st.integers(min_value=1, max_value=1024),      # block
    st.sampled_from([1, 2, 3, 4, 8, 16, 32]),      # v
)

# The paper's baseline kernel at the 4M functional cap: one-thread teams.
BASELINE_SHAPE = (4_194_304, 8_192_000, 128, 1)
# Ragged last team (fewer threads than the others) and ragged last
# iteration (n not a multiple of V).
RAGGED_SHAPES = ((10, 3, 2, 1), (1003, 5, 16, 4))


def reference_chunk_starts(n_elements, grid, block, v):
    """Full (team, thread) lattice, filtered to the trip, then searched."""
    trip = -(-n_elements // v)
    team_iters = -(-trip // grid)
    n_active_teams = -(-trip // team_iters)
    thread_iters = -(-team_iters // block)
    per_team = np.arange(0, team_iters, thread_iters, dtype=np.int64)
    starts_iter = (
        np.arange(n_active_teams, dtype=np.int64)[:, None] * team_iters
        + per_team[None, :]
    ).ravel()
    starts_iter = starts_iter[starts_iter < trip]
    team_first_iter = np.arange(n_active_teams, dtype=np.int64) * team_iters
    team_starts = np.searchsorted(starts_iter, team_first_iter)
    return starts_iter * v, team_starts


class TestChunkStartsProperties:
    @given(p=params)
    @example(p=BASELINE_SHAPE)
    @example(p=RAGGED_SHAPES[0])
    @example(p=RAGGED_SHAPES[1])
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_reference(self, p):
        starts, team_starts = thread_chunk_starts(*p)
        ref_starts, ref_team_starts = reference_chunk_starts(*p)
        assert starts.dtype == ref_starts.dtype
        assert team_starts.dtype == ref_team_starts.dtype
        assert np.array_equal(starts, ref_starts)
        assert np.array_equal(team_starts, ref_team_starts)

    @given(p=params)
    @settings(max_examples=200, deadline=None)
    def test_starts_sorted_unique_in_range(self, p):
        n, grid, block, v = p
        starts, team_starts = thread_chunk_starts(n, grid, block, v)
        assert starts[0] == 0
        assert np.all(np.diff(starts) > 0)
        assert starts[-1] < n
        # reduceat over these boundaries covers [0, n) exactly once:
        # consecutive starts partition the array.
        assert np.all(starts % v == 0)

    @given(p=params)
    @settings(max_examples=200, deadline=None)
    def test_team_starts_index_into_thread_starts(self, p):
        n, grid, block, v = p
        starts, team_starts = thread_chunk_starts(n, grid, block, v)
        assert team_starts[0] == 0
        # Strict: a repeated reduceat index yields an element, not an
        # empty team.
        assert np.all(np.diff(team_starts) > 0)
        assert team_starts[-1] < len(starts)

    @given(p=params, seed=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_reduceat_over_chunks_is_total(self, p, seed):
        n, grid, block, v = p
        data = np.random.default_rng(seed).integers(
            -50, 50, size=n
        ).astype(np.int64)
        starts, _ = thread_chunk_starts(n, grid, block, v)
        partials = np.add.reduceat(data, starts)
        assert partials.sum() == data.sum()


_REFERENCE_UFUNCS = {
    "+": np.add, "-": np.add, "dot": np.add, "*": np.multiply,
    "max": np.maximum, "min": np.minimum, "&": np.bitwise_and,
    "|": np.bitwise_or, "^": np.bitwise_xor,
    "&&": np.minimum, "||": np.maximum,
}


def _is_kernel(ident, tname, rname):
    # Float-to-integer conversion of out-of-range values is undefined, so
    # float T never accumulates into an integer R here.
    if not SCALAR_TYPES[tname].is_integer and SCALAR_TYPES[rname].is_integer:
        return False
    try:
        validate_reduction(ident, rname)
    except UnsupportedReductionError:
        return False
    return True


# Every identifier x (T, R) pairing the kernel accepts.
CASES = [
    (ident, tname, rname)
    for ident in sorted(_REFERENCE_UFUNCS) + ["argmax"]
    for tname, rname in itertools.product(sorted(SCALAR_TYPES), repeat=2)
    if _is_kernel(ident, tname, rname)
]


def reference_reduction(data, second, ident, rtype, grid, block, v):
    """Thread reduceat, team reduceat, final reduce — nothing skipped.

    A launch with a single team combines its thread partials with one
    ``reduce`` (pairwise for float ``+``, unlike ``reduceat``), which is
    what the device-order executor has always done.
    """
    if ident == "argmax":
        return rtype.type(np.argmax(data))
    ufunc = _REFERENCE_UFUNCS[ident]
    if ident == "dot":
        values = data.astype(rtype) * second.astype(rtype)
    elif ident in ("&&", "||"):
        values = (data != 0).astype(rtype)
    else:
        values = data
    starts, team_starts = reference_chunk_starts(values.size, grid, block, v)
    partials = ufunc.reduceat(values, starts, dtype=rtype)
    if team_starts.size > 1:
        team_sums = ufunc.reduceat(partials, team_starts, dtype=rtype)
    else:
        team_sums = np.asarray([ufunc.reduce(partials, dtype=rtype)])
    return rtype.type(ufunc.reduce(team_sums, dtype=rtype))


def _draw_data(rng, ident, etype, n):
    dtype = etype.numpy
    if etype.is_integer:
        lo, hi = (-3, 4) if ident == "*" else (-100, 100)
        return rng.integers(lo, hi, size=n).astype(dtype)
    if ident == "*":
        return (1.0 + rng.uniform(-0.05, 0.05, size=n)).astype(dtype)
    scale = 10.0 ** rng.integers(-3, 4, size=n)
    return (rng.standard_normal(n) * scale).astype(dtype)


@pytest.mark.parametrize("ident,tname,rname", CASES)
class TestExecutorMatchesReference:
    @given(
        n=st.integers(min_value=1, max_value=5000),
        grid=st.one_of(st.integers(1, 64), st.integers(1, 0xFFFFFF)),
        block=st.integers(min_value=1, max_value=1024),
        v=st.sampled_from([1, 2, 3, 4, 8]),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    @example(n=5000, grid=8_192_000, block=128, v=1, seed=0)
    @example(n=20_000, grid=20_000, block=1, v=1, seed=3)
    @example(n=20_000, grid=9_000, block=1, v=2, seed=4)
    @example(n=20_000, grid=4000, block=8, v=1, seed=5)
    @example(n=20_000, grid=4, block=8, v=1, seed=6)
    @example(n=4999, grid=1, block=256, v=4, seed=1)
    @example(n=1003, grid=5, block=16, v=4, seed=2)
    @settings(max_examples=25, deadline=None)
    def test_byte_identical(self, ident, tname, rname, n, grid, block, v,
                            seed):
        etype, rtype = SCALAR_TYPES[tname], SCALAR_TYPES[rname]
        kernel = ReductionKernel(
            name="k",
            geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
            elements=v * -(-n // v),
            elements_per_iteration=v,
            element_type=etype,
            result_type=rtype,
            identifier=ident,
            arrays=required_arrays(ident),
        )
        rng = np.random.default_rng(seed)
        data = _draw_data(rng, ident, etype, n)
        second = _draw_data(rng, ident, etype, n) if ident == "dot" else None
        with np.errstate(all="ignore"):
            got = _execute_reduction(data, kernel, second)
            want = reference_reduction(data, second, ident, rtype.numpy,
                                       grid, block, v)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _kernel(ident, etype, rtype, n, grid, block, v):
    return ReductionKernel(
        name="k",
        geometry=LaunchGeometry(grid=grid, block=block, from_clause=True),
        elements=v * -(-n // v),
        elements_per_iteration=v,
        element_type=etype,
        result_type=rtype,
        identifier=ident,
        arrays=required_arrays(ident),
    )


# Float '+'/'*' (the grouping-sensitive reductions) and every identifier
# into an integer R (always one flat class).
GROUPING_CASES = [
    (ident, tname, rname)
    for ident, tname, rname in CASES
    if (ident in ("+", "*") and tname == rname in ("float32", "float64"))
    or (SCALAR_TYPES[rname].is_integer and tname in ("int8", "int32"))
]

schedules = st.tuples(
    st.one_of(st.integers(1, 64), st.integers(1, 0xFFFFFF)),   # grid
    st.one_of(st.integers(1, 8), st.integers(1, 1024)),        # block
    st.sampled_from([1, 2, 3, 4, 8]),                          # v
)

# One team of one multi-element thread: a one-segment reduceat, which
# rounds differently from the flat (pairwise) reduce of the second shape.
SINGLE_THREAD_SHAPES = ((1, 1, 1), (8000, 1, 1))


class TestGroupingKey:
    def test_single_team_single_thread_is_not_flat(self):
        n = 4000
        for rname in ("float32", "float64"):
            rtype = SCALAR_TYPES[rname]
            assert grouping_key(n, rtype, "+", 1, 1, 1) == (0, 0, 1)
            assert grouping_key(n, rtype, "+", n, 1, 1) == FLAT_GROUPING

    @given(
        n=st.integers(min_value=1, max_value=4000),
        shapes=st.lists(schedules, min_size=2, max_size=10),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    @example(n=4000, shapes=list(SINGLE_THREAD_SHAPES), seed=0)
    @example(n=BASELINE_SHAPE[0],
             shapes=[BASELINE_SHAPE[1:], (1 << 22, 64, 1)], seed=1)
    @example(n=1003, shapes=[(5, 16, 4), (5, 13, 4)], seed=2)
    @settings(max_examples=60, deadline=None)
    def test_equal_keys_give_equal_bits(self, n, shapes, seed):
        rng = np.random.default_rng(seed)
        for ident, tname, rname in GROUPING_CASES:
            etype, rtype = SCALAR_TYPES[tname], SCALAR_TYPES[rname]
            classes = {}
            for grid, block, v in shapes:
                key = grouping_key(n, rtype, ident, grid, block, v)
                classes.setdefault(key, []).append((grid, block, v))
            if all(len(members) < 2 for members in classes.values()):
                continue
            data = _draw_data(rng, ident, etype, n)
            second = (_draw_data(rng, ident, etype, n) if ident == "dot"
                      else None)
            for key, members in classes.items():
                first, *rest = members
                if key != FLAT_GROUPING:
                    starts = thread_chunk_starts(n, *first)
                    for shape in rest:
                        other = thread_chunk_starts(n, *shape)
                        assert np.array_equal(starts[0], other[0])
                        assert np.array_equal(starts[1], other[1])
                with np.errstate(all="ignore"):
                    want = _execute_reduction(
                        data, _kernel(ident, etype, rtype, n, *first), second
                    ).tobytes()
                    for shape in rest:
                        got = _execute_reduction(
                            data, _kernel(ident, etype, rtype, n, *shape),
                            second,
                        ).tobytes()
                        assert got == want, (ident, tname, rname, key, shape)
