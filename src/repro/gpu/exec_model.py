"""Functional execution of reduction kernels.

This module actually computes the reduction with the same hierarchical
partitioning the device uses, fully vectorized with NumPy (no Python loop
over threads):

1. ``distribute`` — the iteration space is split into contiguous
   static chunks per team;
2. ``parallel for`` — each team's chunk is split into contiguous static
   chunks per thread; each thread accumulates privately **in the result
   type R** (so int32 accumulation wraps, int8 inputs widen to int64, and
   float rounding follows the real grouping);
3. end-of-team combine over thread partials, then a final combine over
   team partials (deterministic team order).

The chunk boundaries are a closed-form lattice: every active team but the
last owns exactly ``ceil(team_iters / thread_iters)`` threads, so thread
starts are the row-major ``(team, thread)`` grid cut to the active thread
count, and team starts are multiples of that per-team count.

When R is an integer the grouping cannot matter: every identifier the
executor lowers (``+ - * & | ^ && || min max dot``) is associative and
commutative under two's-complement wraparound, so any grouping yields the
same bits and the reduction runs as one flat ``ufunc.reduce`` in R.  For
floats different geometries legitimately produce slightly different
roundings, which the verification layer treats with a relative tolerance —
the same situation as on real hardware — so the hierarchy is kept; only
levels that cannot regroup anything are skipped (one-element thread chunks
are a cast to R, one-thread teams pass their partials through, and with one
element per team no chunk boundaries are built at all).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import UnsupportedReductionError
from ..telemetry.state import span as tele_span
from .kernels import ReductionKernel

__all__ = ["execute_reduction", "thread_chunk_starts"]

# Extended identifiers the executor lowers outside the ufunc table:
#
# * ``argmax`` — each thread tracks ``(best_value, best_index)`` and the
#   combine keeps the larger value, breaking ties toward the *lower*
#   index.  Because static chunks are contiguous and combined in thread
#   then team order, that hierarchy provably returns the first index of
#   the global maximum — i.e. exactly ``np.argmax`` — for every launch
#   geometry, so the executor computes it directly.
# * ``dot`` — products are widened to R first (``sum += (R)x[i]*(R)y[i]``)
#   and then accumulated with the ordinary ``+`` hierarchy, so the float
#   grouping (and integer wraparound) is the sum reduction's over the
#   product array.

_UFUNCS = {
    "+": np.add,
    "-": np.add,  # OpenMP 5.1: '-' combines with +
    "*": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
}

# Logical identifiers reduce the truth-values of the elements; `all` is a
# min over {0,1} and `any` a max, which keeps the reduceat path uniform.
_LOGICAL = {"&&": np.minimum, "||": np.maximum}


def thread_chunk_starts(
    n_elements: int, grid: int, block: int, v: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Static-schedule chunk boundaries for a two-level distribute/for split.

    Returns ``(thread_starts, team_starts)``: element offsets where each
    *active* thread's contiguous chunk begins, and the positions (indices
    into ``thread_starts``) where each active team's group of threads
    begins.  Both arrays are strictly increasing and non-empty for
    ``n_elements > 0``.
    """
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    trip = -(-n_elements // v)  # iterations, last one possibly ragged
    team_iters = -(-trip // grid)
    n_active_teams = -(-trip // team_iters)
    thread_iters = -(-team_iters // block)
    threads_per_team = -(-team_iters // thread_iters)
    # Only the last team can be short; its threads are a prefix of its row.
    last_team_iters = trip - (n_active_teams - 1) * team_iters
    n_threads = ((n_active_teams - 1) * threads_per_team
                 + -(-last_team_iters // thread_iters))
    team_step, thread_step = team_iters * v, thread_iters * v
    thread_starts = (
        np.arange(0, n_active_teams * team_step, team_step,
                  dtype=np.int64)[:, None]
        + np.arange(0, threads_per_team * thread_step, thread_step,
                    dtype=np.int64)
    ).ravel()[:n_threads]
    team_starts = np.arange(0, n_active_teams * threads_per_team,
                            threads_per_team, dtype=np.int64)
    return thread_starts, team_starts


def execute_reduction(data: np.ndarray, kernel: ReductionKernel,
                      second: Optional[np.ndarray] = None):
    """Run *kernel*'s reduction over *data*; returns a scalar of type R.

    *data* may be shorter than ``kernel.elements`` (the functional layer
    runs on size-capped arrays while the performance model reasons about
    the declared size); the schedule shape (grid/block/V) is applied to the
    actual length.  Two-array identifiers (``dot``) take the second
    operand via *second*.
    """
    with tele_span("execute_reduction", category="gpu",
                   kernel=kernel.name, elements=int(data.size),
                   grid=kernel.geometry.grid, block=kernel.geometry.block):
        return _execute_reduction(data, kernel, second)


def _execute_reduction(data: np.ndarray, kernel: ReductionKernel,
                       second: Optional[np.ndarray] = None):
    if data.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {data.shape}")
    rtype = kernel.result_type.numpy
    ident = kernel.identifier
    if ident == "dot":
        if second is None:
            raise UnsupportedReductionError(
                "reduction-identifier 'dot' requires a second input array"
            )
        if second.shape != data.shape or second.dtype != data.dtype:
            raise ValueError(
                f"dot operands must match: {data.dtype}{data.shape} vs "
                f"{second.dtype}{second.shape}"
            )
    elif second is not None:
        raise ValueError(
            f"identifier {ident!r} reduces a single array, got a second "
            "operand"
        )
    if data.size == 0:
        if ident == "argmax":
            return rtype.type(-1)
        if ident == "dot":
            return rtype.type(0)
        return rtype.type(kernel.op.identity_for(kernel.result_type))
    if data.dtype != kernel.element_type.numpy:
        raise ValueError(
            f"data dtype {data.dtype} does not match kernel element type "
            f"{kernel.element_type.numpy}"
        )

    if ident == "argmax":
        # Geometry-independent by construction (see module notes).
        return rtype.type(int(np.argmax(data)))

    if ident == "dot":
        ufunc = _UFUNCS["+"]
        values = data.astype(rtype, copy=False) * second.astype(rtype, copy=False)
    elif ident in _LOGICAL:
        ufunc = _LOGICAL[ident]
        values = (data != 0).astype(rtype)
    elif ident in _UFUNCS:
        ufunc = _UFUNCS[ident]
        values = data
    else:  # pragma: no cover - registry and kernels stay in sync
        raise UnsupportedReductionError(
            f"no executable lowering for identifier {ident!r}"
        )

    if kernel.result_type.is_integer:
        # Wrapping integer arithmetic: every grouping gives the same bits.
        return rtype.type(ufunc.reduce(values, dtype=rtype))

    v, grid = kernel.elements_per_iteration, kernel.geometry.grid
    if v == 1 and grid >= values.size:
        # One element per team (the runtime's default geometry for the
        # paper's baseline kernel): only the final combine groups anything.
        return rtype.type(ufunc.reduce(values.astype(rtype, copy=False),
                                       dtype=rtype))

    thread_starts, team_starts = thread_chunk_starts(
        values.size, grid, kernel.geometry.block, v
    )
    # Thread-private accumulation in R; one-element chunks are just a cast.
    if thread_starts.size == values.size:
        partials = values.astype(rtype, copy=False)
    else:
        partials = ufunc.reduceat(values, thread_starts, dtype=rtype)
    # End-of-team combine over that team's thread partials; with one team
    # the final combine below is that team's combine.
    if team_starts.size in (1, partials.size):
        team_sums = partials
    else:
        team_sums = ufunc.reduceat(partials, team_starts, dtype=rtype)
    # Final combine across teams (deterministic team order).
    return rtype.type(ufunc.reduce(team_sums, dtype=rtype))
