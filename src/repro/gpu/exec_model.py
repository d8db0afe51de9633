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

The chunk boundaries are a closed-form lattice (``_lattice``): every
active team but the last owns exactly ``ceil(team_iters / thread_iters)``
threads, so thread starts are the row-major ``(team, thread)`` grid cut to
the active thread count, and team starts are multiples of that per-team
count.

When R is an integer the grouping cannot matter: every identifier the
executor lowers (``+ - * & | ^ && || min max dot``) is associative and
commutative under two's-complement wraparound, so any grouping yields the
same bits and the reduction runs as one flat ``ufunc.reduce`` in R.  For
floats different geometries legitimately produce slightly different
roundings, which the verification layer treats with a relative tolerance —
the same situation as on real hardware — so the hierarchy is kept; only
levels that cannot regroup anything are skipped (one-element thread chunks
are a cast to R, one-thread teams pass their partials through, and when
neither the thread nor the team level regroups the reduction is flat).

:func:`grouping_key` names the *grouping class* a schedule induces on n
elements, from the same lattice arithmetic: launches with equal keys over
the same inputs return the same bits, which is what lets the machine's
one functional-value memo
(:meth:`repro.core.machine.Machine.functional_values`) share a value
between every schedule of a class.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..dtypes import ScalarType
from ..errors import UnsupportedReductionError
from ..telemetry.state import span as tele_span
from .kernels import ReductionKernel

__all__ = [
    "FLAT_GROUPING", "execute_reduction", "grouping_key", "thread_chunk_starts",
]

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


class _Lattice(NamedTuple):
    """The static schedule's chunk lattice over n elements, in elements."""

    team_step: int          # elements per team (the last may be short)
    thread_step: int        # elements per thread (a team's last may be short)
    threads_per_team: int   # threads of every active team but the last
    n_teams: int            # active teams
    n_threads: int          # active threads

    def is_flat(self, n_elements: int) -> bool:
        """True when no level regroups anything: one-element threads whose
        partials are not combined per team before the final combine."""
        return self.n_threads == n_elements and (
            self.threads_per_team == 1 or self.n_teams == 1
        )


def _lattice(n_elements: int, grid: int, block: int, v: int) -> _Lattice:
    """Closed-form distribute/for partitioning of *n_elements*.

    Every active team but the last owns exactly ``threads_per_team``
    threads; only the last team can be short, and its threads are a
    prefix of its row.
    """
    trip = -(-n_elements // v)  # iterations, last one possibly ragged
    team_iters = -(-trip // grid)
    n_teams = -(-trip // team_iters)
    thread_iters = -(-team_iters // block)
    threads_per_team = -(-team_iters // thread_iters)
    last_team_iters = trip - (n_teams - 1) * team_iters
    n_threads = ((n_teams - 1) * threads_per_team
                 + -(-last_team_iters // thread_iters))
    return _Lattice(team_iters * v, thread_iters * v, threads_per_team,
                    n_teams, n_threads)


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
    lat = _lattice(n_elements, grid, block, v)
    thread_starts = (
        np.arange(0, lat.n_teams * lat.team_step, lat.team_step,
                  dtype=np.int64)[:, None]
        + np.arange(0, lat.threads_per_team * lat.thread_step,
                    lat.thread_step, dtype=np.int64)
    ).ravel()[:lat.n_threads]
    team_starts = np.arange(0, lat.n_teams * lat.threads_per_team,
                            lat.threads_per_team, dtype=np.int64)
    return thread_starts, team_starts


#: Grouping class of every reduction that is one ``ufunc.reduce`` in R.
FLAT_GROUPING = ("flat",)


def grouping_key(n_elements: int, result_type: ScalarType, identifier: str,
                 grid: int, block: int, v: int) -> tuple:
    """Grouping class of an *n_elements* reduction under this schedule.

    Two launches over the same *n_elements* inputs with equal keys return
    the same bits from :func:`execute_reduction`.  The key is
    :data:`FLAT_GROUPING` exactly when the executor reduces flat (integer
    R, ``argmax``, empty input, or one-element threads with one thread per
    team or a single team); otherwise it is ``(team_step, thread_step,
    threads_per_team)`` in elements, with ``team_step`` zeroed when one
    team is active and ``thread_step`` zeroed when each team has one
    thread — the steps that cannot move a chunk boundary.  A single team
    of one multi-element thread is *not* flat: a one-segment ``reduceat``
    rounds differently from a flat (pairwise) ``reduce``.

    Takes the kernel's schedule fields rather than a kernel so sweep
    points can be keyed without building one.
    """
    if result_type.is_integer or identifier == "argmax" or n_elements <= 0:
        return FLAT_GROUPING
    lat = _lattice(n_elements, grid, block, v)
    if lat.is_flat(n_elements):
        return FLAT_GROUPING
    return (0 if lat.n_teams == 1 else lat.team_step,
            0 if lat.threads_per_team == 1 else lat.thread_step,
            lat.threads_per_team)


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

    geometry, v = kernel.geometry, kernel.elements_per_iteration
    if _lattice(values.size, geometry.grid, geometry.block, v).is_flat(
            values.size):
        # E.g. one element per team (the runtime's default geometry for
        # the paper's baseline kernel): only the final combine groups.
        return rtype.type(ufunc.reduce(values.astype(rtype, copy=False),
                                       dtype=rtype))

    thread_starts, team_starts = thread_chunk_starts(
        values.size, geometry.grid, geometry.block, v
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
