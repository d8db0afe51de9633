"""Output checks shared by the workloads: digests, host references, errors.

Everything here runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Relative tolerance of a float reduction against the float64 host sum.
#: The simulated device accumulates in the result type along its own
#: grouping, so float32 results carry rounding the reference does not.
FLOAT_RTOL = {"float32": 1e-4, "float64": 1e-10}


def pinned_digest(workload: str) -> str:
    """The digest this workload's simulated records must reproduce."""
    return json.loads(PINNED_PATH.read_text())[workload]


def records_digest(rows: Iterable[Sequence]) -> str:
    """sha256 (first 16 hex digits) over labelled simulated numbers.

    Floats enter by ``repr``, so the digest pins every bit of the model's
    bandwidths and elapsed times.
    """
    canon = [
        [repr(x) if isinstance(x, float) else x for x in row] for row in rows
    ]
    blob = json.dumps(canon, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def host_reference(data: np.ndarray, result_dtype: np.dtype):
    """The reduction's exact answer for integers, float64 sum for floats."""
    rtype = np.dtype(result_dtype)
    if rtype.kind in "iu":
        if data.dtype.itemsize <= 4 and data.size < (1 << 31):
            # |sum| < 2**31 * 2**31 = 2**62: an int64 sum cannot wrap.
            exact = int(np.sum(data, dtype=np.int64))
        else:
            # Python integers cannot overflow.
            values, counts = np.unique(data, return_counts=True)
            exact = sum(int(v) * int(c) for v, c in zip(values, counts))
        bits = rtype.itemsize * 8
        half = 1 << (bits - 1)
        return ((exact + half) % (1 << bits)) - half
    return float(np.sum(data, dtype=np.float64))


def value_matches(value, reference, result_dtype) -> bool:
    rtype = np.dtype(result_dtype)
    if rtype.kind in "iu":
        return int(value) == int(reference)
    rtol = FLOAT_RTOL[rtype.name]
    return math.isclose(float(value), float(reference), rel_tol=rtol)


class CheckList:
    """Named pass/fail outcomes of one run's output checks."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {name: {"passed": ok, "detail": detail}
                for name, ok, detail in self.results}


def table1_err_pct(rows) -> float:
    """Mean absolute % error of Table 1's bandwidths against the paper."""
    from repro.evaluation.paper_data import PAPER_TABLE1

    errors = []
    for name, row in rows.items():
        paper = PAPER_TABLE1[name]
        errors.append(abs(row.base_gbs - paper.base_gbs) / paper.base_gbs)
        errors.append(abs(row.optimized_gbs - paper.optimized_gbs)
                      / paper.optimized_gbs)
    return 100.0 * sum(errors) / len(errors)


def coexec_err_pct(fig2b, fig4b) -> float:
    """Mean absolute % error of the Fig 2b/4b average best speedups."""
    from repro.evaluation.paper_data import (
        PAPER_FIG2B_AVG_SPEEDUP,
        PAPER_FIG4B_AVG_SPEEDUP,
    )

    errors = [
        abs(fig2b.average_best_speedup() - PAPER_FIG2B_AVG_SPEEDUP)
        / PAPER_FIG2B_AVG_SPEEDUP,
        abs(fig4b.average_best_speedup() - PAPER_FIG4B_AVG_SPEEDUP)
        / PAPER_FIG4B_AVG_SPEEDUP,
    ]
    return 100.0 * sum(errors) / len(errors)


def model_errors(seed: int) -> Tuple[float, float]:
    """(table1_err_pct, coexec_err_pct) from a small-cap side machine.

    Bandwidths do not depend on the functional cap, so a 64K-element cap
    gives the same simulated numbers as the default 4M cap, quickly.
    Used by the workloads that do not regenerate the paper themselves.
    """
    from repro import Machine, ReproConfig
    from repro.core.cases import PAPER_CASES
    from repro.core.coexec import AllocationSite
    from repro.evaluation.figures import generate_coexec_figure
    from repro.evaluation.tables import generate_table1
    from repro.sweep import SweepExecutor

    machine = Machine(config=ReproConfig(seed=seed,
                                         functional_elements_cap=1 << 16))
    executor = SweepExecutor(machine, workers=1, cache=None)
    rows = generate_table1(machine, executor=executor)
    figs = [
        generate_coexec_figure(machine, PAPER_CASES, site, True,
                               verify=False, executor=executor)
        for site in (AllocationSite.A1, AllocationSite.A2)
    ]
    return table1_err_pct(rows), coexec_err_pct(*figs)


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (the service load generator's definition)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
