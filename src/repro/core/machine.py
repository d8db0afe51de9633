"""The simulated Grace-Hopper node everything runs on.

A :class:`Machine` bundles the hardware description, the GPU calibration,
the OpenMP device runtime, a trace, and workload generation.  It offers the
primitives the higher layers compose:

* :meth:`run_kernel` — predict a kernel's time (and record the launch,
  profiler-style);
* :meth:`workload` — a deterministic, size-capped input array for a case
  (the functional layer sums real numbers; the performance model reasons
  about the declared size);
* :meth:`functional_values` — the one memo every production caller of the
  functional executors goes through.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from ..gpu.kernels import ReductionKernel
from ..gpu.perf import KernelTiming, estimate_kernel_time
from ..hardware.profiles import system_for_profile
from ..hardware.system import GraceHopperSystem
from ..memory.unified import UnifiedMemoryManager
from ..openmp.icv import ICVSet
from ..openmp.runtime import DeviceRuntime
from ..sim.trace import KernelLaunchRecord, Trace
from .cases import Case

__all__ = ["Machine"]


class Machine:
    """A simulated GH200 node: hardware + runtime + trace + workloads."""

    def __init__(
        self,
        system: Optional[GraceHopperSystem] = None,
        calibration: Optional[GpuCalibration] = None,
        config: Optional[ReproConfig] = None,
        icvs: Optional[ICVSet] = None,
    ):
        self.config = config or DEFAULT_CONFIG
        # An explicit system wins; otherwise the config's named profile
        # resolves it ("gh200" reproduces the historical grace_hopper()).
        self.system = system or system_for_profile(self.config.machine_profile)
        self.calibration = calibration or DEFAULT_CALIBRATION
        if self.config.telemetry:
            from ..telemetry.state import configure

            configure(enabled=True)
        if self.config.faults:
            from ..faults.injector import activate

            activate(self.config.faults)
        if self.config.flight_dir:
            from ..obs.flight import configure_flight

            configure_flight(self.config.flight_dir)
        self.trace = Trace()
        self.runtime = DeviceRuntime(self.system.gpu, icvs)
        self._workload_cache: Dict[tuple, np.ndarray] = {}
        # The service dispatches concurrent handlers against one shared
        # machine; lazy workload generation must not race.
        self._workload_lock = threading.Lock()

    # -- hardware shortcuts ---------------------------------------------------
    @property
    def gpu(self):
        return self.system.gpu

    @property
    def cpu(self):
        return self.system.cpu

    @property
    def link(self):
        return self.system.link

    def unified_memory(self) -> UnifiedMemoryManager:
        """A fresh UM manager sharing this machine's trace."""
        return UnifiedMemoryManager(self.system, self.trace)

    # -- execution primitives -------------------------------------------------
    def run_kernel(self, kernel: ReductionKernel, now: float = 0.0) -> KernelTiming:
        """Model one launch of *kernel*; records it in the trace."""
        timing = estimate_kernel_time(self.gpu, kernel, self.calibration)
        self.trace.record_launch(
            KernelLaunchRecord(
                time=now,
                name=kernel.name,
                grid=kernel.geometry.grid,
                block=kernel.geometry.block,
                elements=kernel.elements,
                from_clause=kernel.geometry.from_clause,
                duration=timing.total,
            )
        )
        return timing

    # -- workloads ---------------------------------------------------------------
    def functional_elements(self, case: Case) -> int:
        """How many elements the functional layer actually sums for *case*."""
        cap = self.config.functional_elements_cap
        # A comparison, not min(): this runs once per sweep point.
        return case.elements if case.elements < cap else cap

    def workload(self, case: Case) -> np.ndarray:
        """Deterministic input array for *case* (cached, read-only view).

        Integers are drawn uniformly over a small range (so int32/int64
        accumulation exercises sign handling without always overflowing);
        floats over [0, 1) (well-conditioned sums, like the paper's
        verified workloads).
        """
        key = (case.element_type.name, self.functional_elements(case))
        data = self._workload_cache.get(key)
        if data is None:
            with self._workload_lock:
                data = self._workload_cache.get(key)
                if data is None:
                    rng = self.config.rng()
                    n = key[1]
                    if case.element_type.is_integer:
                        info = np.iinfo(case.element_type.numpy)
                        low = max(info.min, -100)
                        high = min(info.max, 100)
                        data = rng.integers(low, high + 1, size=n).astype(
                            case.element_type.numpy
                        )
                    else:
                        data = rng.random(n).astype(case.element_type.numpy)
                    data.setflags(write=False)
                    self._workload_cache[key] = data
        return data

    #: Seed XOR applied for the second operand of two-array reductions, so
    #: ``y`` is deterministic but decorrelated from ``x``.
    _PAIR_SEED_XOR = 0x9E3779B9

    def workload_pair(self, case: Case) -> np.ndarray:
        """Deterministic *second* input array for two-array reductions.

        Same distribution and size as :meth:`workload` but drawn from an
        independent stream (``config.seed ^ _PAIR_SEED_XOR``), cached and
        shared by the scalar, slab, and differential paths so ``dot``
        results stay byte-identical across them.
        """
        key = ("pair", case.element_type.name, self.functional_elements(case))
        data = self._workload_cache.get(key)
        if data is None:
            with self._workload_lock:
                data = self._workload_cache.get(key)
                if data is None:
                    rng = np.random.default_rng(
                        self.config.seed ^ self._PAIR_SEED_XOR
                    )
                    n = key[2]
                    if case.element_type.is_integer:
                        info = np.iinfo(case.element_type.numpy)
                        low = max(info.min, -100)
                        high = min(info.max, 100)
                        data = rng.integers(low, high + 1, size=n).astype(
                            case.element_type.numpy
                        )
                    else:
                        data = rng.random(n).astype(case.element_type.numpy)
                    data.setflags(write=False)
                    self._workload_cache[key] = data
        return data

    # -- functional values ----------------------------------------------------
    def functional_values(
        self,
        case: Case,
        op: str,
        parts: Sequence[Tuple[int, int, tuple, Callable[[], Any]]],
        check: Optional[Callable[[List[Any]], Any]] = None,
    ) -> List[Any]:
        """Functional values of one result, through the one value memo.

        Each part ``(lo, hi, grouping, compute)`` is the *op* reduction of
        ``workload(case)[lo:hi]`` under the executor grouping class
        *grouping* (:func:`repro.gpu.exec_model.grouping_key` for device
        parts); ``compute()`` runs the executor for it on a miss.  Values
        are keyed by ``(op, T, R, workload length, lo, hi, grouping)`` —
        the workload is a function of (T, length) on this machine — so a
        value is computed once per key and replayed bit-for-bit after.

        *check* (a ``verify_result`` closure) receives the values and
        raises on a wrong result.  Values are stored only once every
        ``compute()`` and the check have returned, so a raising executor
        or a failed check leaves no entry; the check is skipped when every
        part is a hit that passed one before.

        The memo is active iff ``config.slab``: the ``--no-slab`` machine
        is the uncached differential oracle and computes (and checks)
        every call.  Its attribute keeps the historical name
        ``_slab_value_cache``.
        """
        memo = self.__dict__.get("_slab_value_cache")
        if memo is None and self.config.slab:
            # setdefault: concurrent first calls must share one dict.
            memo = self.__dict__.setdefault("_slab_value_cache", {})
        common = (op, case.element_type.name, case.result_type.name,
                  self.functional_elements(case))
        keys, values, fresh, checked = [], [], [], True
        for lo, hi, grouping, compute in parts:
            key = common + (lo, hi, grouping)
            hit = None if memo is None else memo.get(key)
            keys.append(key)
            if hit is None:
                values.append(compute())
                fresh.append((key, values[-1]))
                checked = False
            else:
                values.append(hit[0])
                checked = checked and hit[1]
        if check is not None and not checked:
            check(values)
            fresh, checked = list(zip(keys, values)), True
        if memo is not None:
            for key, value in fresh:
                memo[key] = (value, checked)
        return values

    def describe(self) -> str:
        return self.system.describe()
