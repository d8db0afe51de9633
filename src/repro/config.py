"""Global configuration knobs.

The library is deterministic by construction (all timing comes from the
simulated clock), but workload *data* is random.  :class:`ReproConfig`
carries the RNG seed plus global scaling switches used by tests and the
benchmark harness to shrink the paper's 4 GB arrays down to something a
laptop-sized CI run can execute functionally while the performance model
still reasons about the full-size problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = ["ReproConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class ReproConfig:
    """Immutable run configuration.

    Parameters
    ----------
    seed:
        Seed for the NumPy :class:`~numpy.random.Generator` used to build
        workloads.
    functional_elements_cap:
        When functionally executing a reduction (actually summing numbers,
        as opposed to only predicting its runtime) arrays larger than this
        are sampled down.  The performance model always uses the *declared*
        element count, so measured bandwidth is unaffected.
    strict_verify:
        When ``True``, every offloaded reduction is checked against a host
        reference (paper §III.B) and mismatches raise
        :class:`~repro.errors.VerificationError`.
    sweep_workers:
        Default pool width for the :class:`~repro.sweep.executor.
        SweepExecutor` when neither an explicit argument nor the
        ``REPRO_SWEEP_WORKERS`` environment variable is given.  ``None``
        (the default) means 1 — the exact serial seed behaviour; values
        <= 0 mean one worker per CPU.  Not part of cache fingerprints
        (scheduling never changes results).
    sweep_cache_dir:
        Default directory for the persistent sweep result cache when a
        driver enables it; ``None`` defers to ``REPRO_CACHE_DIR`` and
        then ``~/.cache/repro-sweep``.  Not part of cache fingerprints.
    telemetry:
        When ``True``, building a :class:`~repro.core.machine.Machine`
        from this config switches on the process-global telemetry layer
        (:mod:`repro.telemetry`): hierarchical spans, the metrics
        registry, and the Chrome-trace exporter.  Off by default — the
        disabled path is a no-op — and equivalent to setting
        ``REPRO_TELEMETRY=1`` or passing ``--trace-out``.  Not part of
        cache fingerprints (observability never changes results).
    sweep_task_timeout_s:
        Wall-clock budget per sweep task when the supervised worker pool
        runs it; a point exceeding the budget is recorded as failed in
        the sweep stats instead of aborting the sweep.  ``None`` (the
        default) disables the deadline; also settable per run via
        ``--timeout`` / ``REPRO_SWEEP_TIMEOUT``.  Not part of cache
        fingerprints.
    faults:
        Fault-injection spec (see :mod:`repro.faults.plan` for the
        grammar).  Building a :class:`~repro.core.machine.Machine` from
        a config with this set activates the plan process-wide, exactly
        like exporting ``REPRO_FAULTS``.  ``None`` (the default) leaves
        every injection point a no-op.  Not part of cache fingerprints —
        injected faults surface as *failed* points or detected
        corruption, never as silently different cached results.
    slab:
        When ``True`` (the default), ``gpu_point`` sweep stages take the
        batch-vectorized slab path (:mod:`repro.sim.batch`): whole-slab
        NumPy evaluation of the one kernel-time model, shared-memory
        transport to pool workers, and a memoized
        :func:`~repro.core.timing.measure_gpu_reduction` fast path.
        ``False`` (``--no-slab``) forces the original point-at-a-time
        scalar pipeline — the differential oracle the slab path is
        byte-identical to.  Not part of cache fingerprints *because* of
        that byte-identity: both paths produce the same records.
    machine_profile:
        Named hardware profile (see :mod:`repro.hardware.profiles`) the
        :class:`~repro.core.machine.Machine` resolves its system from
        when no explicit system is passed.  ``"gh200"`` (the default) is
        the calibrated paper testbed and produces a system byte-identical
        to the pre-profile behaviour; ``"v100"`` and ``"a100"`` are the
        PCIe comparison nodes.  The profile is *indirectly* part of cache
        fingerprints: the resolved system object is fingerprinted, so
        results from different profiles never collide.
    flight_dir:
        When set, building a :class:`~repro.core.machine.Machine` from
        this config enables the crash flight recorder
        (:mod:`repro.obs.flight`) writing black-box dumps into this
        directory — equivalent to exporting ``REPRO_FLIGHT_DIR`` or
        serving with ``--flight-dir``.  ``None`` (the default) leaves
        every recording site a single attribute check.  Not part of
        cache fingerprints (observability never changes results).
    """

    seed: int = 0x5C2024
    functional_elements_cap: int = 1 << 22
    strict_verify: bool = True
    sweep_workers: Optional[int] = None
    sweep_cache_dir: Optional[str] = None
    telemetry: bool = False
    sweep_task_timeout_s: Optional[float] = None
    faults: Optional[str] = None
    slab: bool = True
    machine_profile: str = "gh200"
    flight_dir: Optional[str] = None

    def rng(self) -> np.random.Generator:
        """A fresh generator seeded from :attr:`seed`."""
        return np.random.default_rng(self.seed)

    def with_seed(self, seed: int) -> "ReproConfig":
        """Copy of this config with a different seed."""
        return replace(self, seed=seed)

    def with_cap(self, cap: int) -> "ReproConfig":
        """Copy of this config with a different functional-execution cap."""
        return replace(self, functional_elements_cap=int(cap))


#: Library-wide default configuration.
DEFAULT_CONFIG = ReproConfig()
