"""Deterministic simulation core: virtual clock, event engine, trace.

All timing in the library flows through :class:`~repro.sim.clock.Clock`, a
virtual nanosecond counter — nothing depends on wall-clock time, so every
measurement is reproducible bit-for-bit.  The discrete-event
:class:`~repro.sim.engine.Engine` sequences overlapping activities
(CPU+GPU co-execution, page migration), and :class:`~repro.sim.trace.Trace`
records kernel launches and page migrations the way the paper uses a
profiler to inspect grid sizes.
"""

from .clock import Clock
from .engine import Engine, Event
from .trace import Trace, KernelLaunchRecord, MigrationRecord, RemoteAccessRecord

__all__ = [
    "Clock",
    "Engine",
    "Event",
    "Trace",
    "KernelLaunchRecord",
    "MigrationRecord",
    "RemoteAccessRecord",
    "evaluate_gpu_slab",
]


def __getattr__(name):
    # The slab evaluator (:mod:`.batch`) reaches into core/gpu layers that
    # themselves import :mod:`.trace` from this package, so it loads
    # lazily to keep import order acyclic.
    if name != "evaluate_gpu_slab":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .batch import evaluate_gpu_slab

    return evaluate_gpu_slab
