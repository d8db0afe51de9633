"""Per-layer tracing for the traced benchmark run.

The program's own telemetry stays off: turning it on switches code paths
(it bypasses the measurement memo, disables the slab path and changes the
compile cache).  Instead, :class:`LayerTracer` replaces the public function
at each layer boundary with a timing wrapper, in every ``repro`` module
that bound it, and restores the originals on :meth:`LayerTracer.uninstall`.

Each wrapper records calls, inclusive time and *self* time (inclusive time
minus the time of traced layers nested inside it, per thread), plus
layer-specific counts.  A layer's ``busy_s`` is its self time, so the
layers' busy times and ``unattributed_s`` add up to the wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "LAYER_SPECS", "PER_LAYER"]

#: Every per-layer metric of a traced run, with its unit.  A layer a
#: workload does not exercise reports 0.
PER_LAYER = tuple(
    (name, "s" if name.endswith("_s") else "ms" if name.endswith("_ms")
     else "bytes" if name.endswith("bytes") else "ratio"
     if name.endswith("ratio") else "count")
    for name in (
        "sweep.stage.table1_s", "sweep.stage.fig1_s",
        "sweep.stage.coexec_base_s", "sweep.stage.coexec_opt_s",
        "gpu.exec.calls", "gpu.exec.elements", "gpu.exec.busy_s",
        "gpu.partition.busy_s",
        "verify.calls", "verify.busy_s",
        "cpu.exec.calls", "cpu.exec.busy_s",
        "memory.um.reads", "memory.um.migrated_bytes", "memory.um.busy_s",
        "gpu.model.calls", "gpu.model.busy_s",
        "compiler.calls", "compiler.misses", "compiler.busy_s",
        "sim.slab.calls", "sim.slab.points", "sim.slab.busy_s",
        "sim.trace.launches",
        "workload.calls", "workload.bytes", "workload.busy_s",
        "cache.gets", "cache.hits", "cache.puts", "cache.get_s",
        "cache.put_s",
        "fingerprint.calls", "fingerprint.busy_s",
        "service.batches", "service.computed", "service.coalesced",
        "service.cache_hits", "service.retries", "service.rejected",
        "service.submit_s", "req.p99_ms", "req.cache_p50_ms",
        "req.computed_p50_ms",
        "unattributed_s", "trace.overhead_ratio", "host.slowdown_ratio",
    )
)

# (layer, module, attribute, counter).  Attributes named "Class.method"
# are patched on the class; plain names are rebound in every repro module
# whose globals hold the original function object.  Both execute_reduction
# and _execute_reduction are listed because the slab path calls the latter
# directly; the re-entrancy guard counts a call that passes through both
# once.
LAYER_SPECS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("gpu.exec", "repro.gpu.exec_model", "execute_reduction", "elements"),
    ("gpu.exec", "repro.gpu.exec_model", "_execute_reduction", "elements"),
    ("gpu.partition", "repro.gpu.exec_model", "thread_chunk_starts", None),
    ("verify", "repro.core.verify", "verify_result", None),
    ("cpu.exec", "repro.cpu.exec_model", "execute_host_reduction", None),
    ("memory.um", "repro.memory.unified", "UnifiedMemoryManager.gpu_read",
     "migrated"),
    ("memory.um", "repro.memory.unified", "UnifiedMemoryManager.cpu_read",
     "migrated"),
    ("gpu.model", "repro.gpu.perf", "estimate_kernel_time", None),
    ("compiler", "repro.compiler.cache", "cached_compile", None),
    ("sim.slab", "repro.sim.batch", "evaluate_gpu_slab", "points"),
    ("workload", "repro.core.machine", "Machine.workload", "bytes"),
    ("workload", "repro.core.machine", "Machine.workload_pair", "bytes"),
    ("cache.get", "repro.sweep.result_cache", "ResultCache.get", "hits"),
    ("cache.put", "repro.sweep.result_cache", "ResultCache.put", None),
    ("fingerprint", "repro.sweep.fingerprint", "fingerprint", None),
)


class _Layer:
    __slots__ = ("calls", "inclusive_s", "self_s", "self_main_s", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.self_main_s = 0.0
        self.count = 0


class LayerTracer:
    """Installs timing wrappers at the layer boundaries of ``repro``."""

    def __init__(self) -> None:
        self.layers: Dict[str, _Layer] = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._seen_arrays: set = set()

    # -- accounting ---------------------------------------------------------
    def layer(self, name: str) -> _Layer:
        rec = self.layers.get(name)
        if rec is None:
            rec = self.layers[name] = _Layer()
        return rec

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
        return local.stack, local.active

    def _count(self, rec: _Layer, kind: Optional[str], args, result) -> None:
        if kind == "elements":
            rec.count += int(args[0].size)
        elif kind == "points":
            rec.count += len(args[1])
        elif kind == "hits":
            rec.count += result is not None
        elif kind == "migrated":
            rec.count += int(getattr(result, "migrated_bytes", 0)
                             or getattr(result, "migrated_back_bytes", 0))
        elif kind == "bytes":
            # Machine.workload memoizes its arrays: count each array's
            # bytes once, when it is first produced.
            if id(result) not in self._seen_arrays:
                self._seen_arrays.add(id(result))
                rec.count += int(result.nbytes)

    def wrap(self, name: str, fn: Callable, kind: Optional[str] = None
             ) -> Callable:
        rec = self.layer(name)
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = self._state()
            if active.get(name):
                # Already inside this layer (a wrapped entry point calling
                # another wrapped entry point of the same layer).
                return fn(*args, **kwargs)
            active[name] = True
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                active[name] = False
                rec.calls += 1
                rec.inclusive_s += elapsed
                rec.self_s += elapsed - children
                if threading.get_ident() == main:
                    rec.self_main_s += elapsed - children
            self._count(rec, kind, args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Inclusive-time wrapper for a coroutine method.

        Concurrent awaits interleave on one thread, so async layers are
        kept off the self-time stack: they report calls and summed
        latency only.
        """
        rec = self.layer(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.calls += 1
                rec.inclusive_s += time.perf_counter() - started

        return traced

    # -- installation -------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer in :data:`LAYER_SPECS` (modules must import)."""
        import importlib

        for name, module_name, attr, kind in LAYER_SPECS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self.wrap(name, getattr(cls, method),
                                                 kind))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, kind)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                namespace = getattr(mod, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        from repro.service.scheduler import ReductionService

        self._set(ReductionService, "submit",
                  self.wrap_async("service.submit", ReductionService.submit))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------
    def attributed_main_s(self) -> float:
        """Self time of every layer on the thread that drives the workload."""
        return sum(rec.self_main_s for rec in self.layers.values())

    def metrics(self) -> Dict[str, float]:
        """The per-layer counters this tracer measures directly."""
        def rec(name: str) -> _Layer:
            return self.layers.get(name) or _Layer()

        get, put = rec("cache.get"), rec("cache.put")
        um = rec("memory.um")
        return {
            "gpu.exec.calls": rec("gpu.exec").calls,
            "gpu.exec.elements": rec("gpu.exec").count,
            "gpu.exec.busy_s": rec("gpu.exec").self_s,
            "gpu.partition.busy_s": rec("gpu.partition").self_s,
            "verify.calls": rec("verify").calls,
            "verify.busy_s": rec("verify").self_s,
            "cpu.exec.calls": rec("cpu.exec").calls,
            "cpu.exec.busy_s": rec("cpu.exec").self_s,
            "memory.um.reads": um.calls,
            "memory.um.migrated_bytes": um.count,
            "memory.um.busy_s": um.self_s,
            "gpu.model.calls": rec("gpu.model").calls,
            "gpu.model.busy_s": rec("gpu.model").self_s,
            "compiler.calls": rec("compiler").calls,
            "compiler.busy_s": rec("compiler").self_s,
            "sim.slab.calls": rec("sim.slab").calls,
            "sim.slab.points": rec("sim.slab").count,
            "sim.slab.busy_s": rec("sim.slab").self_s,
            "workload.calls": rec("workload").calls,
            "workload.bytes": rec("workload").count,
            "workload.busy_s": rec("workload").self_s,
            "cache.gets": get.calls,
            "cache.hits": get.count,
            "cache.puts": put.calls,
            "cache.get_s": get.self_s,
            "cache.put_s": put.self_s,
            "fingerprint.calls": rec("fingerprint").calls,
            "fingerprint.busy_s": rec("fingerprint").self_s,
            "service.submit_s": rec("service.submit").inclusive_s,
        }
