"""Regression tests for lazy-init races.

The service layer dispatches concurrent handlers against shared
module-level state: the default machine singleton, a machine's workload
cache, and the process-wide compile cache.  Each test hammers one of
those from a thread pool released by a barrier so all first calls race.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import repro.core.reduce as reduce_mod
from repro.compiler.cache import (
    cached_compile,
    clear_compile_cache,
    compile_cache_stats,
)
from repro.core.baseline import baseline_program
from repro.core.cases import C1
from repro.core.machine import Machine
from repro.core.reduce import default_machine

THREADS = 16


def _race(fn):
    """Run *fn* from THREADS threads released simultaneously."""
    barrier = threading.Barrier(THREADS)

    def call():
        barrier.wait()
        return fn()

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        return [f.result() for f in [pool.submit(call) for _ in range(THREADS)]]


class TestDefaultMachineSingleton:
    def test_concurrent_first_calls_share_one_machine(self, monkeypatch):
        monkeypatch.setattr(reduce_mod, "_DEFAULT_MACHINE", None)
        machines = _race(default_machine)
        assert len({id(m) for m in machines}) == 1
        # and later calls keep returning it
        assert default_machine() is machines[0]

    def test_warm_calls_are_stable(self):
        first = default_machine()
        assert all(m is first for m in _race(default_machine))


class TestWorkloadCache:
    def test_concurrent_workload_generation_is_consistent(self):
        machine = Machine()
        arrays = _race(lambda: machine.workload(C1))
        # double-checked locking: everyone sees the same cached array
        assert len({id(a) for a in arrays}) == 1
        reference = machine.workload(C1)
        assert np.array_equal(arrays[0], reference)

    def test_distinct_cases_do_not_cross_pollute(self):
        machine = Machine()

        def generate(i):
            case = C1
            data = machine.workload(case)
            return data.shape[0]

        sizes = _race(lambda: generate(0))
        assert len(set(sizes)) == 1


class TestCompileCache:
    def test_concurrent_compiles_converge_to_one_entry(self):
        clear_compile_cache()
        program = baseline_program(C1)
        compiled = _race(lambda: cached_compile(program))
        hits, misses, entries = compile_cache_stats()
        # racing cold calls may each compile, but the cache keeps exactly
        # one entry and every call is accounted as a hit or a miss
        assert entries == 1
        assert hits + misses == THREADS
        assert misses >= 1
        assert len({c.name for c in compiled}) == 1

    def test_warm_cache_identity(self):
        clear_compile_cache()
        program = baseline_program(C1)
        first = cached_compile(program)
        results = _race(lambda: cached_compile(program))
        assert all(r is first for r in results)
        hits, misses, entries = compile_cache_stats()
        assert (misses, entries) == (1, 1)
        assert hits == THREADS


class _SlowSlabRead:
    """Delegating config whose ``slab`` read yields the interpreter lock,
    widening the window between a memo's absence check and its creation."""

    def __init__(self, config):
        self._config = config

    def __getattr__(self, name):
        return getattr(self._config, name)

    @property
    def slab(self):
        time.sleep(0.005)
        return self._config.slab


class TestValueMemo:
    def test_concurrent_first_calls_share_one_memo(self):
        from repro import ReproConfig
        from repro.core.coexec import AllocationSite, measure_coexec_sweep

        config = ReproConfig(functional_elements_cap=1 << 12)
        machine = Machine(config=config)
        machine.config = _SlowSlabRead(config)
        fractions = iter(range(1, THREADS + 1))
        lock = threading.Lock()

        def sweep():
            with lock:
                p = next(fractions) / (THREADS + 1)
            return measure_coexec_sweep(
                machine, C1, AllocationSite.A1, p_grid=(p,), trials=1,
                verify=True,
            ).measurements[0].value

        values = _race(sweep)
        # Each thread adds its own device prefix and host suffix; a memo
        # replaced by a racing first call would lose some of them.
        assert len(machine._slab_value_cache) == 2 * THREADS
        assert len(set(values)) == 1
