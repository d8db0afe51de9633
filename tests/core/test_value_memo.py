"""The machine's one functional-value memo.

Executor calls are counted through the callers' module globals — the
names the memo's compute closures resolve at call time.
"""

import pytest

import repro.core.coexec as coexec_mod
import repro.sim.batch as batch_mod
from repro import Machine, ReproConfig, VerificationError
from repro.core.cases import C1, C3
from repro.core.coexec import (
    AllocationSite,
    CPU_PART_GRID,
    measure_coexec_sweep,
)
from repro.core.optimized import KernelConfig
from repro.sim.batch import evaluate_gpu_slab

CAP = 1 << 14
CONFIG = KernelConfig(teams=128, v=4)


def _count(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _sweep(machine, site, case=C1, config=CONFIG, **kwargs):
    kwargs.setdefault("trials", 2)
    kwargs.setdefault("verify", True)
    return measure_coexec_sweep(machine, case, site, config, **kwargs)


class TestCoexecMemo:
    @pytest.mark.parametrize("config", [None, CONFIG], ids=["baseline", "opt"])
    def test_sites_share_each_part(self, monkeypatch, config):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP))
        device = _count(monkeypatch, coexec_mod, "execute_reduction")
        host = _count(monkeypatch, coexec_mod, "execute_host_reduction")
        a1 = _sweep(machine, AllocationSite.A1, config=config)
        # p = 0 has no host part and p = 1 no device part.
        assert len(device) == len(host) == len(CPU_PART_GRID) - 1
        a2 = _sweep(machine, AllocationSite.A2, config=config)
        assert len(device) == len(host) == len(CPU_PART_GRID) - 1
        assert [m.value for m in a1.measurements] == [
            m.value for m in a2.measurements
        ]

    def test_no_slab_machine_is_uncached(self, monkeypatch):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP,
                                             slab=False))
        device = _count(monkeypatch, coexec_mod, "execute_reduction")
        host = _count(monkeypatch, coexec_mod, "execute_host_reduction")
        a1 = _sweep(machine, AllocationSite.A1)
        a2 = _sweep(machine, AllocationSite.A2)
        parts = len(CPU_PART_GRID) - 1
        assert len(device) == len(host) == 2 * parts
        assert "_slab_value_cache" not in vars(machine)
        assert [m.value for m in a1.measurements] == [
            m.value for m in a2.measurements
        ]

    def test_failed_check_leaves_no_entry(self, monkeypatch):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP))
        real = coexec_mod.execute_host_reduction
        with monkeypatch.context() as patch:
            patch.setattr(
                coexec_mod, "execute_host_reduction",
                lambda data, cpu, rtype: real(data, cpu, rtype) + 7,
            )
            with pytest.raises(VerificationError):
                _sweep(machine, AllocationSite.A1, p_grid=(0.5,))
        assert not vars(machine).get("_slab_value_cache")
        sweep = _sweep(machine, AllocationSite.A1, p_grid=(0.5,))
        assert len(vars(machine)["_slab_value_cache"]) == 2
        assert sweep.measurements[0].value == _sweep(
            Machine(config=ReproConfig(functional_elements_cap=CAP,
                                       slab=False)),
            AllocationSite.A1, p_grid=(0.5,),
        ).measurements[0].value

    def test_raising_executor_leaves_no_entry(self, monkeypatch):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP))

        def broken(*args):
            raise RuntimeError("executor down")

        with monkeypatch.context() as patch:
            patch.setattr(coexec_mod, "execute_host_reduction", broken)
            with pytest.raises(RuntimeError):
                _sweep(machine, AllocationSite.A1, p_grid=(0.5,))
        assert not vars(machine).get("_slab_value_cache")


class TestSlabMemo:
    # Same grouping class: one element per team either way (V = 1).
    POINTS = [
        (C3, KernelConfig(teams=CAP, v=1, threads=64), 1, True),
        (C3, KernelConfig(teams=2 * CAP, v=1, threads=128), 1, True),
    ]

    def test_one_execution_and_check_per_class(self, monkeypatch):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP))
        runs = _count(monkeypatch, batch_mod, "_execute_reduction")
        checks = _count(monkeypatch, batch_mod, "verify_result")
        first = evaluate_gpu_slab(machine, self.POINTS)
        again = evaluate_gpu_slab(machine, self.POINTS)
        assert len(runs) == 1 and len(checks) == 1
        assert first == again
        assert first[0]["value"] == first[1]["value"]

    def test_no_slab_machine_is_uncached(self, monkeypatch):
        machine = Machine(config=ReproConfig(functional_elements_cap=CAP,
                                             slab=False))
        runs = _count(monkeypatch, batch_mod, "_execute_reduction")
        evaluate_gpu_slab(machine, self.POINTS)
        evaluate_gpu_slab(machine, self.POINTS)
        assert len(runs) == 4
        assert "_slab_value_cache" not in vars(machine)
