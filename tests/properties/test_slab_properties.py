"""Property test: the slab evaluator is byte-identical to the scalar path.

The tentpole invariant of the vectorized hot path — for any slab of
valid ``gpu_point`` payloads drawn from the fuzzer's space (all five
dtypes, baseline and optimized points, mixed cases, sums and two-array
``dot`` points, degenerate size-0/1 slabs) on any of the three machine
profiles, :func:`repro.sim.batch.evaluate_gpu_slab` produces records whose
canonical JSON equals the scalar ``_task_gpu_point`` loop's, with the
scalar oracle running under ``slab=False`` so it cannot share any memo
with the path under test.
"""

from hypothesis import given, settings, strategies as st

from repro import Machine, ReproConfig
from repro.core.cases import Case
from repro.core.optimized import KernelConfig
from repro.sim.batch import evaluate_gpu_slab
from repro.sweep.executor import _task_gpu_point
from repro.sweep.fingerprint import canonical_json

_PROFILES = ("gh200", "v100", "a100")

# The fuzzer's type pairings (verify/fuzzer.py): same-kind, never
# narrowing, int8 always widening to int64 as in the paper's C2.
_TYPE_PAIRS = (
    ("int8", "int64"),
    ("int32", "int32"),
    ("int32", "int64"),
    ("int64", "int64"),
    ("float32", "float32"),
    ("float32", "float64"),
    ("float64", "float64"),
)

_BASE_ELEMENTS = (1, 2, 3, 17, 255, 256, 1000, 4096)


@st.composite
def gpu_point_payloads(draw):
    """One valid ``(case, config, trials, verify)`` payload, or its
    ``dot`` 5-tuple: the identifier that changes the model's inputs, because
    it streams two arrays."""
    etype, rtype = draw(st.sampled_from(_TYPE_PAIRS))
    if draw(st.booleans()):
        config = None
        v = 1
    else:
        v = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
        # KernelConfig requires powers of two with teams >= v.
        teams = draw(st.sampled_from(
            [t for t in (128, 256, 1024, 4096, 16384, 65536) if t >= v]
        ))
        threads = draw(st.sampled_from([32, 64, 128, 256, 512, 1024]))
        config = KernelConfig(teams=teams, v=v, threads=threads)
    base = draw(st.sampled_from(_BASE_ELEMENTS))
    case = Case(
        name=f"F{etype}_{rtype}_{base * v}",
        element_type=etype,
        result_type=rtype,
        elements=base * v,  # divisible by v by construction
    )
    trials = draw(st.sampled_from([1, 5, 20, 200]))
    verify = draw(st.sampled_from([None, False, True]))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return (case, config, trials, verify, "dot")
    return (case, config, trials, verify)


def _machines(profile="gh200"):
    """The slab machine and its differential oracle: identical profile,
    slab disabled, so the oracle shares no memo with the path under test."""
    slab = Machine(config=ReproConfig(
        functional_elements_cap=1 << 12, slab=True, machine_profile=profile,
    ))
    oracle = Machine(
        system=slab.system, calibration=slab.calibration,
        config=ReproConfig(
            functional_elements_cap=1 << 12, slab=False,
            machine_profile=profile,
        ),
    )
    return slab, oracle


class TestSlabEqualsScalar:
    @given(payloads=st.lists(gpu_point_payloads(), min_size=0, max_size=8),
           profile=st.sampled_from(_PROFILES))
    @settings(max_examples=80, deadline=None)
    def test_records_byte_identical(self, payloads, profile):
        slab_machine, oracle = _machines(profile)
        slab_records = evaluate_gpu_slab(slab_machine, payloads)
        oracle_records = [_task_gpu_point(oracle, p) for p in payloads]
        assert canonical_json(slab_records) == canonical_json(oracle_records)

    @given(payloads=st.lists(gpu_point_payloads(), min_size=2, max_size=4),
           profile=st.sampled_from(_PROFILES))
    @settings(max_examples=30, deadline=None)
    def test_launch_traces_identical(self, payloads, profile):
        slab_machine, oracle = _machines(profile)
        evaluate_gpu_slab(slab_machine, payloads)
        for p in payloads:
            _task_gpu_point(oracle, p)
        assert (
            slab_machine.trace.kernel_launches
            == oracle.trace.kernel_launches
        )

    @given(payload=gpu_point_payloads(), profile=st.sampled_from(_PROFILES))
    @settings(max_examples=40, deadline=None)
    def test_singleton_slab(self, payload, profile):
        slab_machine, oracle = _machines(profile)
        [record] = evaluate_gpu_slab(slab_machine, [payload])
        assert canonical_json(record) == canonical_json(
            _task_gpu_point(oracle, payload)
        )

    def test_empty_slab(self):
        slab_machine, _ = _machines()
        assert evaluate_gpu_slab(slab_machine, []) == []

    @given(payloads=st.lists(gpu_point_payloads(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_repeat_evaluation_is_stable(self, payloads):
        # The per-machine value/measure memos must never change results.
        slab_machine, _ = _machines()
        first = evaluate_gpu_slab(slab_machine, payloads)
        second = evaluate_gpu_slab(slab_machine, payloads)
        assert canonical_json(first) == canonical_json(second)
