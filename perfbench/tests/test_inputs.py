"""Seeded inputs and pinned digests of the benchmark workloads.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from checks import pinned_digest  # noqa: E402
from workloads import (  # noqa: E402
    RequestStream,
    draw_configs,
    paper_digest_small,
    service_digest_small,
    sweep_digest_small,
)


def _stream(seed: int, blocks: int = 3):
    stream = RequestStream(seed)
    return [stream.next_block(50) for _ in range(blocks)]


def _draws(seed: int):
    import random

    return draw_configs(random.Random(seed), 300)


def _arrays(seed: int):
    from repro import Machine, ReproConfig
    from repro.core.cases import C1, C3

    machine = Machine(config=ReproConfig(seed=seed,
                                         functional_elements_cap=1 << 12))
    return [machine.workload(C1).tolist(), machine.workload(C3).tolist()]


@pytest.mark.parametrize("make", [_stream, _draws, _arrays],
                         ids=["service-requests", "sweep-configs", "arrays"])
def test_inputs_follow_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_one_request_in_five_is_new():
    requests = [r for block in _stream(3, blocks=4) for r in block]
    unique = {tuple(sorted(r.items())) for r in requests}
    assert len(unique) == len(requests) // 5


@pytest.mark.parametrize("workload, digest", [
    ("paper-cold", paper_digest_small),
    ("sweep-model", sweep_digest_small),
    ("service-mix", service_digest_small),
])
def test_pinned_digest_is_seed_independent(workload, digest):
    pinned = pinned_digest(workload)
    assert digest(7) == pinned
    assert digest(8) == pinned


def test_host_slowdown_is_the_median_sample_over_the_reference():
    from hostspeed import MIN_SAMPLES, REFERENCE_S, HostSpeed

    speed = HostSpeed()
    assert speed.slowdown(speed.mark()) == 1.0
    speed.samples = [REFERENCE_S] * MIN_SAMPLES
    mark = speed.mark()
    speed.samples += [2 * REFERENCE_S] * MIN_SAMPLES
    assert speed.slowdown(mark) == 2.0
    # A short interval is judged by the last MIN_SAMPLES samples.
    speed.samples += [3 * REFERENCE_S]
    assert speed.slowdown(speed.mark()) == 2.0
