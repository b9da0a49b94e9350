"""Cross-cell analysis sharing: memoized classification, slice trees,
cost functions, and optimized runs must never change results."""

import pytest

from repro import memo
from repro.config import MachineConfig, SimulationConfig
from repro.critpath.classify import (
    classify_trace_cached,
    profile_geometry_key,
)
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import figures, simcache
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program


@pytest.fixture(autouse=True)
def _clean_state():
    memo.clear_all()
    yield
    memo.clear_all()


@pytest.fixture()
def trace():
    return interpret(get_program("gcc", "train"), max_instructions=60_000,
                     require_halt=False)


def test_geometry_key_ignores_latencies():
    base = MachineConfig()
    assert profile_geometry_key(
        base.with_memory_latency(300)
    ) == profile_geometry_key(base)
    assert profile_geometry_key(
        base.scaled_l2(128 * 1024, 10)
    ) != profile_geometry_key(base)


def test_classification_shared_across_latencies(trace):
    machine = MachineConfig()
    first = classify_trace_cached(trace, machine)
    again = classify_trace_cached(trace, machine.with_memory_latency(300))
    assert again is first
    other_geom = classify_trace_cached(
        trace, machine.scaled_l2(128 * 1024, 10)
    )
    assert other_geom is not first


def test_classification_recomputed_after_clear_all():
    # The classification memo lives on the memoized trace, so it dies
    # with it: after clear_all() the next cell classifies from scratch,
    # bit-identically.
    machine = MachineConfig()
    program = get_program("gcc", "train")
    budget = SimulationConfig().max_instructions
    trace, _ = tracestore.get_trace(program, budget)
    first = classify_trace_cached(trace, machine)
    assert classify_trace_cached(trace, machine) is first
    memo.clear_all()
    fresh, _ = tracestore.get_trace(program, budget)
    assert fresh is not trace
    again = classify_trace_cached(fresh, machine)
    assert again is not first
    assert first.service == again.service
    assert first.mispredicted == again.mispredicted


def _tiny_grid(latencies=(100, 200)):
    return figures.figure5_memory_latency(
        benchmarks=("gcc",),
        latencies=latencies,
        targets=(Target.LATENCY,),
        jobs=1,
    )


def _strip(rows):
    return [
        {
            k: v
            for k, v in row.items()
            if not k.startswith("t_") and not k.startswith("src_")
        }
        for row in rows
    ]


def test_grid_rows_identical_with_and_without_memo():
    # "Without memo": every cell starts from empty memos, so nothing is
    # shared across cells.
    with simcache.disabled():
        shared = _strip(_tiny_grid())
        independent = []
        for latency in (100, 200):
            memo.clear_all()
            independent += _strip(_tiny_grid(latencies=(latency,)))
    assert shared == independent
