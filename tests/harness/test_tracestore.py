"""Tests for the per-process trace memo."""

import pytest

from repro import memo
from repro.config import SimulationConfig
from repro.frontend import tracestore
from repro.workloads.registry import get_program

SIM = SimulationConfig()


@pytest.fixture(autouse=True)
def _clean_store():
    memo.clear_all()
    yield
    memo.clear_all()


def _stats():
    return tracestore._TRACES.stats()


def test_memo_shares_one_trace_object():
    program = get_program("gcc", "train")
    before = _stats()
    first, t_first = tracestore.get_trace(program, SIM.max_instructions)
    second, t_second = tracestore.get_trace(program, SIM.max_instructions)
    assert second is first
    assert t_first > 0.0
    assert t_second == 0.0
    stats = _stats()
    assert stats["misses"] - before["misses"] == 1
    assert stats["hits"] - before["hits"] == 1


def test_memo_keyed_by_budget():
    program = get_program("gcc", "train")
    full, _ = tracestore.get_trace(program, SIM.max_instructions)
    # A different instruction budget is a different trace artifact.
    other, _ = tracestore.get_trace(program, SIM.max_instructions + 1)
    assert other is not full
    assert _stats()["entries"] == 2


def test_memo_keyed_by_program_content():
    before = _stats()
    gcc, _ = tracestore.get_trace(
        get_program("gcc", "train"), SIM.max_instructions
    )
    twolf, _ = tracestore.get_trace(
        get_program("twolf", "train"), SIM.max_instructions
    )
    assert twolf is not gcc
    stats = _stats()
    assert stats["entries"] == 2
    assert stats["hits"] == before["hits"]
    assert stats["misses"] - before["misses"] == 2


def test_clear_all_forces_reinterpretation():
    program = get_program("gcc", "train")
    first, t_first = tracestore.get_trace(program, SIM.max_instructions)
    memo.clear_all()
    assert _stats()["entries"] == 0
    second, t_second = tracestore.get_trace(program, SIM.max_instructions)
    assert second is not first
    assert t_first > 0.0 and t_second > 0.0
    # Bit-identical either way.
    assert first.as_lists() == second.as_lists()


def test_memo_is_lru(monkeypatch):
    monkeypatch.setattr(tracestore._TRACES, "limit", 2)
    gcc = get_program("gcc", "train")
    twolf = get_program("twolf", "train")
    first, _ = tracestore.get_trace(gcc, SIM.max_instructions)
    tracestore.get_trace(twolf, SIM.max_instructions)
    tracestore.get_trace(gcc, SIM.max_instructions)  # gcc most recent
    tracestore.get_trace(gcc, SIM.max_instructions + 1)  # evicts twolf
    again, t_again = tracestore.get_trace(gcc, SIM.max_instructions)
    assert again is first and t_again == 0.0
    assert (twolf.fingerprint(), SIM.max_instructions) not in (
        tracestore._TRACES.keys()
    )
