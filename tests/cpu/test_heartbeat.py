"""Simulator progress heartbeats: tap-driven emission, ETA semantics
(``eta_s`` is null until instructions actually retire), the ``--quiet``
suppression gate, and engine neutrality (a tap never changes which
kernel runs)."""

import pytest

from repro import obs
from repro.cpu import engine, kerneldriver, nativebuild, pipeline
from repro.cpu.pipeline import simulate
from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg


def _alu_loop(n=200):
    b = ProgramBuilder("alu")
    b.set_reg(Reg.r2, n)
    b.li(Reg.r1, 0)
    b.label("top")
    b.add(Reg.r3, Reg.r3, Reg.r4)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


def _set_heartbeat_cycles(monkeypatch, value):
    # Both engines read the one constant at simulation start.
    monkeypatch.setattr(pipeline, "HEARTBEAT_CYCLES", value)


@pytest.fixture
def beats(monkeypatch):
    """Collect sim_heartbeat events at a tiny cycle interval."""
    _set_heartbeat_cycles(monkeypatch, 25)
    collected = []

    def tap(event):
        if event.get("event") == "sim_heartbeat":
            collected.append(event)

    obs.add_tap(tap)
    yield collected
    obs.remove_tap(tap)


def test_tap_triggers_heartbeats_with_progress_fields(beats):
    simulate(_alu_loop())
    assert beats, "no heartbeats despite an active tap"
    for event in beats:
        assert 0.0 <= event["progress_pct"] <= 100.0
        assert event["eta_s"] is None or event["eta_s"] >= 0.0
    cycles = [e["cycles"] for e in beats]
    assert cycles == sorted(cycles)
    pcts = [e["progress_pct"] for e in beats]
    assert pcts == sorted(pcts)


def test_eta_is_null_until_instructions_retire(monkeypatch, beats):
    # Fire the first heartbeat before anything can commit (the frontend
    # pipe alone is several cycles deep): zero retired in the interval
    # must report eta_s null, never a division blow-up or a bogus 0.
    _set_heartbeat_cycles(monkeypatch, 1)
    simulate(_alu_loop())
    assert beats[0]["committed"] == 0
    assert beats[0]["eta_s"] is None
    # Once instructions retire the projection becomes a real number.
    assert any(
        e["eta_s"] is not None for e in beats if e["committed"] > 0
    )


def test_quiet_suppresses_heartbeats_even_with_taps(beats):
    obs.set_quiet(True)
    try:
        simulate(_alu_loop())
    finally:
        obs.set_quiet(False)
    assert beats == []
    simulate(_alu_loop())  # gate re-opens once quiet is lifted
    assert beats


def test_no_taps_no_debug_means_no_heartbeats(monkeypatch):
    _set_heartbeat_cycles(monkeypatch, 25)
    # With no taps and the level below debug the heartbeat branch is
    # dead: log_event must never even be called with a heartbeat.
    assert not obs.has_taps()
    assert not obs.is_enabled("debug")
    seen = []
    real = obs.log_event

    def spy(event, **fields):
        seen.append(event)
        real(event, **fields)

    monkeypatch.setattr(pipeline.obs, "log_event", spy)
    simulate(_alu_loop())
    assert "sim_heartbeat" not in seen


@pytest.mark.skipif(
    not nativebuild.native_available(), reason="compiled kernel unavailable"
)
def test_heartbeats_come_from_the_c_kernel_under_a_tap(monkeypatch, beats):
    # An installed tap (as ``repro serve`` keeps for its lifetime) must
    # not push the run off the compiled kernel: the heartbeats arrive
    # through the kernel's loop-boundary callback.
    native_runs = []
    real = kerneldriver._run_native

    def counting(*args, **kwargs):
        native_runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kerneldriver, "_run_native", counting)
    engine.set_sim_backend("kernel")
    try:
        simulate(_alu_loop())
    finally:
        engine.set_sim_backend(None)
    assert native_runs == [1]
    assert beats, "no heartbeats from the compiled kernel"
    assert all(e["cycles"] >= 25 for e in beats)
