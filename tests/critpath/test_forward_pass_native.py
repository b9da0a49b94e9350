"""Golden identity of the two forward-pass implementations.

:meth:`ForwardPass.run` runs the artifact's ``repro_critpath_run`` when
the compiled library loads and its pure-Python loop otherwise.  Both
must return ``==`` floats on every pass the load cost model makes --
the base pass and each pessimistic/optimistic override set that
:func:`build_cost_functions` builds -- for every seed benchmark's
problem loads, and on empty and offset windows.  Without the artifact
(``REPRO_NATIVE=0``) the C-vs-Python cases skip and the rest run the
Python loop.
"""

import sys
import threading
from unittest import mock

import pytest

from repro.config import MachineConfig, SelectionConfig
from repro.cpu import nativebuild
from repro.critpath.classify import MEM, classify_trace
from repro.critpath.graph import ForwardPass
from repro.critpath.loadcost import build_cost_functions
from repro.frontend.interpreter import interpret
from repro.pthsel.framework import identify_problem_loads
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

try:
    HAVE_NATIVE = nativebuild.native_available()
except Exception:  # pragma: no cover - probe must never break the suite
    HAVE_NATIVE = False

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled artifact unavailable"
)


def _python_only():
    return mock.patch.object(nativebuild, "load", lambda: None)


@pytest.fixture(scope="module", params=benchmark_names())
def analysed(request):
    trace = interpret(get_program(request.param), 2_000_000)
    classification = classify_trace(trace)
    pcs = identify_problem_loads(classification, SelectionConfig())
    return trace, classification, pcs


def _recorded_passes(trace, classification, pcs, config):
    """Every (ForwardPass, override, Python result) that
    ``build_cost_functions`` evaluates, run on the Python loop."""
    calls = []
    original = ForwardPass.run

    def recording(self, latency_override=None):
        value = original(self, latency_override)
        override = dict(latency_override) if latency_override else None
        calls.append((self, override, value))
        return value

    with _python_only(), mock.patch.object(ForwardPass, "run", recording):
        functions = build_cost_functions(trace, classification, pcs, config)
    return functions, calls


@needs_native
def test_every_cost_model_pass_matches(analysed):
    trace, classification, pcs = analysed
    if not pcs:
        pytest.skip("no problem loads")
    functions, calls = _recorded_passes(
        trace, classification, pcs, MachineConfig()
    )
    # The base pass, plus 1 optimistic baseline and 4 x 2 sample passes
    # per problem load.
    assert len(calls) == 1 + 9 * len(pcs)
    for fp, override, py_value in calls:
        assert fp.run(override) == py_value
    assert build_cost_functions(trace, classification, pcs) == functions


@needs_native
def test_cost_functions_match_at_other_latencies(analysed):
    trace, classification, pcs = analysed
    if not pcs:
        pytest.skip("no problem loads")
    config = MachineConfig().with_memory_latency(300)
    with _python_only():
        expected = build_cost_functions(trace, classification, pcs, config)
    assert build_cost_functions(trace, classification, pcs, config) == expected


@needs_native
def test_empty_and_offset_windows():
    trace = interpret(get_program("gap"), 2_000_000)
    classification = classify_trace(trace)
    third = len(trace) // 3
    empty = ForwardPass(trace, classification=classification,
                        start=third, end=third)
    offset = ForwardPass(trace, classification=classification,
                         start=third, end=third + 20_000)
    misses = [
        seq for seq in offset.load_seqs()
        if classification.service.get(seq) == MEM
    ]
    override = {seq: 3.0 for seq in misses}
    override[third - 1] = 5.0  # outside the window: ignored
    assert empty.run() == 0.0
    c_values = (offset.run(), offset.run(override))
    with _python_only():
        assert empty.run() == 0.0
        py_values = (offset.run(), offset.run(override))
    assert c_values == py_values
    assert c_values[0] != c_values[1]


def test_concurrent_cost_functions_match_sequential():
    """Two threads share one trace and machine while the compiled pass
    releases the GIL; each must see what a sequential run sees."""
    trace = interpret(get_program("gcc"), 2_000_000)
    classification = classify_trace(trace)
    pcs = identify_problem_loads(classification, SelectionConfig())
    config = MachineConfig()
    expected = build_cost_functions(trace, classification, pcs, config)
    results = [None, None]
    errors = []

    def worker(slot):
        try:
            for _ in range(8):
                got = build_cost_functions(trace, classification, pcs, config)
                if got != expected:
                    results[slot] = got
                    return
            results[slot] = expected
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert results == [expected, expected]
