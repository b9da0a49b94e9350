"""Per-process trace memo shared across grid cells.

``interpret()`` is machine-configuration independent: a workload's dynamic
trace depends only on the program and the instruction budget.  A figure
grid therefore re-executes the same interpretation once per *cell* (27
times for the memory-latency grid) when once per *workload* suffices.
This module memoizes built traces per process in a :class:`repro.memo.Memo`
keyed by ``(Program.fingerprint(), max_instructions)``, so cells share one
trace object -- including its lazily materialized pc->seqs index, flat-list
view, and consumer-derived columns -- read-only.  The memo is the only
owner of a shared trace: its ``trace.derived`` analyses are dropped with
it.  Pool workers forked from a warmed parent inherit the memo for free.

Augmented (p-thread) interpretations use ``pc_hooks`` and mutate
architectural state observation per call; they never go through the memo.
"""

from __future__ import annotations

import time
from typing import Tuple

from repro.frontend.interpreter import interpret
from repro.frontend.trace import Trace
from repro.isa.instruction import Program
from repro.memo import Memo

#: Retained traces per process; a run touches a handful of
#: workloads, the bound keeps long sweeps safe.
_TRACES = Memo("frontend.tracestore", limit=32)


def get_trace(program: Program, max_instructions: int) -> Tuple[Trace, float]:
    """The memoized trace for ``(program, max_instructions)``.

    Returns ``(trace, build_seconds)``; ``build_seconds`` is 0.0 on a memo
    hit (nothing was built in this call).
    """
    trace, build_seconds, _ = get_trace_tagged(program, max_instructions)
    return trace, build_seconds


def get_trace_tagged(
    program: Program, max_instructions: int
) -> Tuple[Trace, float, str]:
    """:func:`get_trace` plus where the trace came from.

    Returns ``(trace, build_seconds, src)`` with ``src`` either
    ``"interpreted"`` (this call ran the interpreter; ``build_seconds``
    measures it) or ``"memo"`` (served from the per-process memo;
    ``build_seconds`` is 0.0).  The tag is what lets bench cold-phase
    rows explain a ``t_trace`` of zero.
    """
    key = (program.fingerprint(), max_instructions)
    cached = _TRACES.get(key)
    if cached is not None:
        return cached, 0.0, "memo"
    start = time.perf_counter()
    trace = interpret(program, max_instructions=max_instructions)
    build_seconds = time.perf_counter() - start
    _TRACES.put(key, trace)
    return trace, build_seconds, "interpreted"
