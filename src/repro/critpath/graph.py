"""Dependence-graph forward pass over a trace window.

A lightweight instantiation of the Fields et al. critical-path model with
three events per instruction -- dispatch (D), execute-start (E), commit
(C) -- and edges for:

- in-order fetch/dispatch bandwidth (1/width cycle per instruction),
- branch misprediction (dispatch of post-branch instructions waits for
  the branch to resolve plus a front-end refill),
- dataflow (execute waits for producers' completions),
- finite ROB (dispatch waits for the commit of the instruction ROB-size
  earlier),
- in-order commit at commit-width bandwidth.

The pass is O(window length) and is re-run with modified load latencies
to answer the "what if this load were faster" questions the load cost
model asks (Section 4.1 of the paper).

:meth:`ForwardPass.run` has two implementations of one loop: the
compiled ``repro_critpath_run`` entry point of the cycle kernel's
artifact (see :mod:`repro.cpu.nativebuild`), used whenever that
artifact loads, and the pure-Python loop below, its mirror and the
fallback (``REPRO_NATIVE=0`` selects it, together with the Python
cycle kernel).  Both compute in IEEE doubles in the same order, so
they return identical floats.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.critpath.classify import L1, L2, MEM, LoadClassification
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.opcodes import CLASS_BY_CODE, LD_CODE, OpClass


def service_latency(level: str, config: MachineConfig) -> int:
    """Load-to-use latency for a service level."""
    if level == MEM:
        return (
            config.dcache.hit_latency
            + config.l2.hit_latency
            + config.memory_latency
        )
    if level == L2:
        return config.dcache.hit_latency + config.l2.hit_latency
    return config.dcache.hit_latency


class ForwardPass:
    """Reusable forward-pass engine over one trace window."""

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        classification: Optional[LoadClassification] = None,
        start: int = 0,
        end: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.config = config or MachineConfig()
        self.start = start
        self.end = len(trace) if end is None else min(end, len(trace))
        self._classification = classification

        cfg = self.config
        # Pre-extract per-instruction static latencies and dependences for
        # speed (column sweeps over the trace's shared lists rather than
        # per-object attribute walks); load latencies are replaced per
        # run() call.
        start, end = self.start, self.end
        L = trace.as_lists()
        codes = L.op_code
        # code -> fixed latency for non-load instructions.
        lat_by_code = [
            float(cfg.mul_latency) if cls is OpClass.MUL
            else 0.0 if cls in (OpClass.NOP, OpClass.HALT, OpClass.JUMP)
            else 1.0
            for cls in CLASS_BY_CODE
        ]
        lat_by_level = {
            level: float(service_latency(level, cfg))
            for level in (L1, L2, MEM)
        }
        service_get = classification.service.get if classification else None
        l1_lat = lat_by_level[L1]

        base_latency: List[float] = []
        is_load: List[bool] = []
        ld_code = LD_CODE
        for seq in range(start, end):
            code = codes[seq]
            if code == ld_code:
                is_load.append(True)
                if service_get is not None:
                    base_latency.append(lat_by_level[service_get(seq, L1)])
                else:
                    base_latency.append(l1_lat)
            else:
                is_load.append(False)
                base_latency.append(lat_by_code[code])
        self._base_latency = base_latency
        self._is_load = is_load

        mispred = [False] * (end - start)
        if classification is not None:
            for seq in classification.mispredicted:
                if start <= seq < end:
                    mispred[seq - start] = True
        self._mispredicted = mispred
        self._src1 = L.src1[start:end]
        self._src2 = L.src2[start:end]
        # (latency array('d'), mispredict bytes), built on the first
        # compiled pass; the producer columns are read from the trace.
        self._c_inputs: Optional[tuple] = None

    def __len__(self) -> int:
        return self.end - self.start

    def _latencies(self, base, latency_override: Optional[Dict[int, float]]):
        """``base`` (a list or ``array('d')``) with the override applied
        to a copy, so the inner loop reads a plain latency column
        instead of probing a dict per instruction."""
        if not latency_override:
            return base
        start, n = self.start, len(self)
        latency = base[:]
        for seq, lat in latency_override.items():
            i = seq - start
            if 0 <= i < n:
                latency[i] = lat
        return latency

    def run(self, latency_override: Optional[Dict[int, float]] = None) -> float:
        """Execute the forward pass; return the window's execution time.

        ``latency_override`` maps dynamic sequence numbers to replacement
        latencies (the what-if knob of the load cost model).
        """
        n = len(self)
        if n == 0:
            return 0.0
        # Imported here, as in kerneldriver: the artifact machinery stays
        # off the import path of everything that only imports critpath.
        from repro.cpu import nativebuild

        lib = nativebuild.load()
        if lib is not None:
            return self._run_compiled(lib, latency_override)
        cfg = self.config
        start = self.start
        inv_width = 1.0 / cfg.width
        inv_commit = 1.0 / cfg.commit_width
        rob = cfg.rob_entries
        refill = float(cfg.frontend_depth)
        src1 = self._src1
        src2 = self._src2
        mispred = self._mispredicted
        latency = self._latencies(self._base_latency, latency_override)

        comp: List[float] = [0.0] * n  # completion time of local index i
        commit: List[float] = [0.0] * n
        d_prev = 0.0
        c_prev = 0.0
        redirect_ready = 0.0

        for i in range(n):
            d = d_prev + inv_width
            if redirect_ready > d:
                d = redirect_ready
            if i >= rob:
                rob_limit = commit[i - rob]
                if rob_limit > d:
                    d = rob_limit
            e = d + 1.0
            p = src1[i]
            if p != NO_PRODUCER and p >= start:
                t = comp[p - start]
                if t > e:
                    e = t
            p = src2[i]
            if p != NO_PRODUCER and p >= start:
                t = comp[p - start]
                if t > e:
                    e = t
            done = e + latency[i]
            comp[i] = done
            c = c_prev + inv_commit
            if done > c:
                c = done
            commit[i] = c
            c_prev = c
            d_prev = d
            if mispred[i]:
                redirect_ready = done + refill

        return commit[n - 1]

    def _run_compiled(
        self, lib, latency_override: Optional[Dict[int, float]]
    ) -> float:
        """:meth:`run` through the artifact's ``repro_critpath_run``.

        The producer columns are the trace's sealed int64 ``src1``/
        ``src2``, read in place at offset ``start``; the latency column
        is built per call, so concurrent passes share only read-only
        inputs (the call releases the GIL).
        """
        from repro.cpu.kerneldriver import _address

        inputs = self._c_inputs
        if inputs is None:
            inputs = (array("d", self._base_latency),
                      bytes(self._mispredicted))
            self._c_inputs = inputs
        base, mispred = inputs
        latency = self._latencies(base, latency_override)
        columns = self.trace.columns
        offset = 8 * self.start
        cfg = self.config
        result = ctypes.c_double()
        rc = lib.repro_critpath_run(
            _address(columns.src1) + offset,
            _address(columns.src2) + offset,
            latency.buffer_info()[0],
            mispred,
            len(self),
            self.start,
            NO_PRODUCER,
            cfg.width,
            cfg.commit_width,
            cfg.rob_entries,
            cfg.frontend_depth,
            ctypes.byref(result),
        )
        if rc == 1:
            raise MemoryError("forward pass failed to allocate")
        if rc == 2:
            raise IndexError("producer after the end of the window")
        return result.value

    def load_seqs(self) -> List[int]:
        """Sequence numbers of loads inside this window."""
        return [
            self.start + i for i, is_ld in enumerate(self._is_load) if is_ld
        ]
