"""Marshal/unmarshal driver for the cycle kernel (the ``kernel`` engine).

:func:`repro.cpu.pipeline.simulate` routes every run here unless the
``reference`` engine is selected or microarchitectural tracing is on.
The driver runs the compiled C kernel when
:func:`repro.cpu.nativebuild.load` returns a library and the pure
CPython :func:`repro.cpu._kernel.run` otherwise, so which one runs
follows whether the artifact loads, not an option.  All object traffic
stops at this boundary: the driver flattens the trace columns, machine
config, p-thread program and warmed cache image into the kernel's
``C_*`` config block and flat arrays, and rebuilds ``SimStats`` (and the
byte-identical error objects) from the ``O_*`` counter block and
ordered event streams the kernel returns.

Instrumentation is engine-neutral: progress heartbeats
(``sim_heartbeat``, when debug telemetry or a tap is on) and the
``pipeline.step`` fault site run in :class:`repro.cpu.pipeline.LoopHook`,
which both kernels -- and the reference -- call at the loop top on the
same cycles.  An injected fault cannot propagate through a ctypes
callback, so the hook stashes it, returns nonzero to stop the kernel,
and the driver re-raises it.

Marshaled forms are memoized on ``trace.derived["simprep"]`` next to the
shared precomputes of :mod:`repro.cpu.batch` (branch-predictor and BTB
columns, one byte per instruction, read by both kernels):

- Python kernel: ``("lines", shift)`` and ``("kwarm", icache, dcache,
  l2)`` -- packed ``tag << 1 | dirty`` per-set lists;
- C kernel: ``("kcols",)`` -- kind/ctrl/writes bytes -- and
  ``("kcwarm", ...)`` -- flat ``ways``/``occ`` arrays.  The int64
  ``pc``/``addr``/``src1``/``src2``/``next_pc`` columns and the
  ``taken`` column are the trace's sealed columns, passed without a
  copy.  Output buffers are allocated per call: the C call releases the
  GIL, and concurrent simulations may share a trace.
"""

from __future__ import annotations

import time
from array import array
from typing import List, Optional, Tuple

from repro import obs
from repro.config import MachineConfig
from repro.cpu import _kernel
from repro.cpu import batch as _batch
from repro.cpu import pipeline as _ref
from repro.cpu._kernel import (
    O_LEN,
    STATUS_DEADLOCK,
    STATUS_HOOK,
    STATUS_OK,
    STATUS_SAFETY,
)
from repro.cpu.pthreads import PThreadProgram
from repro.cpu.stats import SimStats
from repro.errors import ExecutionError, PipelineDeadlockError
from repro.frontend.trace import NO_PRODUCER, Trace

K = _kernel

# The kernel module defines its enums locally to stay import-free; they
# must be value-identical to the pipeline's.
assert (K.K_ALU, K.K_MUL, K.K_LOAD, K.K_STORE, K.K_BRANCH, K.K_NOP) == (
    _ref._ALU, _ref._MUL, _ref._LOAD, _ref._STORE, _ref._BRANCH, _ref._NOP
)
assert (K.CTRL_NONE, K.CTRL_BRANCH, K.CTRL_JUMP) == (
    _ref._CTRL_NONE, _ref._CTRL_BRANCH, _ref._CTRL_JUMP
)
assert K.NOT_DONE == _ref._NOT_DONE


class _FlatPThreads:
    """A PThreadProgram flattened to spawn/p-inst index arrays.

    Built directly as ``array('q')`` / ``bytearray`` columns: the C
    kernel reads them in place, and an augmented run can carry ~10^5
    p-instructions, whose list-of-int form would dwarf the arrays.
    """

    __slots__ = (
        "sp_trigger", "sp_static", "sp_inst_lo", "sp_inst_hi",
        "pi_kind", "pi_addr", "pi_hint_seq", "pi_hint_taken",
        "pi_dep_lo", "pi_dep_hi", "dep_flat",
        "pi_live_lo", "pi_live_hi", "live_flat",
    )

    def __init__(self, pth: PThreadProgram) -> None:
        # Stable-sorted by trigger: dispatch visits sequence numbers in
        # strictly increasing order, so the kernel replaces the trigger
        # dict with one advancing cursor over this array.
        spawns = [
            spawn
            for _, group in sorted(pth.spawns_by_trigger.items())
            for spawn in group
        ]
        self.sp_trigger = array("q")
        self.sp_static = array("q")
        self.sp_inst_lo = array("q")
        self.sp_inst_hi = array("q")
        self.pi_kind = bytearray()
        self.pi_addr = array("q")
        self.pi_hint_seq = array("q")
        self.pi_hint_taken = bytearray()
        self.pi_dep_lo = array("q")
        self.pi_dep_hi = array("q")
        self.dep_flat = array("q")
        self.pi_live_lo = array("q")
        self.pi_live_hi = array("q")
        self.live_flat = array("q")
        kind_of = _ref._PCLASS_TO_KIND
        for spawn in spawns:
            self.sp_trigger.append(spawn.trigger_seq)
            self.sp_static.append(spawn.static_id)
            self.sp_inst_lo.append(len(self.pi_kind))
            for spec in spawn.insts:
                self.pi_kind.append(kind_of[spec.klass])
                self.pi_addr.append(spec.addr)
                self.pi_hint_seq.append(spec.hint_branch_seq)
                self.pi_hint_taken.append(1 if spec.hint_taken else 0)
                self.pi_dep_lo.append(len(self.dep_flat))
                self.dep_flat.extend(spec.body_deps)
                self.pi_dep_hi.append(len(self.dep_flat))
                self.pi_live_lo.append(len(self.live_flat))
                self.live_flat.extend(spec.livein_seqs)
                self.pi_live_hi.append(len(self.live_flat))
            self.sp_inst_hi.append(len(self.pi_kind))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _cfg_block(
    cfg: MachineConfig,
    n_main: int,
    flat: _FlatPThreads,
    do_warm: bool,
    has_spawns: bool,
    has_hints: bool,
    use_btb_col: bool,
    hook_interval: int,
) -> List[int]:
    c = [0] * K.C_LEN
    c[K.C_N_MAIN] = n_main
    c[K.C_WIDTH] = cfg.width
    c[K.C_COMMIT_WIDTH] = cfg.commit_width
    c[K.C_FRONTEND_DEPTH] = cfg.frontend_depth
    c[K.C_RS_CAPACITY] = cfg.rs_entries
    c[K.C_ROB_CAPACITY] = cfg.rob_entries
    c[K.C_PHYS_BUDGET] = cfg.physical_registers - 32  # main arch state
    c[K.C_PIPE_CAPACITY] = cfg.width * cfg.frontend_depth
    c[K.C_PTH_BLOCK_INTERVAL] = max(
        1, int(round(cfg.width / cfg.pthread_fetch_ipc))
    )
    c[K.C_INT_ALUS] = cfg.int_alus
    c[K.C_LOAD_PORTS] = cfg.load_ports
    c[K.C_STORE_PORTS] = cfg.store_ports
    c[K.C_MUL_LATENCY] = cfg.mul_latency
    c[K.C_ISSUE_POOL_LIMIT] = cfg.width + 8
    c[K.C_MAIN_RS_CAP] = max(
        cfg.width, cfg.rs_entries - cfg.pthread_rs_reserve
    )
    c[K.C_FREE_CONTEXTS] = cfg.thread_contexts - 1
    c[K.C_SAFETY_LIMIT] = 400 * n_main + 10_000_000
    c[K.C_INST_BYTES] = _ref.INST_BYTES
    c[K.C_LINE_SHIFT] = cfg.icache.line_bytes.bit_length() - 1
    c[K.C_L2_LINE_SHIFT] = cfg.l2.line_bytes.bit_length() - 1
    c[K.C_HAS_SPAWNS] = 1 if has_spawns else 0
    c[K.C_HAS_HINTS] = 1 if has_hints else 0
    c[K.C_USE_BTB_COL] = 1 if use_btb_col else 0
    c[K.C_BTB_ENTRIES] = cfg.btb_entries
    c[K.C_PTHREAD_FILL_L1] = 1 if cfg.pthread_fill_l1 else 0
    c[K.C_NO_PRODUCER] = NO_PRODUCER
    c[K.C_DO_WARM] = 1 if do_warm else 0
    for base, cc in (
        (K.C_IC_OFFSET_BITS, cfg.icache),
        (K.C_DC_OFFSET_BITS, cfg.dcache),
        (K.C_L2_OFFSET_BITS, cfg.l2),
    ):
        n_sets = cc.n_sets
        c[base] = cc.line_bytes.bit_length() - 1
        c[base + 1] = n_sets.bit_length() - 1
        c[base + 2] = n_sets - 1
        c[base + 3] = cc.assoc
        c[base + 4] = n_sets
        c[base + 5] = cc.hit_latency
    c[K.C_ITLB_ENTRIES] = cfg.itlb_entries
    c[K.C_DTLB_ENTRIES] = cfg.dtlb_entries
    c[K.C_PAGE_SHIFT] = cfg.page_bytes.bit_length() - 1
    c[K.C_TLB_MISS_LAT] = cfg.tlb_miss_latency
    c[K.C_MSHR_ENTRIES] = cfg.mshr_entries
    c[K.C_MEMORY_LATENCY] = cfg.memory_latency
    c[K.C_L2BUS_CYC_DLINE] = _ceil_div(cfg.dcache.line_bytes, cfg.bus_bytes)
    c[K.C_L2BUS_CYC_ILINE] = _ceil_div(cfg.icache.line_bytes, cfg.bus_bytes)
    c[K.C_MEMBUS_CYC_L2LINE] = (
        _ceil_div(cfg.l2.line_bytes, cfg.bus_bytes) * cfg.memory_bus_divisor
    )
    c[K.C_N_SPAWNS] = len(flat.sp_trigger)
    c[K.C_N_PINSTS] = len(flat.pi_kind)
    c[K.C_DEP_LEN] = len(flat.dep_flat)
    c[K.C_LIVE_LEN] = len(flat.live_flat)
    c[K.C_HOOK_INTERVAL] = hook_interval
    return c


def _packed_warm(trace: Trace, cfg: MachineConfig) -> Tuple:
    """Warm image as packed ``tag << 1 | dirty`` per-set lists."""
    return tuple(
        [[tag << 1 | (1 if dirty else 0) for tag, dirty in ways]
         for ways in sets]
        for sets in _batch._warm_sets(trace, cfg)
    )


def _py_warm(trace: Trace, cfg: MachineConfig) -> Tuple:
    """The packed warm image, memoized for the Python kernel."""
    store = _batch._prep_store(trace)
    key = ("kwarm", cfg.icache, cfg.dcache, cfg.l2)
    image = store.get(key)
    if image is None:
        image = _packed_warm(trace, cfg)
        store[key] = image
    return image


# ------------------------------------------------------------------ #
# C-kernel marshaling.
# ------------------------------------------------------------------ #


def _c_columns(trace: Trace) -> Tuple[bytes, bytes, bytes]:
    """kind/ctrl/writes as one byte per instruction."""
    store = _batch._prep_store(trace)
    key = ("kcols",)
    cols = store.get(key)
    if cols is None:
        kind_arr, ctrl_arr, writes_arr = _ref._pipeline_view(trace)[:3]
        cols = (bytes(kind_arr), bytes(ctrl_arr), bytes(writes_arr))
        store[key] = cols
    return cols


def _c_warm(trace: Trace, cfg: MachineConfig) -> Tuple:
    """Warm image as flat ``ways[set * assoc + i]`` / ``occ[set]`` arrays."""
    store = _batch._prep_store(trace)
    key = ("kcwarm", cfg.icache, cfg.dcache, cfg.l2)
    image = store.get(key)
    if image is None:
        parts = []
        for sets, cc in zip(
            _packed_warm(trace, cfg), (cfg.icache, cfg.dcache, cfg.l2)
        ):
            assoc = cc.assoc
            ways = array("q", bytes(8 * cc.n_sets * assoc))
            occ = array("q", bytes(8 * cc.n_sets))
            for index, entries in enumerate(sets):
                base = index * assoc
                ways[base: base + len(entries)] = array("q", entries)
                occ[index] = len(entries)
            parts.append(ways)
            parts.append(occ)
        image = tuple(parts)
        store[key] = image
    return image


def _address(col, itemsize: int = 8) -> int:
    """Base address of a contiguous ``array``/NumPy column whose items
    are ``itemsize`` bytes (the width the kernel reads them at)."""
    if isinstance(col, array):
        if col.itemsize != itemsize:
            raise ValueError(
                f"column typecode {col.typecode!r} is not {itemsize} bytes"
            )
        return col.buffer_info()[0]
    if col.itemsize != itemsize or not col.flags.c_contiguous:
        raise ValueError(
            f"column must be contiguous with {itemsize}-byte items, got "
            f"{col.dtype} (contiguous={col.flags.c_contiguous})"
        )
    return col.ctypes.data


def _run_native(
    lib,
    trace: Trace,
    cfg: MachineConfig,
    cfg_block: List[int],
    flat: _FlatPThreads,
    pred_b: bytes,
    btb_b: bytes,
    do_warm: bool,
    hook: Optional[_ref.LoopHook],
):
    import ctypes

    from repro.cpu import nativebuild

    n_main = cfg_block[K.C_N_MAIN]
    n_spawns = cfg_block[K.C_N_SPAWNS]
    kind_b, ctrl_b, writes_b = _c_columns(trace)
    columns = trace.columns
    if do_warm:
        warm = _c_warm(trace, cfg)
    else:
        warm = (None,) * 6

    pi_kind_b = bytes(flat.pi_kind)
    pi_hint_taken_b = bytes(flat.pi_hint_taken)

    # Each miss stream holds a main-thread load at most once.
    n_loads = kind_b.count(K.K_LOAD)
    zero = array("q", [0])
    out = zero * O_LEN
    missed_out = zero * (n_loads + 1)
    misspc_out = zero * (n_loads + 1)
    fa_out = zero * (6 * n_spawns + 8)
    cfg_a = array("q", cfg_block)

    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)

    def ip(arr):
        if arr is None or not len(arr):
            return ctypes.cast(None, i64p)
        return ctypes.cast(_address(arr), i64p)

    # bytes objects are read-only buffers the kernel never writes: take
    # their addresses zero-copy via c_char_p.
    def bpz(buf):
        if not buf:
            return ctypes.cast(None, u8p)
        return ctypes.cast(ctypes.c_char_p(buf), u8p)

    i_tbl = (i64p * nativebuild.I_LEN)(
        ip(columns.pc), ip(columns.addr), ip(columns.src1),
        ip(columns.src2), ip(columns.next_pc),
        ip(flat.sp_trigger), ip(flat.sp_static), ip(flat.sp_inst_lo),
        ip(flat.sp_inst_hi), ip(flat.pi_addr), ip(flat.pi_hint_seq),
        ip(flat.pi_dep_lo), ip(flat.pi_dep_hi), ip(flat.dep_flat),
        ip(flat.pi_live_lo), ip(flat.pi_live_hi), ip(flat.live_flat),
        ip(warm[0]), ip(warm[1]), ip(warm[2]),
        ip(warm[3]), ip(warm[4]), ip(warm[5]),
    )
    taken_p = (
        ctypes.cast(_address(columns.taken, 1), u8p)
        if n_main
        else ctypes.cast(None, u8p)
    )
    b_tbl = (u8p * nativebuild.B_LEN)(
        bpz(kind_b), bpz(ctrl_b), bpz(writes_b), taken_p,
        bpz(pred_b), bpz(btb_b), bpz(pi_kind_b), bpz(pi_hint_taken_b),
    )
    # The callback object must outlive the call; KernelHook() is NULL.
    callback = (
        nativebuild.KernelHook(hook) if hook is not None
        else nativebuild.KernelHook()
    )
    rc = lib.repro_kernel_run(
        ip(cfg_a), i_tbl, b_tbl, ip(out), ip(missed_out), ip(misspc_out),
        ip(fa_out), callback,
    )
    if rc != 0:
        raise MemoryError(f"native kernel failed to allocate (rc={rc})")
    out_list = out.tolist()
    missed = missed_out[: out_list[K.O_N_MISSED]].tolist()
    misspc = misspc_out[: out_list[K.O_N_MISSPC]].tolist()
    dead_fa = [
        tuple(fa_out[6 * i: 6 * i + 6]) for i in range(out_list[K.O_N_FA])
    ]
    return out_list, missed, misspc, dead_fa


# ------------------------------------------------------------------ #
# Entry point.
# ------------------------------------------------------------------ #


def simulate_kernel(
    trace: Trace,
    config: Optional[MachineConfig] = None,
    pthreads: Optional[PThreadProgram] = None,
    warm: bool = True,
) -> SimStats:
    """Run one timing simulation on the cycle kernel.

    Bit-identical drop-in for the reference
    :meth:`repro.cpu.pipeline.Pipeline.run`: the compiled C kernel runs
    when its artifact loads, the Python kernel otherwise.
    """
    from repro.cpu import nativebuild

    cfg = config or MachineConfig()
    pth = pthreads or PThreadProgram()
    wall_start = time.perf_counter()
    n_main = len(trace)

    pred_b = _batch._pred_column(trace, cfg.bpred_entries) if n_main else b""
    has_spawns = bool(pth.spawns_by_trigger)
    has_hints = has_spawns and _batch._has_branch_hints(pth)
    use_btb_col = bool(n_main and not has_hints)
    btb_b = (
        _batch._btb_column(trace, cfg.bpred_entries, cfg.btb_entries)
        if use_btb_col
        else b""
    )
    flat = _FlatPThreads(pth)
    do_warm = bool(warm and n_main)
    hook = _ref.loop_hook(n_main)
    cfg_block = _cfg_block(
        cfg, n_main, flat, do_warm, has_spawns, has_hints, use_btb_col,
        hook.interval if hook is not None else 0,
    )

    lib = nativebuild.load()
    if lib is not None:
        out, missed, misspc, dead_fa = _run_native(
            lib, trace, cfg, cfg_block, flat, pred_b, btb_b, do_warm, hook,
        )
    else:
        view = _ref._pipeline_view(trace)
        line_shift = cfg_block[K.C_LINE_SHIFT]
        line_arr = _batch._line_column(trace, line_shift) if n_main else []
        if do_warm:
            warm_ic, warm_dc, warm_l2 = _py_warm(trace, cfg)
        else:
            warm_ic = warm_dc = warm_l2 = ()
        out, missed, misspc, dead_fa = _kernel.run(
            cfg_block,
            *view,
            line_arr, pred_b, btb_b if use_btb_col else None,
            warm_ic, warm_dc, warm_l2,
            flat.sp_trigger, flat.sp_static, flat.sp_inst_lo,
            flat.sp_inst_hi,
            flat.pi_kind, flat.pi_addr, flat.pi_hint_seq,
            flat.pi_hint_taken,
            flat.pi_dep_lo, flat.pi_dep_hi, flat.dep_flat,
            flat.pi_live_lo, flat.pi_live_hi, flat.live_flat,
            hook=hook,
        )
    if do_warm:
        _batch._WARM_RESTORES.add()

    status = out[K.O_STATUS]
    now = out[K.O_CYCLES]
    committed = out[K.O_COMMITTED]
    pc_col = trace.columns.pc
    if status == STATUS_HOOK:
        raise hook.error
    if status == STATUS_SAFETY:
        safety_limit = 400 * n_main + 10_000_000
        raise ExecutionError(
            f"simulation exceeded {safety_limit} cycles "
            f"({committed}/{n_main} committed)"
        )
    if status == STATUS_DEADLOCK:
        raise _rebuild_deadlock(
            out, dead_fa, n_main, pc_col, _ref._pipeline_view(trace)[0]
        )
    assert status == STATUS_OK
    stats = SimStats()
    stats.cycles = now
    stats.committed = committed
    stats.branches = out[K.O_BRANCHES]
    stats.mispredictions = out[K.O_MISPREDICTIONS]
    stats.btb_misses = out[K.O_BTB_MISSES]
    stats.demand_l2_misses = out[K.O_DEMAND_L2]
    stats.pthread_l2_misses = out[K.O_PTHREAD_L2]
    stats.covered_misses_full = out[K.O_COVERED_FULL]
    stats.covered_misses_partial = out[K.O_COVERED_PARTIAL]
    stats.useful_prefetches = out[K.O_USEFUL]
    stats.branch_hints_used = out[K.O_HINTS_USED]
    stats.pinsts_fetched = out[K.O_PINSTS_FETCHED]
    stats.pinsts_executed = out[K.O_PINSTS_EXECUTED]
    stats.spawns_attempted = out[K.O_SPAWNS_ATTEMPTED]
    stats.spawns_started = out[K.O_SPAWNS_STARTED]
    stats.spawns_dropped_no_context = out[K.O_SPAWNS_DROPPED]
    act = stats.activity
    act.cycles = now
    act.committed_main = out[K.O_AC_COMMITTED]
    act.dispatched_main = out[K.O_AC_DISP_MAIN]
    act.dispatched_pth = out[K.O_AC_DISP_PTH]
    act.fetch_blocks_main = out[K.O_AC_FETCH_MAIN]
    act.fetch_blocks_pth = out[K.O_AC_FETCH_PTH]
    act.bpred_accesses = out[K.O_AC_BPRED]
    act.dmem_accesses_main = out[K.O_AC_DMEM_MAIN]
    act.dmem_accesses_pth = out[K.O_AC_DMEM_PTH]
    act.l2_accesses_main = out[K.O_AC_L2_MAIN]
    act.l2_accesses_pth = out[K.O_AC_L2_PTH]
    act.alu_ops_main = out[K.O_AC_ALU_MAIN]
    act.alu_ops_pth = out[K.O_AC_ALU_PTH]
    breakdown = stats.breakdown
    breakdown.mem += out[K.O_BD_MEM]
    breakdown.l2 += out[K.O_BD_L2]
    breakdown.exec += out[K.O_BD_EXEC]
    breakdown.commit += out[K.O_BD_COMMIT]
    breakdown.fetch += out[K.O_BD_FETCH]
    stalls = stats.stalls
    stalls.retiring += out[K.O_SL_RETIRE]
    stalls.fetch_starved += out[K.O_SL_FETCH]
    stalls.branch_recovery += out[K.O_SL_BRANCH]
    stalls.load_miss += out[K.O_SL_LOAD]
    stalls.rob_full += out[K.O_SL_ROB]
    stalls.rs_full += out[K.O_SL_RS]
    stalls.pthread_contention += out[K.O_SL_PTH]
    stalls.exec += out[K.O_SL_EXEC]
    stats.missed_load_seqs.update(missed)
    misses_by_pc = stats.l2_misses_by_pc
    for uid in misspc:
        pc = int(pc_col[uid])
        misses_by_pc[pc] = misses_by_pc.get(pc, 0) + 1

    wall_s = time.perf_counter() - wall_start
    _ref._SIM_RUNS.add()
    _ref._SIM_CYCLES.add(now)
    _ref._SIM_RETIRED.add(committed)
    if wall_s > 0:
        _ref._SIM_RETIRE_RATE.set(round(committed / wall_s))
        _ref._SIM_CYCLE_RATE.set(round(now / wall_s))
    if obs.is_enabled("info"):
        obs.log_event(
            "sim.done",
            cycles=now,
            committed=committed,
            ipc=round(stats.ipc, 4),
            spawns=stats.spawns_started,
            pinsts=stats.pinsts_executed,
            stall_slots=stalls.as_dict(),
            wall_s=round(wall_s, 6),
            cycles_per_sec=round(now / wall_s) if wall_s else 0,
            retired_per_sec=round(committed / wall_s) if wall_s else 0,
        )
    return stats


def _rebuild_deadlock(
    out: List[int],
    dead_fa: List[Tuple[int, ...]],
    n_main: int,
    pc_arr: List[int],
    kind_arr: List[int],
) -> PipelineDeadlockError:
    """Byte-identical reconstruction of pipeline._deadlock_error."""
    now = out[K.O_CYCLES]
    committed = out[K.O_COMMITTED]
    rob_len = out[K.O_DEAD_ROB_LEN]
    rob_head = None
    if rob_len:
        head = out[K.O_DEAD_HEAD_SEQ]
        done_at = out[K.O_DEAD_HEAD_DONE]
        rob_head = {
            "seq": head,
            "pc": int(pc_arr[head]) if head < len(pc_arr) else None,
            "kind": kind_arr[head] if head < len(kind_arr) else None,
            "done_at": None if done_at == K.NOT_DONE else done_at,
        }
    fetch_state = [
        {
            "static_id": fa[0],
            "trigger_seq": fa[1],
            "fetch_idx": fa[2],
            "next_fetch": fa[3],
            "in_flight": fa[4],
            "fetched_all": bool(fa[5]),
        }
        for fa in dead_fa
    ]
    return PipelineDeadlockError(
        f"pipeline deadlock at cycle {now}: "
        f"{committed}/{n_main} committed, rob={rob_len}",
        cycle=now,
        committed=committed,
        total=n_main,
        rob_size=rob_len,
        rob_head=rob_head,
        fetch_state=fetch_state,
    )
