"""Functional expansion of static p-threads into dynamic spawns."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cpu.pthreads import PInstClass, PInstSpec, PThreadProgram, SpawnSpec
from repro.frontend.interpreter import InterpreterState, interpret
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.instruction import Program, StaticInst
from repro.isa.opcodes import IMMEDIATE_OPS, Op, OpClass
from repro.memo import Memo
from repro.pthsel.pthread import StaticPThread


@dataclass
class AugmentedProgram:
    """A program's trace together with its expanded p-thread spawns."""

    trace: Trace
    pthreads: PThreadProgram
    #: Per static p-thread: dynamic spawns expanded.
    spawn_counts: Dict[int, int]


def _pinst_class(inst: StaticInst) -> PInstClass:
    cls = inst.op.op_class
    if cls is OpClass.LOAD:
        return PInstClass.LOAD
    if cls is OpClass.MUL:
        return PInstClass.MUL
    return PInstClass.ALU


def _expand_body(
    pthread: StaticPThread,
    trigger_seq: int,
    state: InterpreterState,
    hint_seq: int = -1,
) -> SpawnSpec:
    """Execute a p-thread body against spawn-time architectural state.

    Register values are read from the checkpoint (the state just after
    the trigger executed); loads read the memory image as of the spawn
    point.  Returns the spawn's timing description: per p-instruction
    class, resolved address, intra-body dependences and main-thread
    live-in producers.

    For branch p-threads, ``hint_seq`` names the future dynamic branch
    instance the computed outcome is communicated to.
    """
    local_values: Dict[int, int] = {}
    local_writer: Dict[int, int] = {}  # register -> body index
    insts: List[PInstSpec] = []
    target_set = set(pthread.target_pcs)

    for idx, inst in enumerate(pthread.body):
        body_deps: List[int] = []
        livein_seqs: List[int] = []

        def read(reg: int) -> int:
            writer = local_writer.get(reg)
            if writer is not None:
                body_deps.append(writer)
                return local_values[reg]
            producer = state.last_writer[reg]
            if producer != NO_PRODUCER:
                livein_seqs.append(producer)
            return state.regs[reg]

        op = inst.op
        if op.op_class is OpClass.BRANCH:
            # Branch pre-execution: evaluate the outcome and attach the
            # hint; executes as a single-cycle compare.
            a, b2 = read(inst.rs1), read(inst.rs2)
            taken = inst.evaluate_branch(a, b2)
            insts.append(
                PInstSpec(
                    klass=PInstClass.ALU,
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                    hint_branch_seq=hint_seq,
                    hint_taken=taken,
                )
            )
            continue
        if op.op_class is OpClass.LOAD:
            base = read(inst.rs1)
            addr = (base + (inst.imm or 0)) & ~7
            value = state.read_word(addr) if addr >= 0 else 0
            insts.append(
                PInstSpec(
                    klass=PInstClass.LOAD,
                    addr=max(0, addr),
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                    is_target=inst.pc in target_set,
                )
            )
        else:  # ALU / MUL (p-threads contain no stores or branches)
            if op is Op.LI:
                a, b = 0, inst.imm
            elif op is Op.MOV:
                a, b = read(inst.rs1), 0
            elif op in IMMEDIATE_OPS:
                a, b = read(inst.rs1), inst.imm
            else:
                a, b = read(inst.rs1), read(inst.rs2)
            value = inst.evaluate_alu(a, b)
            insts.append(
                PInstSpec(
                    klass=_pinst_class(inst),
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                )
            )
        if inst.rd is not None:
            local_values[inst.rd] = value
            local_writer[inst.rd] = idx

    return SpawnSpec(
        trigger_seq=trigger_seq,
        static_id=pthread.pthread_id,
        insts=tuple(insts),
    )


# --------------------------------------------------------------------- #
# Expansion memo.  A spawn list is a pure function of (program, budget,
# p-thread content): the hooks that collect spawns only *read* the
# interpreter state, so the replay is the same execution every time.  A
# figure sweep selects heavily-overlapping p-thread sets across its
# cells (the same static p-thread reappears at other latencies and
# targets), and each expansion replays the full trace budget -- caching
# per static p-thread means a sweep only pays for interpretation when a
# cell introduces a p-thread nobody has expanded yet.
#
# Keys exclude ``pthread_id`` (selection runs number their picks
# independently); the id recorded at build time is rewritten on reuse.
_SPAWNS = Memo("ddmt.augment.spawn_cache", limit=64)

_TRACE_ADOPTIONS = obs.counters.counter("ddmt.augment.trace_adoptions")


def _content_key(pthread: StaticPThread) -> Tuple:
    """Behavioral identity of a static p-thread for expansion purposes:
    everything ``_expand_body`` and hint targeting can observe."""
    return (
        pthread.trigger_pc,
        pthread.hint_offset,
        pthread.target_pcs,
        tuple(
            (i.pc, i.op.value, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in pthread.body
        ),
    )


def expand_pthreads(
    program: Program,
    pthreads: List[StaticPThread],
    max_instructions: int = 2_000_000,
    reference_trace: Optional[Trace] = None,
    require_halt: bool = True,
) -> AugmentedProgram:
    """Replay ``program`` and expand every spawn of every p-thread.

    Branch p-threads need to know *which* future dynamic instance of
    their target branch each spawn's hint addresses; that mapping comes
    from a reference trace (passed in, or produced by one extra plain
    interpretation).

    When ``reference_trace`` is supplied, it is also *adopted* as the
    augmented program's trace: spawn hooks cannot perturb execution, so
    the hooked interpretation reproduces the reference trace exactly,
    and sharing the object lets every augmented program reuse the
    reference trace's derived analyses and simulation precomputes.
    """
    program_fp = program.fingerprint()
    keys = [
        (program_fp, max_instructions, require_halt) + _content_key(p)
        for p in pthreads
    ]

    # Per-pthread spawn lists, indexed by position in ``pthreads``.
    expanded: Dict[int, Tuple[SpawnSpec, ...]] = {}
    uncached: List[int] = []
    for idx, key in enumerate(keys):
        hit = _SPAWNS.get(key)
        if hit is None:
            uncached.append(idx)
            continue
        built_id, spawn_list = hit
        wanted_id = pthreads[idx].pthread_id
        if built_id != wanted_id:
            spawn_list = tuple(
                replace(s, static_id=wanted_id) for s in spawn_list
            )
        expanded[idx] = spawn_list

    trace = reference_trace
    if uncached:
        need = [pthreads[i] for i in uncached]

        # Occurrence lists for branch-hint targeting.
        hint_occurrences: Dict[int, List[int]] = {}
        if any(p.is_branch_pthread for p in need):
            if reference_trace is None:
                reference_trace = interpret(
                    program, max_instructions, require_halt=require_halt
                )
                trace = reference_trace
            for pthread in need:
                if pthread.is_branch_pthread:
                    pc = pthread.target_pcs[0]
                    if pc not in hint_occurrences:
                        hint_occurrences[pc] = reference_trace.occurrences(pc)

        def hint_target(pthread: StaticPThread, seq: int) -> int:
            occurrences = hint_occurrences[pthread.target_pcs[0]]
            index = bisect.bisect_right(occurrences, seq)
            target_index = index + pthread.hint_offset - 1
            if target_index < len(occurrences):
                return occurrences[target_index]
            return -1

        collected: Dict[int, List[SpawnSpec]] = {i: [] for i in uncached}
        by_trigger: Dict[int, List[int]] = {}
        for i in uncached:
            by_trigger.setdefault(pthreads[i].trigger_pc, []).append(i)

        def make_hook(candidates: List[int]):
            def hook(seq: int, state: InterpreterState) -> None:
                for i in candidates:
                    pthread = pthreads[i]
                    hint_seq = (
                        hint_target(pthread, seq)
                        if pthread.is_branch_pthread
                        else -1
                    )
                    collected[i].append(
                        _expand_body(pthread, seq, state, hint_seq=hint_seq)
                    )

            return hook

        hooks = {pc: make_hook(group) for pc, group in by_trigger.items()}
        hooked_trace = interpret(
            program, max_instructions, pc_hooks=hooks,
            require_halt=require_halt,
        )
        if trace is None:
            trace = hooked_trace
        for i in uncached:
            spawn_list = tuple(collected[i])
            expanded[i] = spawn_list
            _SPAWNS.put(keys[i], (pthreads[i].pthread_id, spawn_list))
    elif trace is None:
        trace = interpret(program, max_instructions, require_halt=require_halt)
    if trace is reference_trace and reference_trace is not None:
        _TRACE_ADOPTIONS.add()

    # Merge per-pthread lists back into the order a single hooked replay
    # would have produced them: trace order, ties (several p-threads on
    # one trigger) broken by position in ``pthreads``.  Spawn order is
    # observable -- the simulator allocates contexts in list order.
    merged: List[Tuple[int, int, SpawnSpec]] = []
    for idx in range(len(pthreads)):
        for spawn in expanded[idx]:
            merged.append((spawn.trigger_seq, idx, spawn))
    merged.sort(key=lambda item: (item[0], item[1]))
    spawns = [item[2] for item in merged]
    spawn_counts = {
        pthreads[idx].pthread_id: len(expanded[idx])
        for idx in range(len(pthreads))
    }
    return AugmentedProgram(
        trace=trace,
        pthreads=PThreadProgram.from_spawns(spawns),
        spawn_counts=spawn_counts,
    )
