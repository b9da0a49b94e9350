"""Functional expansion of static p-threads into dynamic spawns."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cpu.pthreads import PInstClass, PInstSpec, PThreadProgram, SpawnSpec
from repro.frontend.interpreter import InterpreterState, interpret
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.instruction import Program
from repro.isa.opcodes import (
    ALU_SEMANTICS,
    BRANCH_SEMANTICS,
    IMMEDIATE_OPS,
    Op,
    OpClass,
)
from repro.memo import Memo
from repro.pthsel.pthread import StaticPThread


@dataclass
class AugmentedProgram:
    """A program's trace together with its expanded p-thread spawns."""

    trace: Trace
    pthreads: PThreadProgram
    #: Per static p-thread: dynamic spawns expanded.
    spawn_counts: Dict[int, int]


# Step kinds of a decoded p-thread body.
_ALU, _LOAD, _BRANCH = range(3)


def _decode_body(pthread: StaticPThread) -> Tuple[tuple, ...]:
    """Decode a p-thread body once into the steps :func:`_expand_plan`
    replays per spawn.

    Which body instruction wrote a register is fixed by the body, so
    operand sources, intra-body dependences and the live-in register set
    resolve here; only operand values, live-in producer sequence numbers
    and load addresses vary per spawn.  Branch steps make no body-local
    write; every other step writes ``rd`` (``r0`` included, so later
    reads of ``r0`` in the body see the written value).

    A step is ``(kind, s1, s2, b_const, body_deps, live_regs, fn, klass,
    is_target, frozen, keep)``.  ``s1``/``s2`` are operand sources: a
    body-local writer index (>= 0), a live-in register ``r`` encoded as
    ``~r`` (< 0), or ``None`` when absent.  ``b_const`` stands in for an
    absent second operand (the immediate, or 0 for ``mov``) and is the
    offset of a load.  ``body_deps`` (deduplicated, in read order) and
    ``live_regs`` (deduplicated) are static; ``fn`` is the ALU or branch
    semantics; ``frozen`` is the shared ``PInstSpec`` an ALU step yields
    whenever it captures no live-in producer; ``keep`` marks steps whose
    value a later step reads.
    """
    target_set = set(pthread.target_pcs)
    writer: Dict[int, int] = {}  # register -> body index
    raw = []
    consumed = set()
    for idx, inst in enumerate(pthread.body):
        op = inst.op
        cls = op.op_class
        fn = None
        if cls is OpClass.BRANCH:
            kind, reads, b_const = _BRANCH, (inst.rs1, inst.rs2), 0
            fn = BRANCH_SEMANTICS[op]
        elif cls is OpClass.LOAD:
            kind, reads, b_const = _LOAD, (inst.rs1,), inst.imm or 0
        else:  # ALU / MUL (p-threads contain no stores)
            kind = _ALU
            fn = ALU_SEMANTICS[op]
            if op is Op.LI:
                reads, b_const = (), inst.imm
            elif op is Op.MOV:
                reads, b_const = (inst.rs1,), 0
            elif op in IMMEDIATE_OPS:
                reads, b_const = (inst.rs1,), inst.imm
            else:
                reads, b_const = (inst.rs1, inst.rs2), 0
        sources: List[Optional[int]] = []
        deps: List[int] = []
        live: List[int] = []
        for reg in reads:
            w = writer.get(reg)
            if w is not None:
                sources.append(w)
                deps.append(w)
                consumed.add(w)
            else:
                sources.append(~reg)
                live.append(reg)
        sources += [None] * (2 - len(sources))
        klass = (
            PInstClass.LOAD if cls is OpClass.LOAD
            else PInstClass.MUL if cls is OpClass.MUL
            else PInstClass.ALU
        )
        body_deps = tuple(dict.fromkeys(deps))
        raw.append((
            kind, sources[0], sources[1], b_const, body_deps,
            tuple(dict.fromkeys(live)), fn, klass,
            kind == _LOAD and inst.pc in target_set,
            PInstSpec(klass, -1, body_deps) if kind == _ALU else None,
        ))
        if kind != _BRANCH and inst.rd is not None:
            writer[inst.rd] = idx
    return tuple(
        step + (idx in consumed,) for idx, step in enumerate(raw)
    )


def _expand_plan(
    plan: Tuple[tuple, ...],
    static_id: int,
    trigger_seq: int,
    state: InterpreterState,
    hint_seq: int = -1,
) -> SpawnSpec:
    """Execute a decoded p-thread body against spawn-time state.

    Register values are read from the checkpoint (the state just after
    the trigger executed); loads read the memory image as of the spawn
    point.  Returns the spawn's timing description: per p-instruction
    class, resolved address, intra-body dependences and main-thread
    live-in producers.

    For branch p-threads, ``hint_seq`` names the future dynamic branch
    instance the computed outcome is communicated to.
    """
    regs = state.regs
    last_writer = state.last_writer
    memory_get = state.memory.get
    values = [0] * len(plan)
    insts: List[PInstSpec] = []
    append = insts.append
    for idx, (kind, s1, s2, b_const, deps, live_regs, fn, klass, is_target,
              frozen, keep) in enumerate(plan):
        livein = ()
        if live_regs:
            if len(live_regs) == 1:
                p = last_writer[live_regs[0]]
                if p != NO_PRODUCER:
                    livein = (p,)
            else:
                livein = tuple(dict.fromkeys(
                    p for p in (last_writer[r] for r in live_regs)
                    if p != NO_PRODUCER
                ))
        if kind == _ALU:
            append(PInstSpec(klass, -1, deps, livein) if livein else frozen)
            if keep:
                a = (0 if s1 is None
                     else values[s1] if s1 >= 0 else regs[~s1])
                b = (b_const if s2 is None
                     else values[s2] if s2 >= 0 else regs[~s2])
                values[idx] = fn(a, b)
        elif kind == _LOAD:
            addr = ((values[s1] if s1 >= 0 else regs[~s1]) + b_const) & ~7
            append(PInstSpec(
                klass, addr if addr > 0 else 0, deps, livein, is_target
            ))
            if keep:
                values[idx] = memory_get(addr, 0) if addr >= 0 else 0
        else:
            # Branch pre-execution: evaluate the outcome and attach the
            # hint; executes as a single-cycle compare.
            taken = fn(
                values[s1] if s1 >= 0 else regs[~s1],
                values[s2] if s2 >= 0 else regs[~s2],
            )
            append(PInstSpec(klass, -1, deps, livein, False, hint_seq, taken))
    return SpawnSpec(trigger_seq, static_id, tuple(insts))


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
    everything ``_decode_body`` and hint targeting can observe."""
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
            # Bodies are decoded once per call, before the replay.
            entries = [
                (collected[i].append, _decode_body(pthreads[i]),
                 pthreads[i])
                for i in candidates
            ]

            def hook(seq: int, state: InterpreterState) -> None:
                for add, plan, pthread in entries:
                    hint_seq = (
                        hint_target(pthread, seq)
                        if pthread.is_branch_pthread
                        else -1
                    )
                    add(_expand_plan(
                        plan, pthread.pthread_id, seq, state, hint_seq
                    ))

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
