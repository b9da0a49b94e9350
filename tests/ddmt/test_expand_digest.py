"""Spawn expansion pinned bit-for-bit, plus body-decode edge cases.

The digests cover every ``SpawnSpec``/``PInstSpec`` field of the
expanded program, in spawn order, and ``spawn_counts``.  They were
recorded with the per-spawn re-decoding expander this module's
precompiled step plans replaced; any drift in dependence dedup order,
live-in capture, address resolution or hint targeting changes them.
"""

import hashlib

from repro import memo
from repro.cpu.pipeline import simulate
from repro.cpu.pthreads import PInstClass, PInstSpec
from repro.ddmt import expand_pthreads
from repro.ddmt.augment import _decode_body, _expand_plan
from repro.energy import EnergyModel
from repro.frontend import interpret
from repro.frontend.interpreter import InterpreterState
from repro.frontend.trace import NO_PRODUCER
from repro.isa.instruction import StaticInst
from repro.isa.opcodes import Op
from repro.pthsel import Target, select_pthreads
from repro.pthsel.branches import select_branch_pthreads
from repro.pthsel.framework import BaselineEstimates
from repro.pthsel.pthread import StaticPThread
from repro.workloads import get_program

#: sha256 of :func:`expansion_digest` for gap / target L.
GAP_LATENCY_DIGEST = (
    "a60badc189738fa719e03637216242f9915b710c89a609bca0952db37076cc8d"
)
#: sha256 of :func:`expansion_digest` for bzip2's branch p-threads.
BZIP2_BRANCH_DIGEST = (
    "27e50590a437e02b616b16bc74bd765d141f6e7f0a4388bcb06c498b3ff6f841"
)


def expansion_digest(augmented) -> str:
    """sha256 over every spawn field, in order, and ``spawn_counts``."""
    h = hashlib.sha256()
    for trigger, spawns in augmented.pthreads.spawns_by_trigger.items():
        h.update(f"T{trigger};".encode())
        for s in spawns:
            h.update(
                f"S{s.trigger_seq},{s.static_id},{s.on_correct_path};".encode()
            )
            for p in s.insts:
                h.update(
                    (
                        f"P{p.klass.value},{p.addr},{p.body_deps},"
                        f"{p.livein_seqs},{p.is_target},"
                        f"{p.hint_branch_seq},{p.hint_taken};"
                    ).encode()
                )
    h.update(repr(sorted(augmented.spawn_counts.items())).encode())
    return h.hexdigest()


def _baseline(program):
    trace = interpret(program, max_instructions=2_000_000)
    stats = simulate(trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    return trace, BaselineEstimates(stats.ipc, float(stats.cycles), e0)


def _expand_cold(program, pthreads, **kwargs):
    memo.clear_all()
    return expand_pthreads(program, pthreads, **kwargs)


def test_gap_latency_expansion_digest():
    program = get_program("gap")
    trace, base = _baseline(program)
    result = select_pthreads(trace, base, target=Target.LATENCY)
    augmented = _expand_cold(program, result.pthreads)
    assert expansion_digest(augmented) == GAP_LATENCY_DIGEST


def test_bzip2_branch_expansion_digest():
    program = get_program("bzip2")
    trace, base = _baseline(program)
    result = select_branch_pthreads(trace, base, target=Target.LATENCY)
    assert result.n_pthreads >= 1
    augmented = _expand_cold(program, result.pthreads, reference_trace=trace)
    assert expansion_digest(augmented) == BZIP2_BRANCH_DIGEST


# ------------------------------------------------------------------ #
# Body decode edge cases, against hand-built spawn-time state.
# ------------------------------------------------------------------ #

ALU = PInstClass.ALU
LOAD = PInstClass.LOAD


def _spawn(body, state, targets=(), trigger_seq=50):
    pthread = StaticPThread(
        pthread_id=3, trigger_pc=0, body=tuple(body), target_pcs=targets
    )
    return _expand_plan(_decode_body(pthread), 3, trigger_seq, state)


def _state(regs=None, writers=None, memory=None):
    state = InterpreterState()
    for reg, value in (regs or {}).items():
        state.regs[reg] = value
    for reg, seq in (writers or {}).items():
        state.last_writer[reg] = seq
    state.memory = dict(memory or {})
    return state


def test_repeated_livein_source_is_captured_once():
    state = _state(regs={1: 5}, writers={1: 42})
    spawn = _spawn(
        [
            StaticInst(1, Op.ADD, rd=3, rs1=1, rs2=1),
            StaticInst(2, Op.LD, rd=4, rs1=3, imm=0),
        ],
        state,
    )
    assert spawn.trigger_seq == 50 and spawn.static_id == 3
    assert spawn.insts == (
        PInstSpec(ALU, livein_seqs=(42,)),
        PInstSpec(LOAD, addr=8, body_deps=(0,)),  # (5 + 5) & ~7
    )


def test_write_then_read_inside_body():
    state = _state(regs={1: 100}, writers={1: 7}, memory={120: 999})
    spawn = _spawn(
        [
            StaticInst(1, Op.ADDI, rd=2, rs1=1, imm=16),
            StaticInst(2, Op.LD, rd=5, rs1=2, imm=8),
            StaticInst(3, Op.ADD, rd=6, rs1=2, rs2=2),
            StaticInst(4, Op.LD, rd=7, rs1=5, imm=0),
        ],
        state,
        targets=(4,),
    )
    assert spawn.insts == (
        PInstSpec(ALU, livein_seqs=(7,)),
        PInstSpec(LOAD, addr=120, body_deps=(0,)),
        PInstSpec(ALU, body_deps=(0,)),  # one dep for a repeated writer
        PInstSpec(LOAD, addr=992, body_deps=(1,), is_target=True),
    )


def test_body_write_to_r0_is_seen_by_later_reads():
    state = _state(regs={1: 64}, writers={1: 9})
    spawn = _spawn(
        [
            StaticInst(1, Op.ADDI, rd=0, rs1=1, imm=64),
            StaticInst(2, Op.LD, rd=6, rs1=0, imm=0),
        ],
        state,
    )
    assert spawn.insts[1] == PInstSpec(LOAD, addr=128, body_deps=(0,))


def test_sourceless_li_is_one_shared_spec():
    state = _state()
    body = [
        StaticInst(1, Op.LI, rd=2, imm=4096),
        StaticInst(2, Op.LD, rd=3, rs1=2, imm=8),
    ]
    pthread = StaticPThread(
        pthread_id=1, trigger_pc=0, body=tuple(body), target_pcs=()
    )
    plan = _decode_body(pthread)
    first = _expand_plan(plan, 1, 10, state)
    second = _expand_plan(plan, 1, 20, state)
    assert first.insts == (
        PInstSpec(ALU),
        PInstSpec(LOAD, addr=4104, body_deps=(0,)),
    )
    assert first.insts[0] is second.insts[0]


def test_absent_producer_and_negative_address():
    # r1 never written by the main thread: no live-in producer; the
    # negative effective address clamps to 0 and reads as 0.
    state = _state(regs={1: -64})
    spawn = _spawn(
        [
            StaticInst(1, Op.LD, rd=2, rs1=1, imm=0),
            StaticInst(2, Op.LD, rd=3, rs1=2, imm=24),
        ],
        state,
    )
    assert state.last_writer[1] == NO_PRODUCER
    assert spawn.insts == (
        PInstSpec(LOAD, addr=0),
        PInstSpec(LOAD, addr=24, body_deps=(0,)),
    )
