"""Every build is charged to exactly one row, and no cell re-interprets
a trace the memo already holds."""

from collections import Counter

from repro import memo
from repro.config import SimulationConfig
from repro.frontend import tracestore
from repro.harness import experiment, figures, simcache
from repro.harness.figures import result_row
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program


def test_each_build_is_charged_to_one_row():
    memo.clear_all()
    try:
        with simcache.disabled():
            rows = figures.figure5_memory_latency(
                benchmarks=("gcc",),
                latencies=(100, 200),
                targets=(Target.LATENCY,),
                jobs=1,
            )
    finally:
        memo.clear_all()
    # One workload, one budget: one interpretation, in the first row.
    assert [r["src_trace"] for r in rows].count("interpreted") == 1
    # One baseline per latency, each simulated in exactly one row.
    simulated = Counter(
        r["memory_latency"] for r in rows if r["src_baseline"] == "simulated"
    )
    assert simulated == Counter({100: 1, 200: 1})


def _strip(row):
    return {
        k: v
        for k, v in row.items()
        if not k.startswith("t_") and not k.startswith("src_")
    }


def test_cross_input_expansion_adopts_the_run_trace(monkeypatch):
    # Figure 4 cells profile on "ref" and run on "train": the expansion
    # replays the train program, whose plain trace the baseline already
    # holds, so it must adopt that trace rather than interpret again.
    sim = SimulationConfig()
    expanded = []
    real_expand = experiment.expand_pthreads

    def recording_expand(*args, **kwargs):
        expanded.append(real_expand(*args, **kwargs))
        return expanded[-1]

    def cell():
        memo.clear_all()
        with simcache.disabled():
            result = experiment.run_experiment(
                "gap", Target.LATENCY, profile_input="ref",
                run_input="train", sim=sim,
            )
        return _strip(result_row(result))

    monkeypatch.setattr(experiment, "expand_pthreads", recording_expand)
    adopted = cell()
    run_trace, _ = tracestore.get_trace(
        get_program("gap", "train"), sim.max_instructions
    )
    assert expanded[-1].trace is run_trace

    # The row matches an expansion that interprets its own trace.
    monkeypatch.setattr(
        experiment, "expand_pthreads",
        lambda *a, **kw: real_expand(*a, **{**kw, "reference_trace": None}),
    )
    try:
        assert cell() == adopted
    finally:
        memo.clear_all()


def test_src_impl_names_the_implementation_that_ran(monkeypatch):
    # src_impl comes from the same artifact probe the forward pass and
    # the cycle kernel consult: forcing it unavailable runs both Python
    # mirrors and must say so, with identical simulated columns.
    from repro.cpu import nativebuild

    def cell():
        memo.clear_all()
        try:
            with simcache.disabled():
                return result_row(
                    experiment.run_experiment("gap", Target.LATENCY)
                )
        finally:
            memo.clear_all()

    default = cell()
    assert default["src_impl"] == (
        "c" if nativebuild.load() is not None else "python"
    )
    monkeypatch.setattr(nativebuild, "load", lambda: None)
    fallback = cell()
    assert fallback["src_impl"] == "python"
    assert _strip(fallback) == _strip(default)
