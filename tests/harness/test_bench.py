"""``repro bench`` grid walls start every engine from cold memos."""

from repro import memo
from repro.cpu import engine
from repro.ddmt import augment
from repro.frontend import tracestore
from repro.harness import bench, experiment
from repro.workloads import registry


def test_each_engine_starts_with_an_empty_spawn_cache(monkeypatch):
    seen = []
    leftovers = (
        registry._PROGRAMS, tracestore._TRACES, experiment._BASELINES,
        experiment._OPTIMIZED, augment._SPAWNS,
    )

    def fake_grid(jobs=None, **kwargs):
        seen.append(
            (engine.backend(),
             {name: s["entries"] for name, s in memo.stats().items()})
        )
        # What a real grid pass leaves behind for the next engine, in
        # every memo (the program memo included).
        for leftover in leftovers:
            leftover.put(("leftover", len(seen)), None)
        return []

    monkeypatch.setattr(bench.figures, "figure5_memory_latency", fake_grid)
    try:
        out = bench.bench_grid(jobs=1, quick=True, backend_walls=True)
    finally:
        memo.clear_all()
        engine.set_sim_backend(None)
    # Sequential pass + one pass per other engine, then cold/warm.
    timed = seen[: len(engine.SIM_BACKENDS)]
    assert sorted(name for name, _ in timed) == sorted(engine.SIM_BACKENDS)
    for _, entries in timed:
        assert set(entries) >= {m.name for m in leftovers}
        assert all(count == 0 for count in entries.values()), entries
    assert set(out["backend_walls_s"]) == set(engine.SIM_BACKENDS)
