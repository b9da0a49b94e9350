"""``repro bench`` grid walls start every engine from cold memos."""

from repro.cpu import engine
from repro.ddmt import augment
from repro.harness import bench


def test_each_engine_starts_with_an_empty_spawn_cache(monkeypatch):
    seen = []

    def fake_grid(jobs=None, **kwargs):
        seen.append((engine.backend(), len(augment._SPAWN_CACHE)))
        # What a real grid pass leaves behind for the next engine.
        augment._SPAWN_CACHE[("leftover", len(seen))] = (0, ())
        return []

    monkeypatch.setattr(bench.figures, "figure5_memory_latency", fake_grid)
    try:
        out = bench.bench_grid(jobs=1, quick=True, backend_walls=True)
    finally:
        augment.clear_spawn_cache()
        engine.set_sim_backend(None)
    # Sequential pass + one pass per other engine, then cold/warm.
    timed = seen[: len(engine.SIM_BACKENDS)]
    assert sorted(name for name, _ in timed) == sorted(engine.SIM_BACKENDS)
    assert [size for _, size in timed] == [0] * len(timed)
    assert set(out["backend_walls_s"]) == set(engine.SIM_BACKENDS)
