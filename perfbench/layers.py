"""Benchmark-owned layer timing for the traced run.

:meth:`Tracer.install` replaces each layer's public entry point *at the
site where its caller looks it up* (the importing module's global, or
the class attribute for methods) with a wrapper that counts calls and
accumulates busy time.  Nothing inside ``src/`` changes; the untraced
runs never install it.

Self time: each thread keeps a stack of open layer frames; a frame's
duration is charged to its parent's child time, so ``self_s = busy_s -
time spent in wrapped child layers``.

``LAYERS`` also records, per layer, which end-to-end metric a change to
that layer should move and on which workload (the prediction a perf
change is judged against).
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: layer -> (entry points as "module[:Class].attribute" at the caller's
#: lookup site, what a change to the layer should move).
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "frontend.trace": (
        ("repro.frontend.tracestore.get_trace_tagged",),
        "wall_s on suite-original; setup_s/job_p50_s on serve-mixed",
    ),
    "critpath.classify": (
        ("repro.pthsel.framework.classify_trace_cached",),
        "wall_s on suite-original",
    ),
    "critpath.loadcost": (
        ("repro.pthsel.framework.build_cost_functions",),
        "wall_s on sweep-memlat; no change on suite-original (0 calls)",
    ),
    "slicer.slicetree": (
        ("repro.pthsel.framework.build_slice_tree",),
        "wall_s on suite-original; small on sweep-memlat (shared trees)",
    ),
    "pthsel.select": (
        ("repro.harness.experiment.select_pthreads",),
        "wall_s on both grids",
    ),
    "pthsel.tree_select": (
        ("repro.pthsel.selector:TreeSelector.select",),
        "wall_s on both grids",
    ),
    "ddmt.augment": (
        ("repro.harness.experiment.expand_pthreads",),
        "wall_s on both grids; job_p50_s on serve-mixed",
    ),
    "cpu.simulate": (
        ("repro.harness.experiment.simulate",),
        "wall_s everywhere (largest share under the default engine)",
    ),
    "cpu.simulate_batch": (
        ("repro.cpu.batch.simulate_batch",),
        "wall_s on sweep-memlat; no calls on suite-original",
    ),
    "harness.simcache": (
        ("repro.harness.simcache:SimCache.get",
         "repro.harness.simcache:SimCache.put"),
        "job_p50_s on serve-mixed",
    ),
    "harness.experiment": (
        ("repro.harness.parallel.run_experiment",),
        "wall_s and peak_rss_mb (memo retention)",
    ),
}

#: Layers reported with ``self_s`` (they contain other layers).
PARENT_LAYERS = ("pthsel.select", "harness.experiment")


def _owner(entry: str) -> Tuple[Any, str]:
    """The object holding ``entry``'s attribute, and the attribute."""
    path, attr = entry.rsplit(".", 1)
    module_name, _, cls = path.partition(":")
    owner = importlib.import_module(module_name)
    return (getattr(owner, cls) if cls else owner), attr


def _engine_label() -> str:
    """The engine :func:`repro.cpu.pipeline.simulate` dispatches to."""
    from repro.cpu import engine
    from repro.obs import utrace

    return "reference" if utrace.enabled() else engine.backend()


def _count(entry: str, counts: Dict[str, float], args: tuple,
           result: Any) -> None:
    """Entry-point-specific work counts, from arguments and results."""
    name = entry.rsplit(".", 1)[1]

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    if name == "get_trace_tagged":
        add("interpreted", result[2] == "interpreted")
    elif name == "build_slice_tree":
        add("trees_built", 1)
    elif entry.endswith("TreeSelector.select"):
        add("pthreads_selected", len(result))
    elif name == "expand_pthreads":
        add("spawns_expanded", sum(result.spawn_counts.values()))
    elif name == "simulate":
        add("insts", result.committed)
        add("engine=" + _engine_label(), 1)
    elif name == "simulate_batch":
        add("members", len(args[1]))
    elif entry.endswith("SimCache.get"):
        add("gets", 1)
        add("hits", result is not None)


class Tracer:
    """Per-process layer accounting; thread-safe (serve runs jobs on
    several worker threads)."""

    def __init__(self) -> None:
        self.layers: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in LAYERS
        }
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        stats = self.layers[layer]
        local, lock = self._local, self._lock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack: List[List[float]] = local.__dict__.setdefault(
                "stack", [])
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    stats["calls"] += 1
                    stats["busy_s"] += elapsed
                    stats["self_s"] += elapsed - frame[0]
            with lock:
                _count(entry, stats, args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for layer, (entries, _) in LAYERS.items():
            for entry in entries:
                owner, attr = _owner(entry)
                setattr(owner, attr,
                        self._wrap(layer, entry, owner.__dict__[attr]))
        return self

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(s) for name, s in self.layers.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engines(layers: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """Engine -> timing simulations it ran, from a traced layer table."""
    return {k.split("=", 1)[1]: int(v)
            for k, v in layers["cpu.simulate"].items()
            if k.startswith("engine=")}


def layer_metrics(
    layers: Dict[str, Dict[str, float]], wall_s: float, cells: int
) -> Dict[str, float]:
    """Flatten one traced repetition's layer table into named metrics.

    ``trace.coverage_ratio`` is leaf-layer busy time over the wall;
    ``trace.unattributed_s`` is the wall minus every layer's self time
    (time spent outside all wrapped layers).
    """
    out: Dict[str, float] = {}
    for name, stats in layers.items():
        out[f"{name}.calls"] = stats["calls"]
        out[f"{name}.busy_s"] = stats["busy_s"]
        if name in PARENT_LAYERS:
            out[f"{name}.self_s"] = stats["self_s"]

    trace = layers["frontend.trace"]
    out["frontend.trace.interpreted"] = trace.get("interpreted", 0)
    out["frontend.trace.memo_ratio"] = _ratio(
        trace["calls"] - trace.get("interpreted", 0), trace["calls"])
    out["slicer.slicetree.trees_built"] = layers["slicer.slicetree"].get(
        "trees_built", 0)
    out["pthsel.tree_select.pthreads_selected"] = layers[
        "pthsel.tree_select"].get("pthreads_selected", 0)
    augment = layers["ddmt.augment"]
    out["ddmt.augment.spawns_expanded"] = augment.get("spawns_expanded", 0)
    out["ddmt.augment.reuse_ratio"] = (
        1.0 - augment["calls"] / cells if cells else 0.0)
    sim = layers["cpu.simulate"]
    out["cpu.simulate.minst"] = sim.get("insts", 0) / 1e6
    out["cpu.simulate.minst_per_s"] = _ratio(
        out["cpu.simulate.minst"], sim["busy_s"])
    out["cpu.simulate_batch.members"] = layers["cpu.simulate_batch"].get(
        "members", 0)
    cache = layers["harness.simcache"]
    out["harness.simcache.hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("gets", 0))

    leaf_busy = sum(s["busy_s"] for n, s in layers.items()
                    if n not in PARENT_LAYERS)
    out["trace.coverage_ratio"] = _ratio(leaf_busy, wall_s)
    out["trace.unattributed_s"] = wall_s - sum(
        s["self_s"] for s in layers.values())
    return out
