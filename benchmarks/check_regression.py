#!/usr/bin/env python
"""Compare a fresh ``repro bench --quick`` payload against the committed
baseline and fail on regression.

Three kinds of checks:

- **Determinism** (exact): per-benchmark ``cycles`` and ``committed``
  must match the baseline bit-for-bit.  These are machine-independent;
  any difference means the simulator's behavior changed, which a perf PR
  must never do silently.
- **Throughput** (tolerance band): per-benchmark ``cycles_per_sec`` may
  not drop, and the grid walls (``sequential_uncached_wall_s``,
  ``cold_wall_s``, and each engine's wall in
  ``figure_grid.backend_walls_s``) may not grow, by more than
  ``--tolerance`` (a fraction; default 0.5 to absorb CI-runner
  variance).  Machines faster or slower than the baseline host pass as
  long as they are uniformly so; only a lopsided slowdown -- the shape
  of a code regression -- trips the guard.
- **Row coverage**: the current run's rows must account for the grid
  wall -- the sum of their ``t_total``
  (``figure_grid.cold_phase_totals_s.total``) must reach 95% of
  ``sequential_uncached_wall_s``.  Work done outside every row (a
  grid-level pre-pass) would be charged to nobody.

The payloads' ``sim_backend`` and ``kernel_impl`` fields must also
agree: walls measured under a different cycle engine, or under the
Python kernel instead of the compiled one, are not comparable, so a
drift is reported as a failure rather than silently band-checked.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/bench_baseline_quick.json \
        --current bench-quick.json [--tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple


#: Share of the sequential uncached grid wall the rows' ``t_total``
#: walls must cover; the rest is grid bookkeeping outside any cell.
ROW_COVERAGE = 0.95


def _simulator_by_benchmark(payload: Dict) -> Dict[str, Dict]:
    return {row["benchmark"]: row for row in payload.get("simulator", [])}


def compare_named(
    baseline: Dict, current: Dict, tolerance: float
) -> List[Tuple[str, str]]:
    """Return ``(metric_name, message)`` failures (empty = pass).

    The metric name is machine-readable (``simulator[gcc].cycles``,
    ``figure_grid.cold_wall_s``) so the CI log -- and the analytics
    regression timeline, which generalizes this check -- can pinpoint
    exactly what moved, not just that something did.
    """
    failures: List[Tuple[str, str]] = []
    base_sim = _simulator_by_benchmark(baseline)
    cur_sim = _simulator_by_benchmark(current)

    for field in ("sim_backend", "kernel_impl"):
        base_value = baseline.get(field)
        cur_value = current.get(field)
        if base_value is not None and cur_value != base_value:
            failures.append((
                field,
                f"{field}: baseline measured under {base_value!r} but "
                f"current ran under {cur_value!r}; walls are not "
                "comparable",
            ))

    for name, base_row in base_sim.items():
        cur_row = cur_sim.get(name)
        if cur_row is None:
            failures.append((
                f"simulator[{name}]",
                f"simulator[{name}]: missing from current run",
            ))
            continue
        for exact in ("cycles", "committed"):
            if cur_row.get(exact) != base_row.get(exact):
                failures.append((
                    f"simulator[{name}].{exact}",
                    f"simulator[{name}].{exact}: determinism break -- "
                    f"baseline {base_row.get(exact)} vs "
                    f"current {cur_row.get(exact)}",
                ))
        base_tp = float(base_row.get("cycles_per_sec", 0) or 0)
        cur_tp = float(cur_row.get("cycles_per_sec", 0) or 0)
        floor = base_tp * (1.0 - tolerance)
        if base_tp and cur_tp < floor:
            failures.append((
                f"simulator[{name}].cycles_per_sec",
                f"simulator[{name}].cycles_per_sec: {cur_tp:,.0f} < "
                f"floor {floor:,.0f} (baseline {base_tp:,.0f}, "
                f"tolerance {tolerance:.0%})",
            ))

    base_grid = baseline.get("figure_grid", {})
    cur_grid = current.get("figure_grid", {})
    for metric in ("sequential_uncached_wall_s", "cold_wall_s"):
        base_wall = base_grid.get(metric)
        cur_wall = cur_grid.get(metric)
        if base_wall is None or cur_wall is None:
            continue
        if float(base_wall) < 1.0:
            # Sub-second walls are noise-dominated; the band would be
            # narrower than scheduler jitter.
            continue
        ceiling = float(base_wall) * (1.0 + tolerance)
        if float(cur_wall) > ceiling:
            failures.append((
                f"figure_grid.{metric}",
                f"figure_grid.{metric}: {cur_wall}s > ceiling "
                f"{ceiling:.2f}s (baseline {base_wall}s, "
                f"tolerance {tolerance:.0%})",
            ))
    base_walls = base_grid.get("backend_walls_s", {}) or {}
    cur_walls = cur_grid.get("backend_walls_s", {}) or {}
    for name, base_wall in base_walls.items():
        cur_wall = cur_walls.get(name)
        if cur_wall is None:
            failures.append((
                f"figure_grid.backend_walls_s.{name}",
                f"figure_grid.backend_walls_s.{name}: missing from "
                "current run",
            ))
            continue
        if float(base_wall) < 1.0:
            continue
        ceiling = float(base_wall) * (1.0 + tolerance)
        if float(cur_wall) > ceiling:
            failures.append((
                f"figure_grid.backend_walls_s.{name}",
                f"figure_grid.backend_walls_s.{name}: {cur_wall}s > "
                f"ceiling {ceiling:.2f}s (baseline {base_wall}s, "
                f"tolerance {tolerance:.0%})",
            ))
    seq_wall = cur_grid.get("sequential_uncached_wall_s")
    if seq_wall:
        # Row coverage: every build is charged to the row that ran it,
        # so the rows' experiment walls must add up to the grid wall.
        total = (cur_grid.get("cold_phase_totals_s") or {}).get("total")
        floor = ROW_COVERAGE * float(seq_wall)
        if total is None or float(total) < floor:
            failures.append((
                "figure_grid.cold_phase_totals_s.total",
                f"figure_grid.cold_phase_totals_s.total: rows cover "
                f"{total}s < {floor:.2f}s ({ROW_COVERAGE:.0%} of the "
                f"{seq_wall}s sequential uncached wall)",
            ))
    if base_grid.get("rows") != cur_grid.get("rows"):
        failures.append((
            "figure_grid.rows",
            f"figure_grid.rows: baseline {base_grid.get('rows')} vs "
            f"current {cur_grid.get('rows')}",
        ))
    return failures


def compare(baseline: Dict, current: Dict, tolerance: float) -> List[str]:
    """Back-compat wrapper: human-readable messages only."""
    return [msg for _, msg in compare_named(baseline, current, tolerance)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional slowdown before failing (default 0.5)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    failures = compare_named(baseline, current, args.tolerance)
    base_sim = _simulator_by_benchmark(baseline)
    cur_sim = _simulator_by_benchmark(current)
    print(f"bench regression check (tolerance {args.tolerance:.0%})")
    for name in sorted(set(base_sim) | set(cur_sim)):
        b = base_sim.get(name, {})
        c = cur_sim.get(name, {})
        print(
            f"  {name:>10}: cycles/s {b.get('cycles_per_sec', '?'):>12} -> "
            f"{c.get('cycles_per_sec', '?'):>12}"
        )
    for metric in ("sequential_uncached_wall_s", "cold_wall_s",
                   "warm_wall_s"):
        b = baseline.get("figure_grid", {}).get(metric)
        c = current.get("figure_grid", {}).get(metric)
        if b is not None or c is not None:
            print(f"  {metric}: {b}s -> {c}s")
    base_walls = baseline.get("figure_grid", {}).get("backend_walls_s", {})
    cur_walls = current.get("figure_grid", {}).get("backend_walls_s", {})
    for name in sorted(set(base_walls) | set(cur_walls)):
        print(
            f"  backend_walls_s[{name}]: {base_walls.get(name)}s -> "
            f"{cur_walls.get(name)}s"
        )
    for field in ("sim_backend", "kernel_impl"):
        print(f"  {field}: {baseline.get(field)} -> {current.get(field)}")
    if failures:
        print("\nREGRESSIONS:")
        for _, message in failures:
            print(f"  - {message}")
        # Name the first regressing metric on its own greppable line so
        # the CI log (and anything parsing it) pinpoints what moved.
        print(f"\nfirst regressing metric: {failures[0][0]}")
        print(f"FIRST_REGRESSING_METRIC={failures[0][0]}")
        return 1
    print("\nOK: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
