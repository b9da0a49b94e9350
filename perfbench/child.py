"""One grid repetition in a fresh process (spawned by ``run.py``).

Mirrors what ``repro figure2``/``repro figure5`` do -- root trace
context, degrade-to-failure-row engine options, sequential grid -- and
writes one JSON report to ``--out``: set-up time (process spawn to grid
dispatch), wall (dispatch to last row), per-cell completion times since
dispatch, the dispatch instant on the host's monotonic clock (so the
parent can match each interval with host-speed samples), peak RSS,
rows, provenance tallies and the engine.
``--trace`` installs the layer wrappers first; ``--setup-only`` exits
at the dispatch point.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro import obs
    from repro.cpu import engine
    from repro.harness import parallel
    from repro.harness.figures import result_row

    import layers
    import workloads

    jobs = workloads.grid_jobs(args.workload)
    engine_name = engine.backend()
    tracer = layers.Tracer().install() if args.trace else None

    # Job latency: the whole grid is submitted at dispatch, and a cell's
    # result is delivered when it completes.  One clock read per cell,
    # in traced and untraced runs alike, at the import site the grid
    # engine calls.
    done_at = []
    run_cell = parallel.run_experiment

    def stamped(*a, **k):
        result = run_cell(*a, **k)
        done_at.append(time.monotonic())
        return result

    parallel.run_experiment = stamped

    report = {"setup_s": time.time() - args.spawned_at}
    dispatched = time.monotonic()
    if args.setup_only:
        _write(args.out, report)
        return 0

    obs.tracectx.set_process_label("cli")
    with obs.tracectx.activate(obs.tracectx.new_context()), \
            parallel.engine_options(degrade=True):
        results = parallel.run_experiments(jobs, n_jobs=1)
    finished = time.monotonic()

    full_rows = []
    for job, result in zip(jobs, results):
        row = result_row(result)
        row.update(job.tag)
        full_rows.append(row)
    ok_rows = [row for row in full_rows if not row.get("failed")]
    report.update(
        dispatched_at=dispatched,
        wall_s=finished - dispatched,
        done_s=[t - dispatched for t in done_at],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        cells=len(jobs),
        failed=len(full_rows) - len(ok_rows),
        rows={workloads.row_id(r): workloads.sim_columns(r) for r in ok_rows},
        src=workloads.provenance(ok_rows),
        engine=engine_name,
    )
    if tracer is not None:
        report["layers"] = tracer.snapshot()
    _write(args.out, report)
    return 0


def _write(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
