"""Workload definitions and the output check shared by every process.

Grids are the paper's figure grids, built from the public job API
(``ExperimentJob``) in the order ``repro.harness.figures`` builds them.
They are fixed inputs: the seed draws only the serve spec stream (over
figure3 cells).  A seeded cell order was tried and dropped -- it moves
which cells pay for shared memos, and with it the job-latency figures,
far more than any code change the benchmark is meant to resolve.

``expected_rows.json`` holds every cell's simulated row columns as the
code produced them when the benchmark was written; a repetition is
correct only if each of its rows matches.  Regenerate it (after a
change that is *meant* to alter simulated results) with::

    PYTHONPATH=src python3 perfbench/workloads.py --write-expected
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from typing import Any, Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_rows.json")

WORKLOADS = ("sweep-memlat", "suite-original", "serve-mixed")

#: figure5_memory_latency panel: benchmarks x latencies x targets.
MEMLAT_BENCHMARKS = ("gcc", "twolf", "vortex")
MEMLAT_LATENCIES = (100, 200, 300)
MEMLAT_TARGETS = ("L", "E", "P")
#: figure2 (target O, default machine) over four of the six benchmarks
#: outside the memlat panel; all nine would not fit the run time budget.
SUITE_BENCHMARKS = ("bzip2", "gap", "mcf", "vpr.route")
#: The serve stream's fresh cells: figure3 cells of four benchmarks of
#: similar cold cost, one per target O/L/E/P.  Every seed submits the
#: same cells (in a seeded order), so every seed does the same work; a
#: seeded target per benchmark moved the slowest job by up to 15%.
SERVE_CELLS = (("bzip2", "E"), ("gap", "O"), ("parser", "L"),
               ("vpr.route", "P"))

#: The simulated row columns the output check compares (never the
#: ``t_*`` phase walls or ``src_*`` provenance, which vary by run).
SIM_COLUMNS = (
    "n_pthreads",
    "speedup_pct",
    "energy_save_pct",
    "ed_save_pct",
    "ed2_save_pct",
    "full_coverage_pct",
    "partial_coverage_pct",
    "pinst_increase_pct",
    "usefulness_pct",
    "avg_pthread_length",
    "spawns",
)


def cell_id(benchmark: str, target: str, memory_latency: Any = None) -> str:
    base = f"{benchmark}/{target}"
    return f"{base}/mem{memory_latency}" if memory_latency else base


def grid_jobs(workload: str) -> List[Any]:
    """The workload's ExperimentJobs, in the figure's own cell order."""
    from repro.config import MachineConfig
    from repro.harness.parallel import ExperimentJob
    from repro.pthsel.targets import Target

    targets = {t.label: t for t in Target}
    if workload == "suite-original":
        return [ExperimentJob(b, target=Target.ORIGINAL)
                for b in SUITE_BENCHMARKS]
    if workload == "sweep-memlat":
        return [
            ExperimentJob(
                b,
                target=targets[t],
                machine=MachineConfig().with_memory_latency(lat),
                tag={"memory_latency": lat},
            )
            for lat in MEMLAT_LATENCIES
            for b in MEMLAT_BENCHMARKS
            for t in MEMLAT_TARGETS
        ]
    raise ValueError(f"not a grid workload: {workload}")


def serve_stream(seed: int) -> List[Dict[str, str]]:
    """Spec stream for one serve repetition.

    Each fresh cell is submitted twice in a row, so with two closed-loop
    clients both ask for it at once: one submit computes it and the
    other attaches to the in-flight job.  The stream ends with one more
    repeat of an already completed cell, answered from the completion
    journal.  5 of 9 submissions repeat an earlier cell, and repeats
    wait as long as the job they attach to, so the median job is a
    computed one rather than a dedup answer.
    """
    rng = random.Random(seed)
    fresh = list(SERVE_CELLS)
    rng.shuffle(fresh)
    stream = [cell for cell in fresh for _ in range(2)]
    stream.append(rng.choice(fresh))
    return [{"benchmark": b, "target": t} for b, t in stream]


def row_id(row: Dict[str, Any]) -> str:
    return cell_id(row["benchmark"], row["target"], row.get("memory_latency"))


def sim_columns(row: Dict[str, Any]) -> Dict[str, Any]:
    return {c: row.get(c) for c in SIM_COLUMNS}


def provenance(rows: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Tallies of the ``src_*`` provenance columns over result rows."""
    return dict(Counter(
        f"{k}={v}" for row in rows for k, v in row.items()
        if k.startswith("src_")
    ))


def rows_digest(rows: Dict[str, Dict[str, Any]]) -> str:
    """Digest over cell id -> simulated columns (order-independent)."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def mismatches(rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """Cell ids whose simulated columns differ from the expected table."""
    expected = load_expected()
    return sorted(cid for cid, cols in rows.items()
                  if expected.get(cid) != cols)


def _write_expected() -> None:
    from repro.harness.figures import result_row
    from repro.harness.parallel import run_experiments
    from repro.server.jobspec import job_from_spec, normalize_spec

    jobs = grid_jobs("sweep-memlat") + grid_jobs("suite-original")
    jobs += [
        job_from_spec(normalize_spec({"benchmark": b, "target": t}))
        for b, t in SERVE_CELLS
    ]
    table: Dict[str, Dict[str, Any]] = {}
    for job, result in zip(jobs, run_experiments(jobs, n_jobs=1)):
        row = result_row(result)
        row.update(job.tag)
        if row.get("failed"):
            raise SystemExit(f"cell {row_id(row)} failed: {row}")
        table[row_id(row)] = sim_columns(row)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} cells to {EXPECTED_PATH}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write-expected"]:
        raise SystemExit("usage: workloads.py --write-expected")
    _write_expected()
