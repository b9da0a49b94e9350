"""Host-time benchmark for the PTHSEL+E reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/repro``).  Every
repetition runs in a fresh process with empty persistent state -- its
own sim-cache directory and, for serve, its own state directory -- and
the repo's default settings (``REPRO_*`` variables are stripped; only
the native-artifact directory persists between repetitions, like an
install).  As many whole repetitions run as fit ``--seconds`` (at least
one); set-up is also probed ``SETUP_PROBES`` times on its own.

Workloads (see ``workloads.py``):

- ``sweep-memlat``: the figure5 memory-latency grid (27 cells,
  sequential).  Cells share traces, slice trees and augmented
  expansions; cost functions are rebuilt per latency and baselines go
  through the lock-step batch prewarm.
- ``suite-original``: figure2 cells (target O, one machine) of four
  benchmarks outside the memlat panel: nothing shared, every trace
  interpreted, no cost functions, no batch prewarm.
- ``serve-mixed``: ``repro serve`` with its defaults, driven by a closed
  loop of 2 client threads in this process over a seeded figure3 spec
  stream in which 5 of 9 submissions repeat an earlier cell.

The grids are fixed inputs; ``--seed`` draws the serve spec stream.  A
job is a grid cell (all submitted at dispatch, delivered when it
completes) or a served experiment (submit to result).

End-to-end metrics come from untraced repetitions.  ``--trace 1`` adds
one traced repetition (layer wrappers from ``layers.py``, installed in
the child or server process) and prints per-layer metrics instead;
``trace.overhead_s`` is its wall minus the untraced median.

Times are host wall-clock seconds scaled to a reference host speed:
``hostspeed.py`` samples a fixed probe in its own process throughout
the run, on the vCPU the repetition's process is running on, and each
repetition's times are multiplied by ``REF_S / probe`` over that
repetition (the wall as measured is printed next to them).  Without
this the drift of a shared host's vCPU speed (up to 1.7x within
minutes) is larger than any regression bound.  They are not
comparable with the ``BENCH_2026*.json`` history (whose native 4.0x
figure came from caches inherited across engines).  Simulated
results are checked for identity with ``expected_rows.json``; the
model itself is not validated against hardware.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
#: Result polling interval of the load generator's clients.
POLL_S = 0.05
CHILD_TIMEOUT_S = 170.0
JOB_TIMEOUT_S = 150.0
SERVE_READY_TIMEOUT_S = 60.0
CLIENT_THREADS = 2

SERVER_METRICS = (
    "server.submit_p50_s",
    "server.submit_tail_s",
    "server.queue_wait_p50_s",
    "server.queue_wait_tail_s",
    "server.service_p50_s",
    "server.service_tail_s",
    "server.dedup_ratio",
    "server.shed",
)


class BenchError(RuntimeError):
    pass


def tail(values: List[float]) -> Tuple[float, str]:
    """The highest nearest-rank percentile with >= 10 samples beyond it,
    and a note naming it.  Below 20 samples no percentile above the
    median qualifies, and the maximum (p100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n if n < 20 else n - 10
    return ordered[rank - 1], (
        f"p{100.0 * rank / n:.1f} of {n} samples, {n - rank} beyond")


class Bench:
    def __init__(self, root: str, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.state = os.path.join(root, ".bench_state")
        os.makedirs(self.state, exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["REPRO_NATIVE_DIR"] = os.path.join(self.state, "native")
        self.env = env
        #: The host-speed probe of the run in progress (see ``run``).
        self.speed: Any = None

    # -------------------------------------------------------------- #
    # Fresh-process repetitions

    def _rep_dir(self) -> Tuple[str, Dict[str, str]]:
        rep = tempfile.mkdtemp(prefix="rep-", dir=self.state)
        env = dict(self.env, REPRO_CACHE_DIR=os.path.join(rep, "cache"))
        return rep, env

    def grid_rep(self, workload: str, trace: bool = False,
                 setup_only: bool = False) -> Dict[str, Any]:
        rep, env = self._rep_dir()
        try:
            out = os.path.join(rep, "report.json")
            log = os.path.join(rep, "child.log")
            flags = (["--trace"] if trace else []) + (
                ["--setup-only"] if setup_only else [])
            with open(log, "w") as fh:
                spawned_at = time.time()
                proc = subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "child.py"),
                     "--workload", workload,
                     "--spawned-at", repr(spawned_at), "--out", out]
                    + flags,
                    cwd=self.root, env=env, stdout=fh, stderr=fh,
                )
            try:
                if not setup_only:
                    self.speed.follow(proc.pid)
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                self.speed.follow(None)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if proc.returncode != 0:
                raise BenchError(
                    f"{workload} repetition exited {proc.returncode}:\n"
                    + _tail_text(log))
            with open(out) as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(rep, ignore_errors=True)

    def serve_rep(self, trace: bool = False,
                  setup_only: bool = False) -> Dict[str, Any]:
        from repro.server.client import ServerClient

        rep, env = self._rep_dir()
        report_path = os.path.join(rep, "server.json")
        out_path = os.path.join(rep, "server.out")
        cmd = [sys.executable, os.path.join(HERE, "serve_boot.py"),
               "--report", report_path] + (["--trace"] if trace else []) + [
            "--", "serve", "--port", "0",
            "--state", os.path.join(rep, "state")]
        proc: Optional[subprocess.Popen] = None
        try:
            with open(out_path, "w") as out:
                spawned_at = time.time()
                proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                        stdout=out, stderr=subprocess.STDOUT)
            if not setup_only:
                self.speed.follow(proc.pid)
            client = ServerClient(_await_url(proc, out_path), timeout_s=30.0)
            deadline = time.monotonic() + SERVE_READY_TIMEOUT_S
            while client.healthz().status != 200:
                if time.monotonic() > deadline or proc.poll() is not None:
                    raise BenchError("server never answered /healthz:\n"
                                     + _tail_text(out_path))
                time.sleep(0.005)
            result: Dict[str, Any] = {"setup_s": time.time() - spawned_at}
            if setup_only:
                return result
            result.update(_drive(client, workloads.serve_stream(self.seed)))
            result["jobs"] = client.jobs().body.get("jobs", [])
            _stop(proc)
            if proc.returncode != 0:
                raise BenchError(f"server exited {proc.returncode}:\n"
                                 + _tail_text(out_path))
            with open(report_path) as fh:
                result.update(json.load(fh))
            return result
        finally:
            self.speed.follow(None)
            if proc is not None:
                _stop(proc)
            shutil.rmtree(rep, ignore_errors=True)

    # -------------------------------------------------------------- #

    def run(self, workload: str, trace: bool) -> Dict[str, Any]:
        serve = workload == "serve-mixed"
        view = _serve_view if serve else _grid_view

        def rep(**kw: Any) -> Dict[str, Any]:
            return self.serve_rep(**kw) if serve else self.grid_rep(
                workload, **kw)

        with hostspeed.HostSpeed(
                sys.executable, os.path.join(HERE, "hostspeed.py")) as speed:
            self.speed = speed
            speed.wait_for_samples(2)

            def measured(**kw: Any) -> Dict[str, Any]:
                started = time.monotonic()
                result = view(rep(**kw))
                return _scale(result, speed, (started, time.monotonic()))

            started = time.monotonic()
            setups = [rep(setup_only=True)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            factor = speed.factor(started, time.monotonic())
            setups = [s * factor for s in setups]
            # As many whole repetitions as fit ``--seconds``, rounded to
            # the nearest (at least one), so a run never takes about
            # twice the budget because a repetition ended just short.
            reps: List[Dict[str, Any]] = []
            started = time.monotonic()
            while True:
                rep_started = time.monotonic()
                reps.append(measured())
                now = time.monotonic()
                if now - started + (now - rep_started) / 2 >= self.seconds:
                    break
            traced = measured(trace=True) if trace else None
        return _summarize(workload, setups, reps, traced)


# ------------------------------------------------------------------ #
# Serve helpers


def _tail_text(path: str, lines: int = 30) -> str:
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def _await_url(proc: subprocess.Popen, out_path: str) -> str:
    deadline = time.monotonic() + SERVE_READY_TIMEOUT_S
    pattern = re.compile(r"serving on (http://\S+)")
    while time.monotonic() < deadline:
        with open(out_path, errors="replace") as fh:
            match = pattern.search(fh.read())
        if match:
            return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise BenchError("server did not announce its URL:\n"
                     + _tail_text(out_path))


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _drive(client: Any, stream: List[Dict[str, str]]) -> Dict[str, Any]:
    """Closed loop: each client thread submits its next spec only after
    its previous job reached a terminal state."""
    from repro.server.loadtest import _classify

    pending = iter(stream)
    lock = threading.Lock()
    samples: List[Dict[str, Any]] = []

    def client_loop() -> None:
        while True:
            with lock:
                spec = next(pending, None)
            if spec is None:
                return
            started = time.monotonic()
            submit = client.submit(spec)
            submitted = time.monotonic()
            final = submit
            job_id = submit.body.get("job_id")
            if submit.status == 202 and job_id:
                final = client.wait(job_id, timeout_s=JOB_TIMEOUT_S,
                                    poll_s=POLL_S)
            ended = time.monotonic()
            with lock:
                samples.append({
                    "spec": spec,
                    "job_id": job_id,
                    "outcome": _classify(final, submit),
                    "started": started,
                    "ended": ended,
                    "submit_s": submitted - started,
                    "row": final.body.get("row"),
                })

    threads = [threading.Thread(target=client_loop)
               for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(s["ended"] for s in samples) - min(
        s["started"] for s in samples)
    return {"samples": samples, "wall_s": wall}


def _serve_check(rep: Dict[str, Any]) -> Tuple[Dict[str, Any], List[str]]:
    """Rows by cell id plus a list of problems: jobs that did not
    complete, dedup rows that differ from their primary's, cells whose
    rows disagree with each other or with the expected table."""
    problems: List[str] = []
    rows_by_job: Dict[str, Dict[str, Any]] = {}
    rows: Dict[str, Dict[str, Any]] = {}
    for sample in rep["samples"]:
        if sample["outcome"] != "ok" or not sample["row"]:
            problems.append(f"{sample['spec']}: {sample['outcome']}")
            continue
        cols = workloads.sim_columns(sample["row"])
        rows_by_job[sample["job_id"]] = cols
        cid = workloads.row_id(sample["row"])
        if rows.setdefault(cid, cols) != cols:
            problems.append(f"{cid}: rows differ between jobs")
    for record in rep["jobs"]:
        primary = record.get("dedup_of")
        if primary and rows_by_job.get(record["job_id"]) != rows_by_job.get(
                primary):
            problems.append(f"{record['job_id']}: row differs from "
                            f"primary {primary}")
    problems += [f"{cid}: differs from expected_rows.json"
                 for cid in workloads.mismatches(rows)]
    return rows, problems


def _repeat_share(rep: Dict[str, Any]) -> float:
    """Share of submissions naming a cell an earlier submission named."""
    seen = set()
    repeats = 0
    for sample in sorted(rep["samples"], key=lambda s: s["started"]):
        cell = workloads.row_id(sample["spec"])
        repeats += cell in seen
        seen.add(cell)
    return repeats / len(rep["samples"])


def _server_layer_metrics(rep: Dict[str, Any]) -> Dict[str, float]:
    """server.* metrics from client calls and the job records."""
    jobs = rep["jobs"]
    ran = [j for j in jobs if j.get("started_at") is not None]
    waits = [j["started_at"] - j["submitted_at"] for j in ran]
    services = [j["finished_at"] - j["started_at"] for j in ran
                if j.get("finished_at") is not None]
    submits = [s["submit_s"] for s in rep["samples"]]
    out: Dict[str, float] = {}
    for name, values in (("submit", submits), ("queue_wait", waits),
                         ("service", services)):
        out[f"server.{name}_p50_s"] = statistics.median(values)
        out[f"server.{name}_tail_s"], _ = tail(values)
    out["server.dedup_ratio"] = (len(jobs) - len(ran)) / len(jobs)
    out["server.shed"] = sum(s["outcome"] == "shed" for s in rep["samples"])
    return out


# ------------------------------------------------------------------ #
# Summaries.  Each repetition is first reduced to one "view" shape:
# set-up/wall/RSS, engine, attempted/failed, the spans of the wall and
# of each job on the monotonic clock, the number of jobs that ran (not
# deduplicated), rows by cell, provenance tallies, output-check
# problems, and the layer table of a traced repetition; ``_scale`` then
# turns spans into latencies at the reference host speed.


def _grid_view(rep: Dict[str, Any]) -> Dict[str, Any]:
    problems = [f"{cid}: differs from expected_rows.json"
                for cid in workloads.mismatches(rep["rows"])]
    if rep["failed"]:
        problems.append(f"{rep['failed']} failed cell(s)")
    dispatched = rep["dispatched_at"]
    return dict(rep, attempted=rep["cells"],
                spans=[(dispatched, dispatched + t) for t in rep["done_s"]],
                wall_span=(dispatched, dispatched + rep["wall_s"]),
                ran=rep["cells"], problems=problems)


def _serve_view(rep: Dict[str, Any]) -> Dict[str, Any]:
    rows, problems = _serve_check(rep)
    ok = [s for s in rep["samples"] if s["outcome"] == "ok"]
    server = _server_layer_metrics(rep)
    return dict(
        rep,
        attempted=len(rep["samples"]),
        failed=len(rep["samples"]) - len(ok),
        spans=[(s["started"], s["ended"]) for s in ok],
        wall_span=(min(s["started"] for s in rep["samples"]),
                   max(s["ended"] for s in rep["samples"])),
        ran=sum(j.get("started_at") is not None for j in rep["jobs"]),
        rows=rows,
        src=workloads.provenance(s["row"] for s in ok),
        problems=problems,
        server=server,
        repeat_share=_repeat_share(rep),
    )


def _scale(view: Dict[str, Any], speed: Any,
           window: Tuple[float, float]) -> Dict[str, Any]:
    """A repetition's times at the reference host speed (``hostspeed``):
    the wall and each job's latency scaled by the probe over their own
    span, everything else by the probe over the repetition's
    ``window``.  The wall as measured is kept as ``host_wall_s``."""
    factor = speed.factor(*window)
    scaled = dict(
        view, factor=factor, host_wall_s=view["wall_s"],
        setup_s=view["setup_s"] * factor,
        wall_s=view["wall_s"] * speed.factor(*view["wall_span"]),
        latencies=[(end - start) * speed.factor(start, end)
                   for start, end in view["spans"]])
    if "server" in view:
        scaled["server"] = {
            k: v * factor if k.endswith("_s") else v
            for k, v in view["server"].items()}
    if "layers" in view:
        scaled["layers"] = {
            name: {k: v * factor if k.endswith("_s") else v
                   for k, v in stats.items()}
            for name, stats in view["layers"].items()}
    return scaled


def _summarize(workload: str, setups: List[float],
               reps: List[Dict[str, Any]],
               traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    problems = [p for r in reps for p in r["problems"]]
    digests = {workloads.rows_digest(r["rows"]) for r in reps}
    engines = {r["engine"] for r in reps}
    if len(digests) > 1 or len(engines) > 1:
        problems.append(f"repetitions disagree: {digests} {engines}")
    latencies = [t for r in reps for t in r["latencies"]]
    tail_s, tail_note = tail(latencies)
    summary: Dict[str, Any] = {
        "workload": workload,
        "reps": len(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "digest": sorted(digests)[0],
        "engine": sorted(engines)[0],
        "src": reps[0]["src"],
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(
                setups + [r["setup_s"] for r in reps]),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "jobs_per_s": statistics.median(
                (r["attempted"] - r["failed"]) / r["wall_s"] for r in reps),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
        },
        "tail_note": tail_note,
        "host_wall_s": statistics.median(r["host_wall_s"] for r in reps),
        "factors": [r["factor"] for r in reps],
    }
    if "server" in reps[0]:
        summary["repeat_share"] = statistics.median(
            r["repeat_share"] for r in reps)
        summary["dedup_ratio"] = statistics.median(
            r["server"]["server.dedup_ratio"] for r in reps)
    if traced is None:
        return summary

    summary["attempted"] += traced["attempted"]
    summary["failed"] += traced["failed"]
    problems += traced["problems"]
    digest = workloads.rows_digest(traced["rows"])
    if digest != summary["digest"]:
        problems.append(
            f"traced rows digest {digest} != untraced {summary['digest']}")
    traced_engines = layers.engines(traced["layers"])
    if set(traced_engines) - engines:
        problems.append(f"traced run used engine(s) {sorted(traced_engines)}"
                        f", untraced {sorted(engines)}")
    per_layer = layers.layer_metrics(traced["layers"], traced["wall_s"],
                                     traced["ran"])
    per_layer["trace.overhead_s"] = (
        traced["wall_s"] - summary["metrics"]["wall_s"])
    server = traced.get("server", {})
    for name in SERVER_METRICS:
        per_layer[name] = server.get(name, 0.0)
    summary["per_layer"] = per_layer
    summary["traced_engines"] = traced_engines
    return summary


# ------------------------------------------------------------------ #
# Output


def _print_summary(summary: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {summary['workload']}: {summary['reps']} repetition(s), "
          f"{SETUP_PROBES} set-up probes, engine {summary['engine']}")
    for name, value in summary["metrics"].items():
        note = f"  ({summary['tail_note']})" if name == "job_tail_s" else ""
        print(f"  {name:<14} {value:>12.4f} {units[name]}{note}")
    print(f"  host speed   wall as measured {summary['host_wall_s']:.4f} s;"
          " scaled to the reference by "
          + ", ".join(f"{f:.3f}" for f in summary["factors"]))
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'failed_ratio':<14} {failed / attempted:>12.4f} ratio "
          f"({failed}/{attempted})")
    if "repeat_share" in summary:
        print(f"  repeat share {summary['repeat_share']:.3f} of submissions;"
              f" server dedup ratio {summary['dedup_ratio']:.3f}")
    if summary.get("src"):
        print(f"  provenance   {json.dumps(summary['src'], sort_keys=True)}")
    verdict = "ok" if not summary["problems"] else "FAILED"
    print(f"  rows_digest  {summary['digest']}  output check: {verdict}")
    for problem in summary["problems"][:20]:
        print(f"    - {problem}")
    if "per_layer" in summary:
        print(f"  traced engines {summary['traced_engines']}")
        for name, value in summary["per_layer"].items():
            layer, _, field = name.rpartition(".")
            note = layers.LAYERS[layer][1] if field == "calls" else ""
            print(f"  {name:<36} {value:>14.4f}  {note}".rstrip())


def _result_line(summaries: List[Dict[str, Any]], trace: bool,
                 units: Dict[str, str]) -> Dict[str, Any]:
    metrics: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        values = summary["per_layer"] if trace else summary["metrics"]
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so every ``finally`` stops and reaps
    # the child or server process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    bench = Bench(root, args.seed, args.seconds)
    names = workloads.WORKLOADS if args.workload == "all" else (
        args.workload,)
    summaries = []
    for name in names:
        summary = bench.run(name, bool(args.trace))
        _print_summary(summary, units)
        summaries.append(summary)
    sys.stdout.flush()
    print(json.dumps(_result_line(summaries, bool(args.trace), units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
