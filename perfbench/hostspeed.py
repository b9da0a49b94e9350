"""Host-speed reference: a fixed memory-latency probe sampled during a run.

The benchmark's host is a few vCPUs of a shared machine, and each vCPU's
speed drifts on its own: the same fixed loop takes anywhere from 1x to
1.7x as long within a few minutes, at times 1.5x as long on one vCPU as
on the other, and identical repetitions of a grid drift with the vCPU
they run on.  That drift is larger than any bound a regression gate
could use, so every time the benchmark reports is scaled to a reference
host speed:

    reported = measured * REF_S / probe

where ``probe`` is the median CPU time of a fixed walk along a random
cycle through 64 MiB (one dependent memory round trip per step) sampled
while the measured interval ran, and ``REF_S`` a fixed walk time that
sets the scale.  The probe never runs repository code, so a change to
the program cannot move it.  It times itself with CPU time (waiting for
a core does not count as slowness) and before each walk moves to the
vCPU on which the followed process's busiest thread last ran.

Why this probe: on a 2-vCPU Xeon VM, over 16 identical suite-original
repetitions whose wall spread 13% (interquartile range over median),
wall time moved with the walk's time to the power 0.86 (correlation
0.93) and the scaled wall spread 7%; a tight in-cache loop correlated
as well but moved twice as much as the wall (power 0.51), over-scaling
whenever the clock sped up, and a probe on the other vCPU correlated
0.6.  Sharing the followed vCPU costs the workload about 4% of its
time, the same for every run.

    python3 perfbench/hostspeed.py    # prints "<monotonic s> <walk s>" lines

Write a process id to its standard input to follow it, ``0`` to stop
following; it exits when its standard input closes.
"""
from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import threading
import time
from array import array
from typing import Dict, List, Optional, Tuple

#: CPU seconds one walk takes at the reference host speed (about its
#: median on the 2-vCPU VM the benchmark was written on).
REF_S = 0.015
#: Seconds between walk starts.
PERIOD_S = 0.4
#: Samples needed inside an interval before its own median is used;
#: shorter intervals take the samples nearest to their midpoint.
MIN_SAMPLES = 5

#: A single-cycle permutation of 2**23 slots (64 MiB, more than a
#: last-level cache holds), the full-period linear congruential map
#: ``x -> (a*x + c) mod 2**23`` with ``a % 4 == 1`` and ``c`` odd:
#: following it is one memory round trip per step, which a faster core
#: clock does not shorten.
_CHASE_SLOTS = 1 << 23
_CHASE = array("q")


def _chase() -> int:
    slot = 0
    for _ in range(80_000):
        slot = _CHASE[slot]
    return slot


def _busiest_cpu(pid: int, seen: Dict[str, int]) -> Optional[int]:
    """The vCPU on which ``pid``'s thread with the most CPU time since
    the previous call last ran (None once the process is gone)."""
    best: Tuple[int, Optional[int]] = (-1, None)
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return None
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command name, from field 3 (state): utime
        # and stime are fields 14 and 15, processor is field 39.
        used = int(fields[11]) + int(fields[12])
        delta, seen[tid] = used - seen.get(tid, 0), used
        if delta > best[0]:
            best = (delta, int(fields[36]))
    return best[1]


def _sample_forever() -> None:
    everywhere = os.sched_getaffinity(0)
    stdin = sys.stdin.fileno()
    follow = 0
    seen: Dict[str, int] = {}
    _chase()  # warm-up, not reported
    while True:
        cpu = _busiest_cpu(follow, seen) if follow else None
        os.sched_setaffinity(0, {cpu} if cpu is not None else everywhere)
        started = time.process_time()
        _chase()
        cpu_s = time.process_time() - started
        print(f"{time.monotonic():.6f} {cpu_s:.9f}", flush=True)
        if select.select([stdin], [], [], max(0.0, PERIOD_S - cpu_s))[0]:
            data = os.read(stdin, 4096)
            if not data:
                return
            if data.split():
                follow, seen = int(data.split()[-1]), {}


class HostSpeed:
    """Runs the probe process for the life of a ``with`` block and
    answers, for any interval of ``time.monotonic()``, the factor that
    scales a time measured in it to the reference speed."""

    def __init__(self, python: str, path: str) -> None:
        self._cmd = [python, path]
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            self._cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            stamp, cpu = line.split()
            self.samples.append((float(stamp), float(cpu)))

    def follow(self, pid: Optional[int]) -> None:
        """Sample on the vCPU ``pid`` runs on (anywhere if None)."""
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(f"{pid or 0}\n")
        self._proc.stdin.flush()

    def __exit__(self, *exc: object) -> None:
        if self._proc is not None:
            self._proc.terminate()
            self._proc.wait()
        if self._reader is not None:
            self._reader.join()
        if self._proc is not None:
            for pipe in (self._proc.stdin, self._proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass

    def probe(self, start: float, end: float) -> float:
        """Median walk CPU time over ``[start, end]``."""
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("host-speed probe produced no samples")
        inside = [cpu for stamp, cpu in samples if start <= stamp <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [cpu for _, cpu in nearest[:MIN_SAMPLES]]
        return statistics.median(inside)

    def factor(self, start: float, end: float) -> float:
        return REF_S / self.probe(start, end)

    def wait_for_samples(self, count: int, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while len(self.samples) < count:
            if time.monotonic() > deadline or (
                    self._proc is not None and self._proc.poll() is not None):
                raise RuntimeError("host-speed probe produced no samples")
            time.sleep(0.01)


if __name__ == "__main__":
    _CHASE.extend((i * 2862933555777941757 + 3037000493) % _CHASE_SLOTS
                  for i in range(_CHASE_SLOTS))
    try:
        _sample_forever()
    except (KeyboardInterrupt, BrokenPipeError):
        pass
