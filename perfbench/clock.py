"""Time at a reference machine speed.

The benchmark shares its cores with other tenants, and their load changes
how fast the same code runs by 30% or more, within seconds. So each timed
interval is scaled by how fast a fixed reference program, which does not
involve rbtrees, ran at the same time: by the reference's nominal time over
its measured time.

* A job is scaled by a short pure-Python loop (``loop_ns``, nominal
  ``REFERENCE_LOOP_NS``). ``SpeedProbe`` runs the loop on a 5 ms timer
  signal while the job runs and takes the loop's own time out of the job's.
  A job too short to be sampled is scaled by loops run right after it.
* An interpreter's set-up is scaled by an interpreter that imports only
  numpy and scipy.special (``reference_setup_s``, nominal
  ``REFERENCE_SETUP_S``), started just before and just after it; the loop
  tracks import time poorly.

The nominal times are about what the references take on the 2-core box the
first baseline was taken on, when the other tenants are quiet. Changes to
rbtrees do not touch the references, so they move the scaled times in full.
Standard library only.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

REFERENCE_LOOP_NS = 35_000.0
REFERENCE_SETUP_S = 0.4
PROBE_INTERVAL_S = 0.005
_LOOP = 500


def loop_ns() -> int:
    """Time of the fixed reference loop, in ns."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Samples ``loop_ns`` on a timer signal during a ``with`` block.

    Signal handlers run in the main thread between bytecodes, also while it
    waits for pool workers, so the samples cover the whole block. Only one
    probe may sample at a time. Traced runs pass ``sample=False``: a sample
    landing inside a microsecond-scale span would inflate it, so they scale
    by loops run after the block instead.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[int] = []
        self._previous = None

    def _take(self, signum, frame) -> None:
        self.samples.append(loop_ns())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def spent_s(self) -> float:
        """Seconds the samples themselves took, to subtract from the block."""
        return sum(self.samples) / 1e9

    def factor(self) -> float:
        """Reference over measured loop time; loops run now if none were sampled."""
        samples = self.samples or [loop_ns() for _ in range(5)]
        return REFERENCE_LOOP_NS / statistics.mean(samples)


def reference_setup_s(env: dict) -> float:
    """Seconds from start until an interpreter has imported numpy and scipy.special."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import numpy, scipy.special; print('ready', flush=True)"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        proc.stdout.readline()
        return time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
