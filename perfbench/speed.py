"""Host speed, sampled on the measured process's own CPU while the program runs.

On the shared 2-vCPU host this benchmark was built on, the same work
took up to twice as long from one minute to the next, and CPU time
stretched with wall time: the host slows the vCPU down.  A probe on the
other vCPU does not see it (correlation 0.1), but a short kernel timed
on the same vCPU does.  So a SIGALRM handler in the measured process
times a fixed kernel every INTERVAL_S of wall time.  The kernel is a
loop of small numpy operations, like the program's per-step code: over
231 operation timings of chain-spectra, log op time against log kernel
time had slope 1.00 and correlation 0.93, where a pure-Python scalar
loop had slope 1.24 and so under-corrected (both measured with the
kernel timed in wall time, which equals its CPU time on a quiet host).
An operation's time, less the kernel time inside it, is scaled by
NOMINAL_S over the mean kernel time around it: the time the operation
takes at the speed where the kernel takes NOMINAL_S.

The kernel is timed in the thread's CPU time, and an operation's wall
time is taken less the time its thread waited in the run queue
(/proc/thread-self/schedstat).  Processes of other tenants that share
the CPUs make the thread wait, not run slower: this leaves them out of
both the speed and the wall time, where timing the kernel in wall time
would have scaled CPU time by a wait it does not contain.

The kernel measures the host's speed only while the measured thread runs
alone.  Other threads of the process (GIL contention, more runnable
threads than vCPUs) and child processes slow the kernel too, make the
thread wait in the run queue, and scaling by the kernel would hide the
CPU time they add.  So an operation in which other threads or reaped
children used more than SHARED_CPU_S of CPU is not scaled: its raw wall
and CPU times are reported.
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.05
# The kernel's CPU time on the unloaded reference host; scaled times are
# in seconds at that speed.
NOMINAL_S = 0.001
# CPU seconds other threads and child processes may use in an operation
# that is still scaled.
SHARED_CPU_S = 0.001


_X = np.ones(64)


def _kernel() -> np.ndarray:
    x = _X
    for _ in range(500):
        x = x * 1.0000001 + 1e-9
    return x


@dataclass(frozen=True)
class Mark:
    """The clocks at one instant, as seen by the calling thread."""

    wall: float  # perf_counter seconds
    cpu: float  # CPU seconds of the process and its reaped children
    own_cpu: float  # CPU seconds of the calling thread
    waited: float  # seconds the calling thread has waited in the run queue


def mark() -> Mark:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open("/proc/thread-self/schedstat", encoding="ascii") as fh:
        waited_ns = int(fh.read().split()[1])
    return Mark(time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime,
                time.thread_time(), waited_ns * 1e-9)


def _threads() -> int:
    """Threads of this process, from /proc."""
    return len(os.listdir("/proc/self/task"))


class SpeedSampler:
    """Times the kernel every INTERVAL_S while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.max_threads = 1
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start, t0 = time.perf_counter(), time.thread_time()
        _kernel()
        self.durations.append(time.thread_time() - t0)
        self.starts.append(start)
        self.max_threads = max(self.max_threads, _threads())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, a: Mark, b: Mark) -> tuple[float, float, bool]:
        """Wall and CPU seconds from `a` to `b` at nominal speed, and whether they were scaled.

        The kernel time that fell inside the interval is taken off both,
        and the run-queue wait off the wall time; the speed is the mean
        over the samples inside the interval and the one on either side
        of it.  If other threads or children used more than SHARED_CPU_S
        of CPU, the raw times are returned.
        """
        wall, cpu = b.wall - a.wall, b.cpu - a.cpu
        if cpu - (b.own_cpu - a.own_cpu) > SHARED_CPU_S:
            return wall, cpu, False
        i = bisect.bisect_left(self.starts, a.wall)
        j = bisect.bisect_left(self.starts, b.wall)
        inside = sum(self.durations[i:j])
        factor = NOMINAL_S / statistics.fmean(self.durations[max(i - 1, 0) : j + 1])
        return max(wall - (b.waited - a.waited) - inside, 0.0) * factor, max(cpu - inside, 0.0) * factor, True
