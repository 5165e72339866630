"""Host-speed probe: wall times scaled to a fixed reference speed.

The benchmark runs on a shared host whose CPUs change speed with their
neighbours' load: a fixed Python kernel takes 3.4 ms or 6 ms of CPU
time, switching every 0.3 to 3 seconds, and the share of slow time moves
from minute to minute.  Raw wall times of identical runs then spread by
30-40% (see METRICS.md, "Host speed").

The benchmark pins itself, its probe and its children to one CPU
(:func:`pin_one_cpu`).  A probe thread times a fixed kernel every
``PERIOD_S`` and records the kernel's *CPU* time (:func:`sample_kernel`),
so waiting for the GIL or for the CPU does not count, while a slow CPU
does.  An interval's wall time is then reported as::

    wall * REFERENCE_KERNEL_S / mean(kernel CPU time inside the interval)

that is, the wall time the interval would have taken on a CPU where the
kernel takes ``REFERENCE_KERNEL_S``.  The probe shares the CPU with the
measured code, which costs the measured code a few percent, the same in
every run.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Optional

import numpy as np

#: Seconds between probe samples (the probe sleeps in between).
PERIOD_S = 0.03
#: CPU seconds of one kernel at the reference speed: about the fast-CPU
#: time of :func:`kernel` on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.00013
#: Kernel runs per sample (the sample is their median).
KERNEL_REPEATS = 9


def kernel() -> float:
    """A fixed mix of the work the program does: dict updates, a sort of
    tuples and small NumPy array operations."""
    counts: dict = {}
    for i in range(500):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    order = sorted((v, k) for k, v in counts.items())
    values = np.arange(256, dtype=float)
    total = 0.0
    for _ in range(10):
        values = np.sqrt(values * 1.0001 + 1.0)
        total += float(values.sum())
    return total + order[0][0]


def sample_kernel() -> float:
    """Median CPU seconds of :func:`kernel` over ``KERNEL_REPEATS``
    back-to-back runs.  The median leaves out the first, cache-cold runs
    after the probe wakes, and runs stretched by a switch to another
    thread."""
    times = []
    for _ in range(KERNEL_REPEATS):
        cpu = time.thread_time()
        kernel()
        times.append(time.thread_time() - cpu)
    times.sort()
    return times[len(times) // 2]


def pin_one_cpu() -> int:
    """Pin this process (and what it starts later) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the kernel's CPU time on a daemon thread, every
    ``PERIOD_S``."""

    def __init__(self) -> None:
        self.period = PERIOD_S
        self.times: List[float] = []
        self.kernel_seconds: List[float] = []
        #: ``time.time() - time.perf_counter()``, to place wall-clock
        #: stamps (``repro serve`` events) on the probe's timeline.
        self.wall_offset = time.time() - time.perf_counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="speed-probe", daemon=True
        )

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            self.kernel_seconds.append(sample_kernel())
            self.times.append(start)  # appended last: lengths agree
            self._stop.wait(self.period)

    def start(self) -> None:
        self._thread.start()
        while not self.times:
            time.sleep(self.period / 10)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def mean_kernel(self, start: float, end: float) -> float:
        """Mean kernel CPU time of the samples in ``[start - period,
        end + period]`` (``perf_counter`` stamps), or of the nearest
        sample.  Waits (up to a second) for the first sample after
        ``end``."""
        deadline = time.perf_counter() + 1.0
        while (self.times[-1] < end
               and time.perf_counter() < deadline
               and self._thread.is_alive()):
            time.sleep(self.period / 5)
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start - self.period, 0, n)
        hi = bisect.bisect_right(self.times, end + self.period, 0, n)
        if hi > lo:
            return float(np.mean(self.kernel_seconds[lo:hi]))
        return self.kernel_seconds[min(lo, n - 1)]

    def factor(self, start: float, end: float) -> float:
        return REFERENCE_KERNEL_S / self.mean_kernel(start, end)


#: One probe per process: it measures the one CPU the whole process is
#: pinned to, and every timed interval of the run reads it.
_PROBE: Optional[SpeedProbe] = None


def start() -> None:
    global _PROBE
    _PROBE = SpeedProbe()
    _PROBE.start()


def stop() -> None:
    global _PROBE
    if _PROBE is not None:
        _PROBE.stop()
        _PROBE = None


def seconds(start: float, end: float) -> float:
    """``end - start`` (``perf_counter`` stamps) at the reference speed;
    raw when no probe runs."""
    if _PROBE is None:
        return end - start
    return (end - start) * _PROBE.factor(start, end)


def wall_seconds(start: float, end: float) -> float:
    """As :func:`seconds`, for ``time.time()`` stamps."""
    if _PROBE is None:
        return end - start
    offset = _PROBE.wall_offset
    return seconds(start - offset, end - offset)


def kernel_ms() -> float:
    """Mean kernel CPU time over the run so far, in milliseconds."""
    if _PROBE is None:
        return float("nan")
    return 1e3 * float(np.mean(_PROBE.kernel_seconds))


def run_factor() -> float:
    """Reference over mean kernel time across the run so far (1.0 when
    no probe runs): scales times that are sums over many intervals."""
    if _PROBE is None:
        return 1.0
    return 1e3 * REFERENCE_KERNEL_S / kernel_ms()
