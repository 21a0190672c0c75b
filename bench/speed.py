"""CPU speed reference, for request times that hold still on a shared host.

On a host whose cores are shared with other tenants the same request can
take 1.7x longer from one second to the next. SpeedSampler times a fixed
pure-Python kernel every PERIOD_S seconds from a SIGALRM handler while the
closed loop runs, so each request has speed samples taken during it. A
request's contention-corrected time is its measured time multiplied by the
mean over those samples of quiet_kernel_time / kernel_time, where the quiet
kernel time is the run's first percentile: the time the request would have
taken had the whole request run at the run's quietest speed. The factor
comes from the kernel alone, so a change in the program's own work moves
the corrected time in the same proportion as the measured one.

The kernel runs inside the program's calls, in the same interpreter: its
own time (about 0.1 ms per 20 ms period, some 0.5%) is part of every
measured and corrected time, and its allocations share the interpreter's
allocator, GC counters and caches with the program. That bias is the same
for every version of the program, so comparisons between versions keep it
out, but absolute times carry it. The report keeps the measured times and
the run's mean slowdown beside the corrected ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
QUIET_PERCENTILE = 1.0


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def kernel_seconds() -> float:
    """Time of a fixed ~0.1 ms interpreter workload: object creation, attribute
    reads, float arithmetic and dict stores, like the solver's inner loops."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(400):
        p = _Point(i * 0.5, i * 0.25)
        acc += p.a * 1.5 + p.b * 2.5 - (i & 7) * 0.1
        table[i & 31] = acc
    return time.perf_counter() - start


def median_kernel_s(repeats: int = 5) -> float:
    return float(np.median([kernel_seconds() for _ in range(repeats)]))


class SpeedSampler:
    """Kernel timings on a timer while active; corrects request times afterwards."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.kernel: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.kernel.append(kernel_seconds())
        self.stamps.append(time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def quiet_kernel_s(self) -> float:
        return float(np.percentile(self.kernel, QUIET_PERCENTILE))

    def corrected(self, spans: list[tuple[float, float]]) -> list[float]:
        """Contention-corrected durations of (start, end) perf_counter intervals
        that lie inside the sampled period. Samples within one period of an
        interval's ends count for it, so even a short request has one."""
        stamps = np.array(self.stamps)
        speed = self.quiet_kernel_s() / np.array(self.kernel)
        out = []
        for start, end in spans:
            lo, hi = np.searchsorted(stamps, [start - PERIOD_S, end + PERIOD_S])
            if lo == hi:  # the handler was held up: take the nearest samples
                lo, hi = max(lo - 1, 0), lo + 1
            out.append((end - start) * float(speed[lo:hi].mean()))
        return out

    def mean_slowdown(self) -> float:
        """Mean kernel time over the quiet kernel time: 1.0 on an idle host."""
        return float(np.mean(self.kernel)) / self.quiet_kernel_s()
