"""Machine-speed normalization for timings taken on a shared host.

On a host shared with other tenants the same pure-Python work runs up to
2x slower for stretches of seconds to minutes, so raw times of one
workload spread by 15-25% from run to run.  A :class:`Speedometer` runs
a fixed calibration snippet from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds, including in the middle of long program calls,
and records how long it took.  :func:`slowdown` turns the samples taken
while an operation ran into the machine's slowdown over that window
relative to ``REFERENCE_S``; an operation's time divided by it is its
time at the reference speed.  The README records the runs that show it
steadies the ledger's metrics and that a 3M-object program heap leaves
the snippet's time unchanged.

Samples use ``time.perf_counter`` (the system-wide monotonic clock on
Linux), so one process can normalize with another's samples.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds the calibration snippet takes at the reference speed (its
#: time in the fast regime of the 2-core host the bounds were set on).
REFERENCE_S = 5.0e-4
INTERVAL_S = 0.05
#: Samples used when fewer than this many fall inside a window: about a
#: second around it, shorter than the host's speed regimes.
NEAREST = 20


def snippet(n: int = 2000) -> int:
    """Fixed interpreter work: dict, list and tuple traffic, then a sort."""
    table: dict[int, int] = {}
    acc = []
    for i in range(n):
        k = i & 255
        table[k] = table.get(k, 0) + 1
        acc.append((k, i))
    acc.sort()
    return len(acc)


class Speedometer:
    """Samples the snippet's duration every ``INTERVAL_S`` seconds.

    Signal handlers run in the main thread between bytecodes, so samples
    keep coming while the program is inside one long call.  ``spent`` is
    the total wall time the handler took, for subtracting from
    measurements.  With a ``ledger`` (a traced run) each sample is a
    ``bench.speed`` span, so it stays out of the self time of the layer
    span it interrupts.
    """

    def __init__(self, ledger=None):
        #: (start time, seconds) per sample, in time order.
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.ledger = ledger
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, _signum, _frame) -> None:
        span = self.ledger.enter("bench.speed") if self.ledger else None
        t0 = time.perf_counter()
        # Thread CPU time: in a threaded server the handler can be made
        # to wait for the interpreter lock, which is not machine speed.
        c0 = time.thread_time()
        snippet()
        self.samples.append((t0, time.thread_time() - c0))
        self.spent += time.perf_counter() - t0
        if span is not None:
            self.ledger.exit(span)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def slowdown(samples: list, t0: float, t1: float) -> float:
    """Mean machine slowdown over ``[t0, t1]`` against the reference.

    The mean of the snippet times sampled in the window with the top and
    bottom tenth dropped (a sample can catch a page fault or, in a
    threaded server, a lock hand-off), or of the ``NEAREST`` samples
    around the window when fewer fall inside it.
    """
    if not samples:
        return 1.0
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
    if hi - lo < NEAREST:
        mid = bisect.bisect_left(times, (t0 + t1) / 2)
        lo = max(0, min(mid - NEAREST // 2, len(samples) - NEAREST))
        hi = min(len(samples), lo + NEAREST)
    window = sorted(s for _, s in samples[lo:hi])
    cut = len(window) // 10
    return statistics.fmean(window[cut:len(window) - cut]) / REFERENCE_S
