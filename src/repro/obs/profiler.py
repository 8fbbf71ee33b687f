"""Sampling profiler: periodic stack capture, collapsed-stack output.

A :class:`SamplingProfiler` runs a daemon thread that wakes at a fixed
rate (default 0 — off) and snapshots every Python thread's stack via
``sys._current_frames()``.  Each observed stack is folded into a
``frame;frame;frame -> count`` table, the *collapsed stack* format that
flamegraph tooling (Brendan Gregg's ``flamegraph.pl``, speedscope,
inferno) consumes directly.

This is a statistical profiler: per-sample cost is one dictionary walk
plus a handful of string joins, so it can run against a live server
(``serve --sample-hz 97``) without the 2-10x slowdown of a tracing
profiler.  Accuracy comes from sample count, not per-call hooks.

Design notes:

* The sampler skips its own thread, so the profile shows only the work
  under test.
* Frames are rendered ``module:function`` (file basename when the
  module is unknown), innermost frame *last* — the flamegraph
  convention of root-first stacks.
* The default rate of 97 Hz (when enabled without an explicit rate) is
  prime, so sampling does not phase-lock with common 10/100 Hz
  periodic work and systematically miss it.
* ``snapshot()``/``collapsed()`` are safe to call while sampling is
  running: the fold table is lock-protected.

The server exposes the live profile at ``GET /debug/profile``
(``?format=json`` for structured output); the profiler is **off by
default** and costs nothing until started.
"""

from __future__ import annotations

import sys
import threading
import time

#: Default sampling rate when enabled without an explicit rate.  Prime,
#: to avoid phase-locking with periodic work.
DEFAULT_HZ = 97.0


def format_frame(frame) -> str:
    """``module:function`` for one frame (file basename fallback)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__")
    if not module:
        filename = code.co_filename.replace("\\", "/")
        module = filename.rsplit("/", 1)[-1]
    return f"{module}:{code.co_name}"


def collapse_frames(frame) -> str:
    """The full stack of ``frame`` as a collapsed-stack key.

    Root-first, semicolon-joined: ``app:serve;kernel:evaluate;...``.
    """
    parts: list[str] = []
    while frame is not None:
        parts.append(format_frame(frame))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Background statistical profiler over ``sys._current_frames()``.

    Parameters
    ----------
    hz:
        Samples per second.  Must be positive and finite; rates above
        ~1000 are clamped by the sleep granularity of the host.
    clock:
        Monotonic time source for the duty-cycle accounting.
    """

    def __init__(self, hz: float = DEFAULT_HZ, clock=time.perf_counter):
        if not 0 < hz < float("inf"):  # NaN fails every comparison
            raise ValueError(
                f"sampling rate must be a finite rate > 0 Hz, got {hz}"
            )
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Total samples taken (one per thread per tick).
        self.samples = 0
        #: Sampler ticks (wakeups) performed.
        self.ticks = 0
        #: Monotonic time the profiler started, 0.0 before start.
        self.started_at = 0.0
        #: Seconds spent inside the sampling body (duty accounting).
        self.sample_seconds = 0.0

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # --------------------------------------------------------------- control
    def start(self) -> "SamplingProfiler":
        """Start the sampler thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------------- sampling
    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            self.sample_once(skip={own_id})

    def sample_once(self, skip: set[int] | None = None) -> int:
        """Take one sample of every live thread; returns stacks folded.

        Exposed for deterministic tests — production use goes through
        :meth:`start`.
        """
        t0 = self._clock()
        frames = sys._current_frames()
        folded = 0
        skip = skip or set()
        with self._lock:
            self.ticks += 1
            for thread_id, frame in frames.items():
                if thread_id in skip:
                    continue
                key = collapse_frames(frame)
                if not key:
                    continue
                self._stacks[key] = self._stacks.get(key, 0) + 1
                self.samples += 1
                folded += 1
            self.sample_seconds += self._clock() - t0
        return folded

    # ------------------------------------------------------------- reporting
    def collapsed(self, limit: int | None = None) -> str:
        """The profile in collapsed-stack text: ``stack count`` lines,
        hottest first — pipe straight into flamegraph tooling."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        if limit is not None:
            items = items[: max(0, int(limit))]
        return "\n".join(f"{stack} {count}" for stack, count in items) + (
            "\n" if items else ""
        )

    def snapshot(self, limit: int = 50) -> dict:
        """Structured profile (the ``/debug/profile?format=json`` body)."""
        with self._lock:
            stacks = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
            samples = self.samples
            ticks = self.ticks
            sample_seconds = self.sample_seconds
        elapsed = (
            self._clock() - self.started_at if self.started_at else 0.0
        )
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": samples,
            "ticks": ticks,
            "distinct_stacks": len(stacks),
            "elapsed_seconds": round(elapsed, 3),
            "sampler_duty": round(
                sample_seconds / elapsed if elapsed > 0 else 0.0, 6
            ),
            "hot_stacks": [
                {
                    "stack": stack,
                    "count": count,
                    "fraction": round(count / samples, 4)
                    if samples
                    else 0.0,
                }
                for stack, count in stacks[: max(0, int(limit))]
            ],
        }

    def reset(self) -> None:
        """Drop accumulated stacks and counters (keeps running state)."""
        with self._lock:
            self._stacks.clear()
            self.samples = 0
            self.ticks = 0
            self.sample_seconds = 0.0
            if self.running:
                self.started_at = self._clock()


__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "collapse_frames",
    "format_frame",
]
