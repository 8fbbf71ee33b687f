"""SLO tracking: per-route latency objectives and burn-rate windows.

An SLO here is "fraction ``target`` of requests to ``route`` answer
within ``latency_objective`` seconds and without a server error".  The
tracker folds every served request into per-second buckets and answers
two questions the raw latency histograms cannot:

* **burn rate** — how fast the error budget is being consumed, per
  window: a burn rate of 1.0 means exactly the budget (``1 - target``)
  is being spent; 14.4 means the monthly budget would be gone in ~2
  days.  Computed over a short (default 5 min) and a long (default
  1 h) window, which is the standard multi-window alerting shape: the
  short window catches fast regressions, the long window confirms they
  are sustained rather than a blip.
* **verdict** — ``ok`` / ``warn`` / ``breach`` per route, surfaced on
  ``GET /healthz/slo``: *breach* when both windows burn at or above
  the fast-burn threshold, *warn* when the long window has consumed
  more than its share (burn ≥ 1).

Classification: a request is **bad** when its status is a server error
(>= 500) or its latency exceeds the objective; client errors (4xx) are
the caller's fault and do not count against the server's budget.

The tracker is thread-safe, O(1) per request, and bounded: buckets
older than the long window are pruned on every update.  The clock is
injectable so tests can replay traffic shapes deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

#: Default multi-window pair (seconds): 5 minutes and 1 hour.
SHORT_WINDOW = 300.0
LONG_WINDOW = 3600.0

#: Burn rate at or above which both windows must agree to call a
#: breach.  14.4 is the canonical "2% of a 30-day budget in one hour"
#: fast-burn threshold.
FAST_BURN = 14.4


@dataclass(frozen=True)
class SloObjective:
    """One route's objective: latency bound and success-rate target."""

    route: str
    #: Latency objective in seconds; slower (or 5xx) requests are bad
    #: (``inf`` = no latency bound, only 5xx responses are bad).
    latency_objective: float
    #: Target fraction of good requests (0 < target < 1).
    target: float = 0.999

    def __post_init__(self):
        if not self.latency_objective > 0:  # NaN fails every comparison
            raise ValueError(
                f"latency_objective must be > 0 seconds, got "
                f"{self.latency_objective}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction (``1 - target``)."""
        return 1.0 - self.target


class _RouteWindow:
    """Per-second (second, good, bad) buckets for one route, bounded
    to the long window."""

    __slots__ = ("buckets", "good_total", "bad_total")

    def __init__(self):
        self.buckets: deque[list] = deque()  # [epoch_second, good, bad]
        self.good_total = 0
        self.bad_total = 0

    def add(self, now: float, good: bool, horizon: float) -> None:
        second = int(now)
        if self.buckets and self.buckets[-1][0] == second:
            bucket = self.buckets[-1]
        else:
            bucket = [second, 0, 0]
            self.buckets.append(bucket)
        if good:
            bucket[1] += 1
            self.good_total += 1
        else:
            bucket[2] += 1
            self.bad_total += 1
        self.prune(now, horizon)

    def prune(self, now: float, horizon: float) -> None:
        floor = int(now) - int(horizon)
        while self.buckets and self.buckets[0][0] < floor:
            _, good, bad = self.buckets.popleft()
            self.good_total -= good
            self.bad_total -= bad

    def counts(self, now: float, window: float) -> tuple[int, int]:
        """(good, bad) within the trailing ``window`` seconds."""
        floor = int(now) - int(window)
        good = bad = 0
        for second, g, b in reversed(self.buckets):
            if second < floor:
                break
            good += g
            bad += b
        return good, bad


class SloTracker:
    """Folds served requests into per-route burn-rate windows.

    Parameters
    ----------
    objectives:
        The routes to track.  Requests to routes without an objective
        are ignored.
    short_window / long_window:
        The multi-window pair, in seconds.
    fast_burn:
        Burn-rate threshold for the breach verdict.
    clock:
        Unix-time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        objectives: list[SloObjective] | tuple[SloObjective, ...] = (),
        *,
        short_window: float = SHORT_WINDOW,
        long_window: float = LONG_WINDOW,
        fast_burn: float = FAST_BURN,
        clock=time.time,
    ):
        if short_window <= 0 or long_window < short_window:
            raise ValueError(
                "need 0 < short_window <= long_window, got "
                f"{short_window}/{long_window}"
            )
        self.objectives: dict[str, SloObjective] = {
            o.route: o for o in objectives
        }
        self.short_window = float(short_window)
        self.long_window = float(long_window)
        self.fast_burn = float(fast_burn)
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: dict[str, _RouteWindow] = {
            route: _RouteWindow() for route in self.objectives
        }

    @property
    def enabled(self) -> bool:
        return bool(self.objectives)

    # --------------------------------------------------------------- feeding
    def observe(
        self, route: str, status: int, latency_seconds: float
    ) -> None:
        """Fold one served request in; no-op for untracked routes.

        Bad = server error (5xx) or latency over the objective; 4xx
        responses count as good (the budget protects against *our*
        failures, not malformed requests).
        """
        objective = self.objectives.get(route)
        if objective is None:
            return
        good = status < 500 and (
            latency_seconds <= objective.latency_objective
        )
        now = self._clock()
        with self._lock:
            self._windows[route].add(now, good, self.long_window)

    # -------------------------------------------------------------- reporting
    def burn_rates(self, route: str) -> dict:
        """Both windows' burn rates for one tracked route."""
        objective = self.objectives[route]
        now = self._clock()
        with self._lock:
            window = self._windows[route]
            window.prune(now, self.long_window)
            short_good, short_bad = window.counts(now, self.short_window)
            long_good, long_bad = window.counts(now, self.long_window)

        def burn(good: int, bad: int) -> float:
            total = good + bad
            if total == 0:
                return 0.0
            return (bad / total) / objective.error_budget

        return {
            "route": route,
            "objective_ms": round(objective.latency_objective * 1e3, 3),
            "target": objective.target,
            "short_window_seconds": self.short_window,
            "long_window_seconds": self.long_window,
            "short_total": short_good + short_bad,
            "short_bad": short_bad,
            "short_burn": burn(short_good, short_bad),
            "long_total": long_good + long_bad,
            "long_bad": long_bad,
            "long_burn": burn(long_good, long_bad),
        }

    def verdict(self, route: str) -> dict:
        """Burn rates plus the ok/warn/breach classification."""
        rates = self.burn_rates(route)
        if (
            rates["short_burn"] >= self.fast_burn
            and rates["long_burn"] >= self.fast_burn
        ):
            state = "breach"
        elif rates["long_burn"] >= 1.0 or rates["short_burn"] >= (
            self.fast_burn
        ):
            state = "warn"
        else:
            state = "ok"
        rates["state"] = state
        return rates

    def report(self) -> dict:
        """Every route's verdict plus the aggregate health state.

        The ``GET /healthz/slo`` payload: ``state`` is the worst
        per-route state (breach > warn > ok).
        """
        routes = {
            route: self.verdict(route) for route in self.objectives
        }
        order = {"ok": 0, "warn": 1, "breach": 2}
        worst = max(
            (v["state"] for v in routes.values()),
            key=lambda s: order[s],
            default="ok",
        )
        return {
            "state": worst,
            "fast_burn_threshold": self.fast_burn,
            "routes": routes,
        }

    def export_gauges(self, metrics) -> None:
        """Mirror burn rates into gauges on a
        :class:`~repro.obs.metrics.Metrics` registry (called before
        each ``/metrics`` render so scrapes see fresh values)."""
        for route in self.objectives:
            rates = self.burn_rates(route)
            stem = "slo." + route.strip("/").replace("/", "_")
            metrics.gauge(stem + ".short_burn").set(rates["short_burn"])
            metrics.gauge(stem + ".long_burn").set(rates["long_burn"])
            metrics.gauge(stem + ".short_bad").set(rates["short_bad"])
            metrics.gauge(stem + ".long_bad").set(rates["long_bad"])


def parse_slo_spec(
    spec: str, target: float = 0.999
) -> SloObjective:
    """``ROUTE=MILLIS`` (e.g. ``/analyze=250``) → :class:`SloObjective`.

    The CLI's ``--slo`` argument format; ``target`` comes from the
    separate ``--slo-target`` flag.
    """
    route, sep, millis = spec.partition("=")
    route = route.strip()
    if not sep or not route.startswith("/"):
        raise ValueError(
            f"SLO spec must look like /route=milliseconds, got {spec!r}"
        )
    try:
        latency = float(millis) / 1e3
    except ValueError:
        raise ValueError(
            f"SLO spec has a non-numeric latency: {spec!r}"
        ) from None
    return SloObjective(
        route=route.rstrip("/") or "/",
        latency_objective=latency,
        target=target,
    )


__all__ = [
    "FAST_BURN",
    "LONG_WINDOW",
    "SHORT_WINDOW",
    "SloObjective",
    "SloTracker",
    "parse_slo_spec",
]
