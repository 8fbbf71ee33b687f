"""Deterministic fault injection for the fail-safe analysis stack.

Production code exposes *trace points* — named call sites that consult
the active :class:`FaultPlan` before doing real work:

========================  =====================================================
point                     where it fires
========================  =====================================================
``scheduler.task``        inside a characterization worker (parallel path)
``scheduler.serial``      before an in-process characterization task (every
                          ``jobs=1`` run, and the parallel path's fallback)
``demand.refine``         before a Section-5 refinement stability check
``store.read``            before decoding an on-disk library entry
``store.corrupt``         after a library store (``corrupt`` garbles the file)
``server.compile``        before the server compiles a registered design
``server.propagate``      before a served kernel evaluation
``coalescer.flush``       at the top of every coalescer batch flush
========================  =====================================================

A rule naming any other point is rejected (see :data:`POINTS`).  The
two scheduler points fire once per output cone, with the context
``module=<owner>, output=<output>``: a ``module=`` rule matches every
cone of its module (or instance), ``output=`` narrows it to one cone.

A plan is a list of :class:`FaultRule` entries; each names a point, a
fault ``kind`` (``exception``, ``crash``, ``timeout``, ``interrupt``,
``corrupt``), an optional context match (e.g. ``module="blk2"``), and a
firing budget (``times``; ``-1`` = every time — a *poison* subject).
Matching is by insertion order and decrements the budget at *take* time,
so a run is exactly reproducible: the N-th matching call fails, its
retry (a fresh take) succeeds once the budget is spent.

Worker processes cannot share the parent's plan object; the scheduler
therefore *takes* a serializable directive in the parent and ships it
inside the task payload (:meth:`FaultPlan.directive` +
:func:`execute_directive`).  A ``crash`` directive calls ``os._exit``
only inside a real worker process — executed in-process it raises
:class:`InjectedFault` instead, so the serial fallback can never take
down the interpreter.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError

#: Serializable fault directive: ``(kind, seconds, message)``.
Directive = tuple[str, float, str]

#: Fault kinds understood by :func:`execute_directive`.
KINDS = ("exception", "crash", "timeout", "interrupt", "corrupt")

#: Trace points production code fires (the module docstring's table).
POINTS = (
    "scheduler.task",
    "scheduler.serial",
    "demand.refine",
    "store.read",
    "store.corrupt",
    "server.compile",
    "server.propagate",
    "coalescer.flush",
)


class InjectedFault(ReproError):
    """The failure raised by an ``exception`` (or in-process ``crash``)
    fault directive."""


@dataclass
class FaultRule:
    """One injection rule of a :class:`FaultPlan`."""

    #: Trace point this rule arms (see :data:`POINTS`).
    point: str
    #: Fault kind (see :data:`KINDS`).
    kind: str = "exception"
    #: Remaining firings; ``-1`` fires forever (a poison subject).
    times: int = 1
    #: Context keys that must equal the call's context to match.
    match: Mapping[str, str] = field(default_factory=dict)
    #: Sleep length of a ``timeout`` fault.
    seconds: float = 0.25
    #: Message carried by the raised :class:`InjectedFault`.
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of "
                f"{POINTS}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )

    def matches(self, point: str, ctx: Mapping[str, object]) -> bool:
        """True when this rule is armed for ``point`` under ``ctx``."""
        if point != self.point or self.times == 0:
            return False
        return all(
            str(ctx.get(key)) == str(value)
            for key, value in self.match.items()
        )

    def directive(self) -> Directive:
        """This rule as a picklable worker directive."""
        return (self.kind, self.seconds, self.message)


class FaultPlan:
    """An ordered set of fault rules plus an audit log of firings."""

    def __init__(self, rules: tuple[FaultRule, ...] | list[FaultRule] = ()):
        self.rules: list[FaultRule] = list(rules)
        #: Every take, as ``(point, ctx, kind)`` — the reproducibility log.
        self.fired: list[tuple[str, dict, str]] = []

    def add(
        self,
        point: str,
        kind: str = "exception",
        times: int = 1,
        seconds: float = 0.25,
        message: str = "injected fault",
        **match: str,
    ) -> "FaultPlan":
        """Append one rule; returns ``self`` for chaining."""
        self.rules.append(
            FaultRule(
                point=point,
                kind=kind,
                times=times,
                match=match,
                seconds=seconds,
                message=message,
            )
        )
        return self

    def take(self, point: str, **ctx) -> FaultRule | None:
        """The first matching armed rule, with its budget decremented."""
        for rule in self.rules:
            if rule.matches(point, ctx):
                if rule.times > 0:
                    rule.times -= 1
                self.fired.append((point, dict(ctx), rule.kind))
                return rule
        return None

    def directive(self, point: str, **ctx) -> Directive | None:
        """Serializable directive for a worker payload (or ``None``)."""
        rule = self.take(point, **ctx)
        return None if rule is None else rule.directive()

    def fire(self, point: str, **ctx) -> None:
        """Execute the matching fault in-process (no-op when unarmed)."""
        rule = self.take(point, **ctx)
        if rule is not None:
            execute_directive(rule.directive())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan({len(self.rules)} rules, {len(self.fired)} fired)"
        )


def in_worker_process() -> bool:
    """True when running inside a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


def execute_directive(directive: Directive | None) -> None:
    """Carry out one fault directive at a trace point.

    ``crash`` hard-kills the current *worker* process (producing a real
    ``BrokenProcessPool`` in the parent); executed in the main process it
    raises :class:`InjectedFault` instead.  ``timeout`` sleeps (the
    parent's per-task timeout then fires).  ``corrupt`` is a data fault,
    acted on by the store itself, so here it raises like ``exception``.
    """
    if directive is None:
        return
    kind, seconds, message = directive
    if kind == "timeout":
        time.sleep(seconds)
        return
    if kind == "interrupt":
        raise KeyboardInterrupt(message)
    if kind == "crash" and in_worker_process():
        os._exit(86)
    raise InjectedFault(message)


def parse_fault_spec(spec: str) -> FaultRule:
    """Parse one ``--inject`` CLI spec into a :class:`FaultRule`.

    Format: ``POINT:KIND[:TIMES[:KEY=VAL[,KEY=VAL...]]]`` — e.g.
    ``scheduler.task:crash:2`` (first two worker tasks crash) or
    ``scheduler.task:crash:-1:module=blk2`` (``blk2`` is poison).
    """
    parts = spec.split(":")
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ReproError(
            f"bad fault spec {spec!r}; expected POINT:KIND[:TIMES[:K=V,...]]"
        )
    point, kind = parts[0], parts[1]
    times = 1
    if len(parts) > 2 and parts[2]:
        try:
            times = int(parts[2])
        except ValueError:
            raise ReproError(
                f"bad fault times in {spec!r}; expected an integer"
            ) from None
    match: dict[str, str] = {}
    if len(parts) > 3 and parts[3]:
        for pair in parts[3].split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ReproError(
                    f"bad fault match {pair!r} in {spec!r}; expected K=V"
                )
            match[key] = value
    try:
        return FaultRule(point=point, kind=kind, times=times, match=match)
    except ValueError as exc:
        raise ReproError(str(exc)) from None
