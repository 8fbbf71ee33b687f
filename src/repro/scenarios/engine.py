"""The family engine: stream a :class:`ScenarioFamily` through the kernel.

:func:`analyze_family` is the one evaluation path every family takes:

1. validate the family's arrival vector against the compiled design;
2. for each chunk of at most :data:`~repro.kernel.execute.CHUNK`
   members (the kernel's own chunk size), lower the chunk to
   per-member delay vectors (:meth:`ScenarioFamily.delay_rows`, drawn
   with numpy whenever it is installed) and evaluate it via
   :meth:`~repro.kernel.design.CompiledDesign.propagate` with the
   ``delays=`` override — the kernel picks the executor per chunk, and
   the handle's executor cache is reused across every chunk, so the
   per-level array setup is paid once per family;
3. fold each chunk into O(members + outputs) aggregates and drop it,
   keeping memory bounded regardless of sample count.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import AnalysisError
from repro.kernel import execute
from repro.kernel.backend import numpy_or_none, pick_backend
from repro.obs.trace import NULL_TRACER, Tracer
from repro.scenarios.families import ScenarioFamily
from repro.scenarios.result import (
    DETAIL_LIMIT,
    FamilyResult,
    MemberResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.design import CompiledDesign

NEG_INF = float("-inf")


def analyze_family(
    handle: "CompiledDesign",
    family: ScenarioFamily,
    *,
    tracer: Tracer = NULL_TRACER,
) -> FamilyResult:
    """Evaluate every member of ``family`` against a compiled design.

    Members are drawn and evaluated in chunks of
    :data:`~repro.kernel.execute.CHUNK`, which bounds the scenarios — and
    the sampled delay matrix — held in memory at once; the chunk size
    never changes an answer.  Returns the aggregated
    :class:`~repro.scenarios.result.FamilyResult`.
    """
    if not isinstance(family, ScenarioFamily):
        raise AnalysisError(
            "analyze_family needs a ScenarioFamily "
            f"(CornerSweep/ParametricSweep/MonteCarlo), "
            f"got {type(family).__name__}"
        )
    plan = handle.plan
    unknown = sorted(set(family.arrival) - set(handle.inputs))
    if unknown:
        raise AnalysisError(
            f"family arrival names unknown input {unknown[0]!r} "
            f"(design {plan.name!r})"
        )
    members = family.expand()
    count = len(members)
    # The sampler depends only on whether numpy is installed, so every
    # member's samples depend only on (seed, index), never on chunking.
    np = numpy_or_none()
    chunk = execute.CHUNK
    chosen = pick_backend()
    # A view holds a repeated output net once.
    outputs = tuple(dict.fromkeys(handle.outputs))
    n_out = len(outputs)
    detail = count <= DETAIL_LIMIT
    worst = [NEG_INF] * n_out
    critical_counts = [0] * n_out
    results: list[MemberResult] = []
    arrival = dict(family.arrival)
    t0 = time.perf_counter()
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        delays = family.delay_rows(plan, lo, hi, np)
        views = handle.propagate(
            [arrival] * (hi - lo),
            tracer=tracer,
            nets=outputs,
            delays=delays,
        )
        for member, view in zip(members[lo:hi], views):
            row = list(view.values())
            # The first output holding the largest time.
            best = row.index(max(row)) if n_out else 0
            critical_counts[best] += 1
            worst = [t if t > w else w for w, t in zip(worst, row)]
            results.append(
                MemberResult(
                    index=member.index,
                    label=member.label,
                    corner=member.corner,
                    params=member.params,
                    delay=row[best] if n_out else NEG_INF,
                    critical=outputs[best] if n_out else "",
                    arrivals=(
                        tuple(zip(outputs, row)) if detail else ()
                    ),
                )
            )
    seconds = time.perf_counter() - t0
    if tracer.enabled:
        tracer.event(
            "family-analyze",
            seconds=seconds,
            graph=plan.name,
            family=family.family,
            backend=chosen,
            members=count,
            throughput=(count / seconds if seconds > 0.0 else 0.0),
        )
        tracer.count("scenarios.families")
        tracer.count("scenarios.members", count)
        tracer.observe("scenarios.family_seconds", seconds)
    return FamilyResult(
        design=plan.name,
        kind=family.family,
        name=family.name,
        count=count,
        backend=chosen,
        seconds=seconds,
        outputs=tuple(outputs),
        members=tuple(results),
        worst=tuple(zip(outputs, worst)),
        criticality=tuple(
            (name, c / count if count else 0.0)
            for name, c in zip(outputs, critical_counts)
        ),
    )


__all__ = ["analyze_family"]
