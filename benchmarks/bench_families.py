"""Scenario-family benchmark: streamed batches vs a per-member loop.

The acceptance workload of the scenario-family subsystem: a 3-corner x
100-sample Monte-Carlo family (300 members) on the csa256.8 cascade,
evaluated three ways:

* ``analyze_family`` — the family engine: one backend pick, delay rows
  lowered per chunk, one output-filtered ``propagate`` call per chunk
  against the handle's cached executors;
* a *naive loop* — what a caller would write without the engine: for
  each member, sample/scale its delay vector and run one
  single-scenario ``propagate`` call (a single row with a delay
  override runs the numpy executor's level loop, and nothing
  amortizes across members);
* the same loop for a corner sweep and a parametric sweep, sized to
  the family's member count.

Results go to ``benchmarks/results/family_throughput.json`` with
``speedup``/``throughput`` keys tracked by ``tools/bench_compare.py``
against ``benchmarks/baselines/family_throughput.json``.  One guard is
asserted: the Monte-Carlo family must run at least 3x faster than the
naive per-member loop.

Run: pytest benchmarks/bench_families.py -q
"""

import json
import time
from pathlib import Path

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.kernel import HAVE_NUMPY
from repro.kernel.backend import numpy_or_none
from repro.scenarios import (
    Corner,
    CornerSweep,
    MonteCarlo,
    ParametricSweep,
    analyze_family,
)

RESULTS = Path(__file__).parent / "results" / "family_throughput.json"

CORNERS = (
    Corner("fast", 0.9),
    Corner("typ", 1.0),
    Corner("slow", 1.1),
)
SAMPLES = 100


def _min_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _naive_loop(handle, family):
    """Per-member evaluation without the engine: one sampled delay
    vector and one single-scenario propagate call per member."""
    np = numpy_or_none()
    outputs = handle.outputs
    arrival = dict(family.arrival)
    worst = []
    for m in range(family.count()):
        row = family.delay_rows(handle.plan, m, m + 1, np)
        arrivals = handle.propagate(
            [arrival], nets=outputs, delays=row[0]
        )[0]
        worst.append(max(arrivals.values()))
    return worst


def _bench_family(handle, family, label):
    engine = analyze_family(handle, family)
    naive = _naive_loop(handle, family)
    # same members, same math: identical worst delays before timing
    assert len(naive) == engine.count
    assert max(naive) == engine.delay
    t_engine = _min_time(lambda: analyze_family(handle, family))
    t_naive = _min_time(lambda: _naive_loop(handle, family))
    return {
        "family": label,
        "members": engine.count,
        "backend": engine.backend,
        "engine_s": t_engine,
        "naive_s": t_naive,
        "speedup": t_naive / t_engine,
        "throughput": engine.count / t_engine,
    }


def test_family_throughput():
    design = cascade_adder(256, 8)
    handle = AnalysisSession(design).compile()

    mc = MonteCarlo(SAMPLES, seed=1, sigma=0.05, corners=CORNERS)
    corner = CornerSweep(CORNERS)
    parametric = ParametricSweep(
        "x",
        [i / (len(CORNERS) * SAMPLES - 1) for i in range(len(CORNERS) * SAMPLES)],
        sensitivity=0.1,
    )

    records = [
        _bench_family(handle, mc, "monte-carlo"),
        _bench_family(handle, corner, "corner"),
        _bench_family(handle, parametric, "parametric"),
    ]
    payload = {
        "design": design.name,
        "instances": len(design.instances),
        "numpy": HAVE_NUMPY,
        "results": records,
    }
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(payload, indent=2) + "\n")

    mc_record = records[0]
    assert mc_record["speedup"] >= 3.0, (
        f"monte-carlo family speedup {mc_record['speedup']:.2f}x over "
        "the naive per-member loop is below the 3x floor"
    )
