"""Stress drills for the fail-safe engine.

Two attack surfaces that unit tests cannot cover:

* many *processes* hammering one on-disk model library — the fsync'd
  atomic writes and ``fcntl`` locking must keep every entry readable;
* randomized fault injection over randomized circuits — under any
  mix of refinement/characterization faults the degraded arrival times
  must bound the fault-free exact ones from above (Theorem 1).
"""

from __future__ import annotations

import json
import multiprocessing
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.library.store import ModelLibrary
from repro.resilience import FaultPlan


def _hammer(cache_dir: str, bits: int) -> None:
    """One contender: analyze a design through the shared cache dir."""
    from repro.core.hier import HierarchicalAnalyzer
    from repro.library.store import ModelLibrary

    design = cascade_adder(bits, 2)
    library = ModelLibrary(cache_dir)
    result = HierarchicalAnalyzer(design, library=library).analyze()
    if not result.output_times:
        sys.exit(3)


@pytest.mark.slow
def test_multiprocess_cache_hammer(tmp_path):
    """Concurrent writers/readers never corrupt or lose cache entries."""
    cache = tmp_path / "cache"
    ctx = multiprocessing.get_context("fork")
    # Mixed workloads: same signatures collide on the same entry files,
    # different bit widths add writer/writer and writer/reader overlap.
    workers = [
        ctx.Process(target=_hammer, args=(str(cache), bits))
        for bits in (4, 4, 6, 6, 4)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in workers)

    entries = list(cache.glob("*.json"))
    assert entries  # something was persisted
    for entry in entries:  # and every survivor decodes
        json.loads(entry.read_text())
    assert not (cache / "quarantine").exists()

    # A cold library sees only clean entries: hits, no re-characterization.
    library = ModelLibrary(cache)
    HierarchicalAnalyzer(cascade_adder(4, 2), library=library).analyze()
    assert library.stats.disk_hits >= 1
    assert library.stats.corrupt_entries == 0
    assert library.stats.quarantined == 0
    assert library.stats.characterizations == 0


def _bipartition(seed: int, num_gates: int):
    net = random_network(4, num_gates, seed=seed, name=f"rnd{seed}")
    return cascade_bipartition(net, name=f"rnd{seed}.hier")


@pytest.mark.faulty
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_gates=st.integers(8, 24),
    faults=st.integers(1, 6),
)
def test_demand_faults_stay_conservative(seed, num_gates, faults):
    """Injected refinement faults never make an arrival time optimistic."""
    exact = DemandDrivenAnalyzer(_bipartition(seed, num_gates)).analyze()
    plan = FaultPlan().add("demand.refine", "exception", times=faults)
    degraded = DemandDrivenAnalyzer(
        _bipartition(seed, num_gates),
        options=AnalysisOptions(fault_plan=plan),
    ).analyze()
    assert degraded.delay <= degraded.topological_delay
    for out, t in exact.arrival_times.items():
        assert degraded.arrival_times[out] >= t


@pytest.mark.faulty
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), num_gates=st.integers(8, 20))
def test_characterization_faults_stay_conservative(seed, num_gates):
    """Poisoned characterization degrades to topological, never below."""
    exact = HierarchicalAnalyzer(_bipartition(seed, num_gates)).analyze()
    plan = FaultPlan().add("scheduler.serial", "exception", times=-1)
    degraded = HierarchicalAnalyzer(
        _bipartition(seed, num_gates),
        options=AnalysisOptions(fault_plan=plan),
    ).analyze()
    assert degraded.degradations
    for out, t in exact.arrival_times.items():
        assert degraded.arrival_times[out] >= t
