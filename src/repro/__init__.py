"""repro: hierarchical functional timing analysis under the XBD0 model.

Reproduction of Kukimoto & Brayton, "Hierarchical Functional Timing
Analysis", DAC 1998.

Quick start::

    from repro import carry_skip_block, cascade_adder
    from repro import StabilityAnalyzer, HierarchicalAnalyzer

    block = carry_skip_block(2)                      # the paper's Figure 1
    HierarchicalAnalyzer(cascade_adder(16, 2)).analyze().delay

The public API re-exports the main types; subpackages hold the substrates:

* :mod:`repro.netlist`  — gates, networks, hierarchy
* :mod:`repro.parsers`  — ISCAS .bench and BLIF
* :mod:`repro.sat`      — CDCL solver, incremental sessions + Tseitin
  encoding
* :mod:`repro.bdd`      — ROBDD package
* :mod:`repro.sim`      — timed (XBD0 oracle) and waveform simulation
* :mod:`repro.sta`      — topological STA + path-length machinery
* :mod:`repro.core`     — XBD0 engine, required times, hierarchical and
  demand-driven analysis
* :mod:`repro.kernel`   — compiled timing-graph kernel: plan/execute
  split with batched (numpy-vectorized) multi-scenario propagation
* :mod:`repro.library`  — persistent content-addressed model library with
  parallel leaf characterization
* :mod:`repro.circuits` — benchmark generators and partitioning
* :mod:`repro.bench`    — table/figure regenerators
* :mod:`repro.scenarios` — declarative scenario specs and families
  (corner sweeps, parametric delays, Monte-Carlo SSTA)
* :mod:`repro.obs`      — tracer, metrics, and sinks (observability)
* :mod:`repro.resilience` — deadlines, fault-tolerant execution, and
  conservative degradation (fail-safe analysis)
* :mod:`repro.api`      — :class:`AnalysisSession` facade +
  :class:`AnalysisOptions`
"""

from repro.api import AnalysisOptions, AnalysisSession
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.core.batch import BatchResult, ScenarioResult
from repro.core.budget import input_budgets
from repro.core.conditional import ConditionalAnalyzer
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.core.required import characterize_network, characterize_output
from repro.core.timing_model import TimingModel
from repro.core.xbd0 import StabilityAnalyzer, circuit_delay, functional_delays
from repro.kernel.design import CompiledDesign
from repro.library.store import ModelLibrary
from repro.netlist.hierarchy import HierDesign, Instance, Module
from repro.netlist.network import Gate, GateType, Network
from repro.obs import Metrics, Tracer
from repro.resilience import Degradation, FaultPlan
from repro.sat import IncrementalSolver
from repro.scenarios import (
    Corner,
    CornerSweep,
    FamilyResult,
    MonteCarlo,
    ParametricSweep,
    Scenario,
    ScenarioFamily,
    ScenarioSet,
    ScenarioSpec,
    analyze_family,
)
from repro.seq.circuit import Flop, SequentialCircuit

__version__ = "1.24.0"

__all__ = [
    "AnalysisOptions",
    "AnalysisSession",
    "BatchResult",
    "CompiledDesign",
    "ConditionalAnalyzer",
    "Corner",
    "CornerSweep",
    "Degradation",
    "DemandDrivenAnalyzer",
    "FamilyResult",
    "FaultPlan",
    "Flop",
    "Gate",
    "GateType",
    "HierDesign",
    "HierarchicalAnalyzer",
    "IncrementalAnalyzer",
    "IncrementalSolver",
    "Instance",
    "Metrics",
    "ModelLibrary",
    "Module",
    "MonteCarlo",
    "Network",
    "ParametricSweep",
    "Scenario",
    "ScenarioFamily",
    "ScenarioResult",
    "ScenarioSet",
    "ScenarioSpec",
    "SequentialCircuit",
    "StabilityAnalyzer",
    "TimingModel",
    "Tracer",
    "analyze_family",
    "carry_skip_block",
    "cascade_adder",
    "characterize_network",
    "characterize_output",
    "circuit_delay",
    "flat_functional_delay",
    "functional_delays",
    "input_budgets",
    "__version__",
]
