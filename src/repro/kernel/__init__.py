"""Compiled timing-graph kernel: plan once, evaluate many scenarios.

A plan/execute split for the propagation inner loops of the
reproduction (the Step-2 hierarchical walk, flat topological STA, and
the demand-driven timing graph):

* :mod:`~repro.kernel.plan` compiles a design or network into a
  :class:`CompiledGraph` of flat CSR arrays;
* :mod:`~repro.kernel.execute` evaluates a whole batch of arrival
  scenarios against the plan, vectorized with numpy when available and
  falling back to pure python otherwise;
* :mod:`~repro.kernel.graph` compiles the demand-driven timing graph
  with mutable edge weights and incremental (dirty-cone) re-propagation
  after each refinement;
* :mod:`~repro.kernel.design` wraps a plan in the reusable
  :class:`CompiledDesign` handle the batch API hands out; its results
  are :class:`RowView` s, read-only name -> time mappings over the rows
  of the executor's result matrix.

Every analysis propagates through this kernel.  Its results are
bit-identical to the plain per-node walks they replace (Step-2 min-max
over :meth:`~repro.core.timing_model.TimingModel.stable_time`, and
forward/backward graph STA) — the compiled paths perform the same
float64 additions, maxima, and minima on the same values.
"""

from repro.kernel.backend import (
    HAVE_NUMPY,
    NUMPY_MIN_LEVEL_TUPLES,
    numpy_or_none,
    pick_backend,
)
from repro.kernel.design import CompiledDesign, RowView
from repro.kernel.execute import NumpyExecutor, PythonExecutor, propagate_batch
from repro.kernel.graph import CompiledTimingGraph, GraphState
from repro.kernel.plan import CompiledGraph, compile_design, compile_network

__all__ = sorted(
    [
        "CompiledDesign",
        "CompiledGraph",
        "CompiledTimingGraph",
        "GraphState",
        "HAVE_NUMPY",
        "NUMPY_MIN_LEVEL_TUPLES",
        "NumpyExecutor",
        "PythonExecutor",
        "RowView",
        "compile_design",
        "compile_network",
        "numpy_or_none",
        "pick_backend",
        "propagate_batch",
    ]
)
