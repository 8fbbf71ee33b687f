"""The *execute* half of the kernel: batched min-max propagation.

Evaluates a :class:`~repro.kernel.plan.CompiledGraph` for a batch of
arrival-time scenarios at once.  Two executors share the plan:

* :class:`NumpyExecutor` — one ``(scenarios, nets)`` float64 matrix;
  each node is one gather + ``maximum.reduceat`` (max over each tuple's
  entries) + ``min`` (over tuples) across the whole batch.
* :class:`PythonExecutor` — the same flat-array walk in pure python,
  used when numpy is absent or the batch is too small to amortize
  per-node numpy call overhead.

Both are bit-identical to a per-node
:meth:`~repro.core.timing_model.TimingModel.stable_time` walk: identical
float64 additions, maxima, and minima over identical values (addition and
max/min are order-insensitive for non-NaN floats, and the compiler
rejects NaN/``+inf`` delays).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.kernel.backend import numpy_or_none, pick_backend
from repro.kernel.plan import CompiledGraph
from repro.obs.trace import NULL_TRACER, Tracer

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Scenarios per vectorized chunk: bounds the working-set matrix of one
#: :func:`propagate_batch` call to ``CHUNK × nets`` floats.  Read at call
#: time; chunking never changes an answer.
CHUNK = 256


def delay_form(delays) -> str:
    """Classify a ``delays`` override: ``none``, ``shared``, or ``rows``.

    ``shared`` is one per-entry delay vector applied to every scenario
    (a corner); ``rows`` is one vector per scenario (parametric grids,
    Monte-Carlo samples).  Accepts lists/tuples and numpy arrays.
    """
    if delays is None:
        return "none"
    ndim = getattr(delays, "ndim", None)
    if ndim is not None:
        if ndim == 1:
            return "shared"
        if ndim == 2:
            return "rows"
        raise ValueError(f"delays array must be 1-D or 2-D, got {ndim}-D")
    if len(delays) and hasattr(delays[0], "__len__"):
        return "rows"
    return "shared"


class PythonExecutor:
    """Pure-python flat-array executor (no dependencies)."""

    def __init__(self, plan: CompiledGraph):
        self.plan = plan
        # Plain lists index faster than tuples under CPython.
        self._tup_start = list(plan.tup_start)
        self._ent_start = list(plan.ent_start)
        self._ent_src = list(plan.ent_src)
        self._ent_delay = list(plan.ent_delay)

    def propagate(
        self,
        rows: Sequence[Sequence[float]],
        delays=None,
    ) -> list[list[float]]:
        """Net values per scenario.

        ``rows`` holds one arrival vector per scenario, aligned with
        ``plan.nets[:plan.n_inputs]``; the result rows are aligned with
        ``plan.nets``.  ``delays`` optionally overrides the plan's entry
        delays: one vector (aligned with ``plan.ent_delay``) shared by
        every scenario, or one vector per scenario.  The override path
        performs the identical float64 additions, so a vector equal to
        ``plan.ent_delay`` is bit-identical to no override.  A numpy
        override is read as plain floats, so every result is a ``float``.
        """
        if hasattr(delays, "tolist"):
            delays = delays.tolist()
        plan = self.plan
        n_inputs = plan.n_inputs
        n_nodes = plan.n_nodes
        n_entries = len(self._ent_src)
        tup_start = self._tup_start
        ent_start = self._ent_start
        ent_src = self._ent_src
        form = delay_form(delays)
        shared = self._ent_delay if form == "none" else (
            delays if form == "shared" else None
        )
        if shared is not None and len(shared) != n_entries:
            raise ValueError(
                f"delay override has {len(shared)} entries, "
                f"plan has {n_entries}"
            )
        if form == "rows" and len(delays) != len(rows):
            raise ValueError(
                f"{len(delays)} delay rows for {len(rows)} scenarios"
            )
        out: list[list[float]] = []
        for r, row in enumerate(rows):
            values = [float(v) for v in row]
            if len(values) != n_inputs:
                raise ValueError(
                    f"arrival row has {len(values)} entries, "
                    f"plan has {n_inputs} inputs"
                )
            if shared is not None:
                ent_delay = shared
            else:
                ent_delay = delays[r]
                if len(ent_delay) != n_entries:
                    raise ValueError(
                        f"delay row {r} has {len(ent_delay)} entries, "
                        f"plan has {n_entries}"
                    )
            values.extend([0.0] * n_nodes)
            for k in range(n_nodes):
                ts, te = tup_start[k], tup_start[k + 1]
                if ts == te:
                    values[n_inputs + k] = NEG_INF
                    continue
                best = POS_INF
                for t in range(ts, te):
                    worst = NEG_INF
                    for e in range(ent_start[t], ent_start[t + 1]):
                        term = values[ent_src[e]] + ent_delay[e]
                        if term > worst:
                            worst = term
                    if worst < best:
                        best = worst
                values[n_inputs + k] = best
            out.append(values)
        return out


class NumpyExecutor:
    """Numpy-vectorized executor: one matrix op sequence per node,
    covering every scenario in the batch at once."""

    def __init__(self, plan: CompiledGraph):
        np = numpy_or_none()
        if np is None:  # pragma: no cover - guarded by pick_backend
            raise RuntimeError("numpy is not installed")
        self._np = np
        self.plan = plan
        # Per node: (net index, entry srcs, entry delays, tuple bounds,
        # entry slice lo/hi) with bounds relative to the node's entry
        # slice, ready for maximum.reduceat; lo/hi index into the full
        # entry array for delay overrides; constants carry None.
        self._nodes = []
        self._n_entries = len(plan.ent_delay)
        for k in range(plan.n_nodes):
            idx = plan.n_inputs + k
            ts, te = plan.tup_start[k], plan.tup_start[k + 1]
            if ts == te:
                self._nodes.append((idx, None, None, None, 0, 0))
                continue
            lo, hi = plan.ent_start[ts], plan.ent_start[te]
            srcs = np.asarray(plan.ent_src[lo:hi], dtype=np.int64)
            delays = np.asarray(plan.ent_delay[lo:hi], dtype=np.float64)
            bounds = np.asarray(
                [plan.ent_start[t] - lo for t in range(ts, te)],
                dtype=np.int64,
            )
            self._nodes.append((idx, srcs, delays, bounds, lo, hi))

    def propagate(
        self,
        rows: Sequence[Sequence[float]],
        delays=None,
    ):
        """Net values per scenario, as one float64 array.

        The array is ``(scenarios, nets)``; otherwise the contract is the
        python path's.

        ``delays`` mirrors :meth:`PythonExecutor.propagate`: ``None``
        uses the plan's cached per-node arrays; a 1-D ``(n_entries,)``
        vector is shared across the batch; a 2-D ``(batch, n_entries)``
        matrix gives each scenario its own delays (broadcast against the
        gathered source values, so the float64 op sequence per element
        is unchanged).
        """
        np = self._np
        plan = self.plan
        batch = len(rows)
        override = None
        if delays is not None:
            override = np.asarray(delays, dtype=np.float64)
            if override.ndim == 1:
                if override.shape[0] != self._n_entries:
                    raise ValueError(
                        f"delay override has {override.shape[0]} "
                        f"entries, plan has {self._n_entries}"
                    )
            elif override.ndim == 2:
                if override.shape != (batch, self._n_entries):
                    raise ValueError(
                        f"delay override has shape {override.shape}, "
                        f"expected ({batch}, {self._n_entries})"
                    )
            else:
                raise ValueError(
                    f"delays array must be 1-D or 2-D, "
                    f"got {override.ndim}-D"
                )
        values = np.empty((batch, len(plan.nets)), dtype=np.float64)
        arrivals = np.asarray(rows, dtype=np.float64)
        if arrivals.shape != (batch, plan.n_inputs):
            raise ValueError(
                f"arrival rows have shape {arrivals.shape}, "
                f"plan expects ({batch}, {plan.n_inputs})"
            )
        values[:, : plan.n_inputs] = arrivals
        for idx, srcs, node_delays, bounds, lo, hi in self._nodes:
            if srcs is None:
                values[:, idx] = NEG_INF
                continue
            if override is None:
                terms = values[:, srcs] + node_delays
            elif override.ndim == 1:
                terms = values[:, srcs] + override[lo:hi]
            else:
                terms = values[:, srcs] + override[:, lo:hi]
            if len(bounds) == 1:
                values[:, idx] = terms.max(axis=1)
            else:
                values[:, idx] = np.maximum.reduceat(
                    terms, bounds, axis=1
                ).min(axis=1)
        return values


def propagate_batch(
    plan: CompiledGraph,
    rows: Sequence[Sequence[float]],
    cache: dict | None = None,
    tracer: Tracer = NULL_TRACER,
    delays=None,
    columns: Sequence[int] | None = None,
):
    """Evaluate arrival rows against a plan, picking an executor.

    The executor is :func:`~repro.kernel.backend.pick_backend` of the
    row count: numpy for batches of at least
    :data:`~repro.kernel.backend.NUMPY_MIN_BATCH` scenarios when
    available, pure python otherwise.  Rows are evaluated in chunks of
    :data:`CHUNK` scenarios.  ``cache`` (a dict owned by the
    caller, keyed by executor name) reuses executors across calls so
    repeated evaluation of one plan skips the per-node array setup.
    ``delays`` optionally overrides the plan's entry delays — one
    ``(n_entries,)`` vector shared by the whole batch (a corner), or
    one vector per scenario (parametric/Monte-Carlo families); per-row
    delays are chunked in lockstep with ``rows``.

    Returns the executor's matrix, one row per scenario aligned with
    ``plan.nets``: a numpy float64 array, or the python executor's
    list of lists of floats (``[]`` for no rows).  ``columns`` (net
    positions) keeps only those columns, in that order, of each chunk,
    so a large batch never holds every net of every row at once.

    With tracing on, each call emits one ``kernel-propagate`` event
    (chosen backend, scenario count, scenarios/second) and feeds the
    ``kernel.batch_seconds`` histogram; the record carries no phase —
    callers' spans already own this wall time.
    """
    rows = list(rows)
    if not rows:
        return []
    form = delay_form(delays)
    if form == "rows" and len(delays) != len(rows):
        raise ValueError(
            f"{len(delays)} delay rows for {len(rows)} scenarios"
        )
    chosen = pick_backend(len(rows))
    executor = None if cache is None else cache.get(chosen)
    if executor is None:
        executor = (
            NumpyExecutor(plan)
            if chosen == "numpy"
            else PythonExecutor(plan)
        )
        if cache is not None:
            cache[chosen] = executor
    start_t = time.perf_counter() if tracer.enabled else 0.0
    chunk = CHUNK
    parts = []
    for start in range(0, len(rows), chunk):
        end = start + chunk
        part = executor.propagate(
            rows[start:end],
            delays=delays[start:end] if form == "rows" else delays,
        )
        if columns is not None:
            part = (
                part[:, columns]
                if chosen == "numpy"
                else [[row[i] for i in columns] for row in part]
            )
        parts.append(part)
    if len(parts) == 1:
        out = parts[0]
    elif chosen == "numpy":
        out = numpy_or_none().concatenate(parts)
    else:
        out = [row for part in parts for row in part]
    if tracer.enabled:
        seconds = time.perf_counter() - start_t
        tracer.event(
            "kernel-propagate",
            seconds=seconds,
            graph=plan.name,
            backend=chosen,
            scenarios=len(rows),
            throughput=(len(rows) / seconds if seconds > 0.0 else 0.0),
        )
        tracer.count("kernel.batches")
        tracer.count("kernel.scenarios", len(rows))
        tracer.observe("kernel.batch_seconds", seconds)
    return out
