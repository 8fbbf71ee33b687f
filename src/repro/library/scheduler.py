"""Leaf-module characterization with deterministic merging.

Step 1 of the hierarchical flow is embarrassingly parallel: each leaf
module (indeed each output cone) is characterized independently.
:func:`characterize_modules` is the one Step-1 path of
:class:`~repro.core.hier.HierarchicalAnalyzer`: it runs the uncached
work in-process at ``jobs=1`` and fans it out over a
``ProcessPoolExecutor`` above that, both through the fault-tolerant
:func:`~repro.resilience.executor.run_resilient` runner:

* distinct modules sharing one structural signature are characterized
  once and re-keyed to every twin (content-addressing inside a run, not
  just across runs);
* work items are submitted in a fixed order and merged by payload index,
  so results are bit-identical for any ``--jobs N`` — and for any crash
  or retry pattern;
* worker crashes, hung tasks, and restricted sandboxes degrade through
  the resilience ladder: retry with backoff → quarantine → in-process
  serial characterization → the topological (pin-to-pin longest-path)
  model, which stays sound by Theorem 1.  Every rung taken is recorded
  in the run's :class:`~repro.resilience.degradation.DegradationLog`;
* Ctrl-C cancels pending futures and shuts the pool down cleanly
  instead of hanging on queued work.

``characterize_network_parallel`` applies the same treatment to the
output cones of a single flat network (``AnalysisSession.characterize``
and the ``repro characterize`` CLI, at any ``jobs``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Mapping

from repro.core.required import (
    characterize_network,
    characterize_output,
    expand_model_to_inputs,
)
from repro.core.timing_model import TimingModel
from repro.library.signature import module_signature
from repro.library.store import ModelLibrary
from repro.netlist.hierarchy import Module
from repro.netlist.network import Network
from repro.obs.trace import Tracer, ensure_tracer
from repro.resilience.degradation import DegradationLog
from repro.resilience.executor import run_resilient
from repro.resilience.faultinject import execute_directive
from repro.resilience.policy import DEFAULT_POLICY, Deadline, ResiliencePolicy


def _characterize_module_task(payload, directive=None, tracer=None):
    """Worker: characterize one module (top-level for pickling).

    ``directive`` carries a serialized fault injection (tests only);
    ``tracer`` is only supplied on the in-process serial path — it
    cannot cross a process boundary.
    """
    execute_directive(directive)
    name, network, engine, max_orders, max_tuples = payload
    t0 = perf_counter()
    models = characterize_network(
        network, engine, max_orders, max_tuples, tracer=tracer
    )
    return name, perf_counter() - t0, models


def _characterize_output_task(payload, directive=None, tracer=None):
    """Worker: characterize one output cone of a flat network."""
    execute_directive(directive)
    network, output, engine, max_orders, max_tuples = payload
    t0 = perf_counter()
    local = characterize_output(
        network, output, engine, max_orders, max_tuples, tracer=tracer
    )
    return output, perf_counter() - t0, local


def _rekey_models(
    models: Mapping[str, TimingModel], src: Module, dst: Module
) -> dict[str, TimingModel]:
    """Port a structural twin's models onto ``dst``'s port names."""
    return {
        d: TimingModel(d, dst.inputs, models[s].tuples)
        for s, d in zip(src.outputs, dst.outputs)
    }


def _topological_fallback(module: Module) -> dict[str, TimingModel]:
    """The always-sound Step-1 substitute (Theorem 1): topological models."""
    from repro.core.hier import topological_models

    return topological_models(module.network)


def characterize_modules(
    modules: Mapping[str, Module],
    jobs: int = 1,
    engine: str = "sat",
    max_orders: int = 4,
    max_tuples: int = 8,
    library: ModelLibrary | None = None,
    tracer: Tracer | None = None,
    policy: ResiliencePolicy | None = None,
    dlog: DegradationLog | None = None,
    deadline: Deadline | None = None,
) -> dict[str, dict[str, TimingModel]]:
    """Characterize every module, consulting/filling ``library``.

    Returns ``{module name: {output port: model}}`` with models aligned
    to each module's own input order.  Results are independent of
    ``jobs``; modules already present in ``library`` are never
    re-characterized.

    A module whose characterization cannot be completed (worker crash,
    timeout, deadline, poison netlist) falls back to its topological
    model — conservative by Theorem 1 — and the substitution is
    recorded in ``dlog``.  Fallback models are *not* stored in the
    library.

    Worker processes cannot share ``tracer``; per-module wall time is
    returned by each worker and recorded as a ``characterize-module``
    event (phase ``"characterization"``) in the parent.
    """
    tracer = ensure_tracer(tracer)
    policy = policy if policy is not None else DEFAULT_POLICY
    dlog = dlog if dlog is not None else DegradationLog(tracer)
    signatures = {
        name: module_signature(module, engine, max_orders, max_tuples)
        for name, module in modules.items()
    }
    results: dict[str, dict[str, TimingModel]] = {}
    representative: dict[str, str] = {}
    pending: list[str] = []
    for name, module in modules.items():
        sig = signatures[name]
        if library is not None:
            cached = library.lookup(sig, module.inputs, module.outputs)
            if cached is not None:
                results[name] = cached
                representative.setdefault(sig, name)
                continue
        if sig not in representative:
            representative[sig] = name
            pending.append(name)
    payloads = [
        (name, modules[name].network, engine, max_orders, max_tuples)
        for name in pending
    ]
    outcomes = run_resilient(
        _characterize_module_task,
        payloads,
        jobs=jobs,
        policy=policy,
        deadline=deadline,
        dlog=dlog,
        subject_of=lambda payload: {"module": payload[0]},
        tracer=tracer,
    )
    for outcome in outcomes:
        name = pending[outcome.index]
        if not outcome.ok:
            module = modules[name]
            results[name] = _topological_fallback(module)
            dlog.record(
                "characterization-error",
                name,
                f"characterization failed {outcome.failures} time(s)",
                "topological-model",
            )
            continue
        _task_name, seconds, models = outcome.result
        results[name] = models
        if tracer.enabled:
            tracer.count("scheduler.characterizations")
            tracer.event(
                "characterize-module",
                phase="characterization",
                seconds=seconds,
                module=name,
                jobs=jobs,
            )
        if library is not None:
            module = modules[name]
            library.store(
                signatures[name], module.inputs, module.outputs, models
            )
            library.stats.record_characterization(name, seconds)
    for name, module in modules.items():
        if name in results:
            continue
        src_name = representative[signatures[name]]
        results[name] = _rekey_models(
            results[src_name], modules[src_name], module
        )
    return results


def characterize_network_parallel(
    network: Network,
    jobs: int = 1,
    engine: str = "sat",
    max_orders: int = 4,
    max_tuples: int = 8,
    library: ModelLibrary | None = None,
    tracer: Tracer | None = None,
    policy: ResiliencePolicy | None = None,
    dlog: DegradationLog | None = None,
    deadline: Deadline | None = None,
) -> dict[str, TimingModel]:
    """Like ``characterize_network`` but fanned out per output cone.

    With a ``library``, the whole network is treated as one module:
    a hit short-circuits every cone, a miss characterizes then stores.
    A cone whose characterization fails degrades to that output's
    topological model (recorded in ``dlog``); a partially degraded
    network is *not* stored in the library.
    """
    tracer = ensure_tracer(tracer)
    policy = policy if policy is not None else DEFAULT_POLICY
    dlog = dlog if dlog is not None else DegradationLog(tracer)
    sig = None
    if library is not None:
        sig = module_signature(network, engine, max_orders, max_tuples)
        cached = library.lookup(sig, network.inputs, network.outputs)
        if cached is not None:
            return cached
    payloads = [
        (network, output, engine, max_orders, max_tuples)
        for output in network.outputs
    ]
    t0 = perf_counter()
    models = {}
    degraded = False
    outcomes = run_resilient(
        _characterize_output_task,
        payloads,
        jobs=jobs,
        policy=policy,
        deadline=deadline,
        dlog=dlog,
        subject_of=lambda payload: {"output": payload[1]},
        tracer=tracer,
    )
    topo_models = None
    for outcome in outcomes:
        output = network.outputs[outcome.index]
        if not outcome.ok:
            if topo_models is None:
                from repro.core.hier import topological_models

                topo_models = topological_models(network)
            models[output] = topo_models[output]
            degraded = True
            dlog.record(
                "characterization-error",
                output,
                f"characterization failed {outcome.failures} time(s)",
                "topological-model",
            )
            continue
        _out, seconds, local = outcome.result
        models[output] = expand_model_to_inputs(local, network.inputs)
        if tracer.enabled:
            tracer.event(
                "characterize-output",
                phase="characterization",
                seconds=seconds,
                output=output,
                jobs=jobs,
            )
    if library is not None and sig is not None and not degraded:
        library.store(sig, network.inputs, network.outputs, models)
        library.stats.record_characterization(
            network.name, perf_counter() - t0
        )
    return models
