"""Step-1 characterization: one resilient runner over output cones.

Section 3.1 characterizes each leaf output separately, with required
time 0 at the output, so Step 1 is embarrassingly parallel.
:func:`characterize_cones` is the one runner every Step-1 caller uses.
A work item (:class:`Cone`) is one output cone: its owner's name, the
network, the output and, for the per-instance models of footnote 6, a
care network.  Items go through
:func:`~repro.resilience.executor.run_resilient` under one
:class:`~repro.api.AnalysisOptions` bundle, in-process at ``jobs=1``
and over worker processes above it:

* items are submitted in a fixed order and merged by index, so models
  are bit-identical for any ``jobs`` and any crash or retry pattern;
* crashes, hung tasks and restricted sandboxes degrade through retry
  with backoff, quarantine and in-process serial characterization; a
  cone that still fails, or misses the run deadline, gets its output's
  topological model (sound by Theorem 1).  Every rung is recorded on
  the run's :class:`~repro.resilience.degradation.DegradationLog`
  under ``owner:output``;
* fault rules match ``module=<owner>`` on every cone of an owner and
  ``output=`` on one cone.

The callers: :func:`characterize_modules` (modules of a
:class:`~repro.core.hier.HierarchicalAnalyzer`, and the flat network of
``AnalysisSession.characterize`` as one module) adds signatures, the
model library (the caller's, or the process-wide
:data:`~repro.library.store.PROCESS_LIBRARY`) and twin re-keying;
:class:`~repro.core.instance_models.PerInstanceAnalyzer` sends SDC-aware
cones owned by its instances, without a library.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core import required
from repro.core.hier import topological_models
from repro.core.required import expand_model_to_inputs
from repro.core.timing_model import TimingModel
from repro.library import store
from repro.library.signature import module_signature
from repro.library.store import ModelLibrary
from repro.netlist.hierarchy import Module
from repro.netlist.network import Network
from repro.obs.trace import ensure_tracer
from repro.resilience.degradation import DegradationLog
from repro.resilience.executor import run_resilient
from repro.resilience.faultinject import execute_directive
from repro.resilience.policy import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import AnalysisOptions


@dataclass(frozen=True)
class Cone:
    """One Step-1 work item: the cone of ``output`` in ``network``.

    ``owner`` names the model set the cone belongs to (a module, or an
    instance for per-instance models); ``care`` optionally restricts
    the input vectors over which stability must hold.
    """

    owner: str
    network: Network
    output: str
    care: Network | None = None


def _characterize_cone_task(cone, directive=None, tracer=None):
    """Worker: characterize one output cone (top-level for pickling).

    ``directive`` carries a serialized fault injection (tests only);
    ``tracer`` is only supplied on the in-process path — it cannot
    cross a process boundary.  ``characterize_output`` is looked up on
    its module at call time, so wrappers installed there see the call.
    """
    execute_directive(directive)
    t0 = perf_counter()
    local = required.characterize_output(
        cone.network, cone.output, care=cone.care, tracer=tracer
    )
    model = expand_model_to_inputs(local, cone.network.inputs)
    return perf_counter() - t0, model


def characterize_cones(
    cones: Sequence[Cone],
    options: "AnalysisOptions | None" = None,
    dlog: DegradationLog | None = None,
    deadline: Deadline | None = None,
) -> dict[str, tuple[dict[str, TimingModel], float | None]]:
    """Characterize every cone; group the models by owner.

    ``options`` (``None``: the defaults) supplies the workers, retries,
    per-task timeout, fault plan and tracer; ``deadline`` is the run's
    started deadline (``None``: unlimited).  Every check runs on
    :data:`~repro.core.xbd0.CONE_ENGINE`.  Returns ``{owner: ({output:
    model}, seconds)}`` in item order, with every model aligned to its
    network's full input order.  ``seconds`` sums the owner's cone
    times, or is ``None`` when any of its cones degraded: a cone that
    fails or misses the ``deadline`` gets its output's topological
    model (conservative by Theorem 1) and a ``characterization-error``
    record on ``dlog``.

    Worker processes cannot share ``tracer``: each task returns its
    wall time, recorded in the parent as one ``characterize-output``
    event per cone (no phase) and one ``characterize-module`` event
    (phase ``"characterization"``) per owner with no degraded cone.
    """
    if options is None:
        from repro.api import AnalysisOptions

        options = AnalysisOptions()
    tracer = ensure_tracer(options.tracer)
    dlog = dlog if dlog is not None else DegradationLog(tracer)
    outcomes = run_resilient(
        _characterize_cone_task,
        cones,
        options=options,
        deadline=deadline,
        dlog=dlog,
        subject_of=lambda cone: {"module": cone.owner, "output": cone.output},
    )
    owners: dict[str, tuple[dict[str, TimingModel], float | None]] = {}
    fallback: dict[str, dict[str, TimingModel]] = {}
    for cone, outcome in zip(cones, outcomes):
        models, seconds = owners.get(cone.owner, ({}, 0.0))
        if outcome.ok:
            cone_seconds, models[cone.output] = outcome.result
            if seconds is not None:
                seconds += cone_seconds
            if tracer.enabled:
                tracer.event(
                    "characterize-output",
                    seconds=cone_seconds,
                    module=cone.owner,
                    output=cone.output,
                    jobs=options.jobs,
                )
        else:
            if cone.owner not in fallback:
                fallback[cone.owner] = topological_models(cone.network)
            models[cone.output] = fallback[cone.owner][cone.output]
            seconds = None
            dlog.record(
                "characterization-error",
                outcome.subject,
                f"characterization failed {outcome.failures} time(s)",
                "topological-model",
            )
        owners[cone.owner] = (models, seconds)
    if tracer.enabled:
        for owner, (_models, seconds) in owners.items():
            if seconds is not None:
                tracer.count("scheduler.characterizations")
                tracer.event(
                    "characterize-module",
                    phase="characterization",
                    seconds=seconds,
                    module=owner,
                    jobs=options.jobs,
                )
    return owners


def _rekey_models(
    models: Mapping[str, TimingModel], src: Module, dst: Module
) -> dict[str, TimingModel]:
    """Port a structural twin's models onto ``dst``'s port names."""
    return {
        d: TimingModel(d, dst.inputs, models[s].tuples)
        for s, d in zip(src.outputs, dst.outputs)
    }


def characterize_modules(
    modules: Mapping[str, Module],
    options: "AnalysisOptions | None" = None,
    library: ModelLibrary | None = None,
    dlog: DegradationLog | None = None,
) -> dict[str, dict[str, TimingModel]]:
    """Characterize every module, consulting/filling ``library``.

    Returns ``{module name: {output port: model}}`` with models aligned
    to each module's own input order.  ``library=None`` means the
    process-wide :data:`~repro.library.store.PROCESS_LIBRARY`, so a
    process characterizes each module structure once.  Modules found
    in the library are never re-characterized; structural twins are
    characterized once and re-keyed.  The cones of the rest go through
    one :func:`characterize_cones` call under ``options``, so ``jobs``
    workers share them even for a single module, and the run deadline
    (``options.deadline``) starts here.  A module with a degraded cone
    is not stored.  Lookups and stores report to ``options.tracer``.
    """
    if options is None:
        from repro.api import AnalysisOptions

        options = AnalysisOptions()
    if library is None:
        library = store.PROCESS_LIBRARY
    signatures = {
        name: module_signature(module) for name, module in modules.items()
    }
    results: dict[str, dict[str, TimingModel]] = {}
    representative: dict[str, str] = {}
    pending: list[str] = []
    for name, module in modules.items():
        sig = signatures[name]
        cached = library.lookup(
            sig, module.inputs, module.outputs, options.tracer
        )
        if cached is not None:
            results[name] = cached
            representative.setdefault(sig, name)
            continue
        if sig not in representative:
            representative[sig] = name
            pending.append(name)
    characterized = characterize_cones(
        [
            Cone(name, modules[name].network, output)
            for name in pending
            for output in modules[name].outputs
        ],
        options, dlog, Deadline(options.deadline),
    )
    for name in pending:
        models, seconds = characterized.get(name, ({}, 0.0))
        results[name] = models
        if seconds is not None:
            module = modules[name]
            library.store(
                signatures[name], module.inputs, module.outputs, models,
                options.tracer,
            )
            library.stats.record_characterization(seconds)
    for name, module in modules.items():
        if name in results:
            continue
        src_name = representative[signatures[name]]
        results[name] = _rekey_models(
            results[src_name], modules[src_name], module
        )
    return results
