"""Design registry: hot :class:`~repro.kernel.design.CompiledDesign`
handles keyed by netlist content hash.

The server's whole point is amortization — characterize and compile a
design once, then answer many analyze requests against the frozen
handle.  :class:`DesignRegistry` owns that cache:

* designs register by **content**: the SHA-256 of the netlist source is
  the identity, so re-registering byte-identical source is free and two
  clients posting the same netlist share one compiled handle;
* each entry bundles the :class:`~repro.api.AnalysisSession` (for
  forensics and any non-kernel analysis), the compiled handle, the
  per-design :class:`~repro.server.coalescer.RequestCoalescer`, and a
  :class:`~repro.resilience.breaker.CircuitBreaker` guarding the
  kernel evaluation path;
* every entry can also answer from the **topological-bound path**: a
  second compiled handle built from purely topological module models
  (:func:`topological_handle`).
  Theorem 1 makes that answer conservative (never optimistic), so a
  crashing kernel call — or an open breaker — degrades to a sound 200
  with :class:`~repro.resilience.degradation.Degradation` records
  instead of becoming a 500;
* lookups touch an LRU clock; past :data:`MAX_DESIGNS` the least
  recently used entry is evicted and its coalescer drained (outside the
  registry lock, so a slow drain cannot stall registrations).

Registration and eviction hold the registry lock; per-design
compilation holds a per-entry lock so two concurrent registrations of
different designs do not serialize each other's characterization.
"""

from __future__ import annotations

import hashlib
import io
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.api import AnalysisOptions, AnalysisSession
from repro.errors import ParseError, ReproError
from repro.netlist.hierarchy import HierDesign
from repro.obs.trace import NULL_TRACER, Tracer, ensure_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.degradation import Degradation, DegradationLog
from repro.server.coalescer import RequestCoalescer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.design import CompiledDesign
    from repro.resilience.faultinject import FaultPlan

#: LRU capacity of a :class:`DesignRegistry`: registering past it evicts
#: the least recently used entry (and drains its coalescer).  Read at
#: call time.
MAX_DESIGNS = 32


@dataclass(frozen=True)
class DegradedRow:
    """One scenario's conservative (topological-bound) output row.

    Yielded in place of a plain row when the kernel path failed or its
    breaker is open.  The values are sound upper bounds by Theorem 1;
    ``degradations`` says why the exact path was not used.
    """

    #: Output stable times, keyed like the exact row it replaces.
    row: Mapping[str, float]
    #: Why this scenario was answered conservatively.
    degradations: tuple[Degradation, ...] = ()


class UnknownDesign(ReproError):
    """Lookup of a design id/name that is not registered."""


def content_id(source: str) -> str:
    """The design identity for a netlist source text.

    The first 12 hex digits of the SHA-256 of the exact source bytes:
    long enough that collisions are not a practical concern for a
    registry of at most a few thousand designs, short enough to read in
    logs and URLs.
    """
    return hashlib.sha256(source.encode()).hexdigest()[:12]


def topological_handle(
    design: HierDesign, tracer: Tracer | None = None
) -> "CompiledDesign":
    """``design`` compiled with purely topological module models.

    The baseline the paper refines
    (:func:`~repro.core.hier.topological_models`), and the sound answer
    of last resort: Theorem 1 makes every time it yields an upper bound
    on the functional one.
    """
    from repro.core.hier import HierarchicalAnalyzer

    options = AnalysisOptions(functional=False, tracer=tracer)
    return HierarchicalAnalyzer(design, options=options).compile()


@dataclass
class RegisteredDesign:
    """One compiled design held hot by the server."""

    #: Content hash of the registered netlist source.
    design_id: str
    #: Top-module name (also addressable, last registration wins).
    name: str
    #: The wrapped session (shared model library, tracer, options).
    session: AnalysisSession
    #: The frozen propagation handle every request evaluates against.
    handle: "CompiledDesign"
    #: The per-design request coalescer (single-scenario requests);
    #: wired right after construction (its evaluate closure needs the
    #: entry itself for breaker-guarded evaluation).
    coalescer: RequestCoalescer | None
    #: Wall-clock seconds spent characterizing + compiling at register.
    compile_seconds: float
    #: Breaker guarding this design's kernel evaluation path.
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    #: Unix time of registration.
    registered_at: float = field(default_factory=time.time)
    #: Monotonic LRU clock (registry-managed).
    last_used: float = field(default_factory=time.monotonic)
    #: Requests answered against this entry (analyze + batch scenarios).
    requests: int = 0
    #: Requests answered from the topological-bound path.
    degraded_requests: int = 0
    #: Topological-bound handle of :meth:`degraded_rows`, compiled on
    #: first use (races are benign: concurrent builds are identical).
    _topo: "CompiledDesign | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def design(self) -> HierDesign:
        return self.session.design

    def describe(self) -> dict:
        """JSON-ready metadata for ``GET /designs``."""
        design = self.design
        return {
            "design": self.design_id,
            "name": self.name,
            "inputs": len(design.inputs),
            "outputs": len(design.outputs),
            "instances": len(design.instances),
            "modules": len(design.modules),
            "compile_seconds": self.compile_seconds,
            "registered_at": self.registered_at,
            "requests": self.requests,
            "degraded_requests": self.degraded_requests,
            "breaker": self.breaker.state,
            "degradations": len(self.handle.degradations),
        }

    # --------------------------------------------------- guarded evaluation
    def evaluate_rows(
        self,
        scenarios: Sequence,
        *,
        tracer: Tracer = NULL_TRACER,
        fault_plan: "FaultPlan | None" = None,
        nets: Sequence[str] | None = None,
    ) -> list:
        """Stable-time rows for ``scenarios``, degrading instead of raising.

        Each row is a read-only view keyed by ``nets`` (default:
        ``handle.outputs``).
        The hot path: one batched kernel call against :attr:`handle`,
        guarded by :attr:`breaker`.  When the breaker is open the
        kernel is not attempted at all; when it is closed but the call
        fails, the failure is recorded and the same scenarios are
        answered conservatively.  Either way every scenario gets a
        result — failed/skipped ones as :class:`DegradedRow` values
        whose times are sound upper bounds (Theorem 1).
        """
        if nets is None:
            nets = self.handle.outputs
        if not self.breaker.allow():
            return self.degraded_rows(
                scenarios,
                tracer=tracer,
                nets=nets,
                kind="breaker-open",
                detail=(
                    "kernel path suspended after repeated evaluation "
                    "failures (circuit breaker open)"
                ),
            )
        try:
            if fault_plan is not None:
                fault_plan.fire("server.propagate", design=self.name)
            rows = self.handle.propagate(
                scenarios, tracer=tracer, nets=nets
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self.breaker.record_failure()
            return self.degraded_rows(
                scenarios,
                tracer=tracer,
                nets=nets,
                kind="evaluation-error",
                detail=f"{type(exc).__name__}: {exc}",
            )
        self.breaker.record_success()
        return rows

    def degraded_rows(
        self,
        scenarios: Sequence,
        *,
        tracer: Tracer = NULL_TRACER,
        nets: Sequence[str] | None = None,
        kind: str = "breaker-open",
        detail: str = "",
    ) -> list[DegradedRow]:
        """Conservative rows from the topological-bound handle, keyed
        by ``nets`` (default: ``handle.outputs``)."""
        if self._topo is None:
            self._topo = topological_handle(self.design)
        values = self._topo.propagate(
            scenarios,
            tracer=tracer,
            nets=self.handle.outputs if nets is None else nets,
        )
        log = DegradationLog(tracer)
        log.record(
            kind=kind,
            subject=self.name,
            detail=detail or "kernel evaluation path unavailable",
            fallback=(
                "topological-bound evaluation "
                "(conservative by Theorem 1)"
            ),
        )
        degradations = log.snapshot()
        self.degraded_requests += len(values)
        if tracer.enabled:
            tracer.count("server.degraded_scenarios", len(values))
        return [DegradedRow(row, degradations) for row in values]


class DesignRegistry:
    """Thread-safe cache of compiled designs, keyed by content hash.

    Parameters
    ----------
    options:
        Analysis options every registered design compiles under (jobs,
        cache_dir, deadline...).  The registry forces nothing.  Without
        ``cache_dir`` every design's Step 1 goes through the process-wide
        model library, so a module structure is characterized once per
        process; with it, every design reads and fills that directory,
        shared by every process that names it.
    max_batch:
        Scenarios per kernel call of each design's
        :class:`~repro.server.coalescer.RequestCoalescer` (1 disables
        coalescing).
    tracer:
        Server-lifetime tracer; counters/histograms back ``/metrics``.

    ``options.fault_plan`` (``serve --inject``) is the deterministic
    chaos plan: consulted at the ``server.compile`` and
    ``server.propagate`` trace points here and threaded into each
    coalescer's ``coalescer.flush`` point.
    """

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        *,
        max_batch: int = 64,
        tracer: Tracer | None = None,
    ):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.tracer = ensure_tracer(tracer)
        base = options or AnalysisOptions()
        if base.tracer is None and self.tracer is not NULL_TRACER:
            base = base.with_changes(tracer=self.tracer)
        self.options = base
        self.max_batch = int(max_batch)
        self._lock = threading.RLock()
        self._entries: dict[str, RegisteredDesign] = {}
        self._by_name: dict[str, str] = {}

    # ------------------------------------------------------------ registration
    def register_source(
        self, source: str, *, filename: str = "design.v"
    ) -> RegisteredDesign:
        """Register a structural-Verilog source text (idempotent).

        Returns the existing entry when the exact source is already
        registered; otherwise parses, characterizes, compiles, and
        caches it.  Non-hierarchical sources raise
        :class:`~repro.errors.ReproError` (the kernel serves
        hierarchical designs; flatten-and-serve is not supported).
        """
        design_id = content_id(source)
        with self._lock:
            entry = self._entries.get(design_id)
            if entry is not None:
                self._touch(entry)
                return entry
        circuit = self._parse(source, filename)
        entry = self._compile(design_id, circuit)
        with self._lock:
            racer = self._entries.get(design_id)
            if racer is not None:  # lost a registration race; keep first
                entry.coalescer.close()
                self._touch(racer)
                return racer
            self._entries[design_id] = entry
            self._by_name[entry.name] = design_id
            self._touch(entry)
            evicted = self._evict_over_capacity()
        # Drain evicted coalescers outside the registry lock: a drain
        # waits for in-flight batches, and holding the lock across that
        # wait would stall every concurrent lookup and registration.
        for victim in evicted:
            victim.coalescer.close()
        if self.tracer.enabled:
            self.tracer.count("server.designs.registered")
            self.tracer.gauge("server.designs", len(self._entries))
        return entry

    def register_file(self, path: str | Path) -> RegisteredDesign:
        """Register a ``.v`` file by content."""
        file = Path(path)
        if file.suffix != ".v":
            raise ReproError(
                f"{file.name}: the server registers structural Verilog "
                "(.v) designs"
            )
        try:
            source = file.read_text()
        except UnicodeDecodeError:
            raise ParseError(
                f"{file.name} is not a text netlist (undecodable bytes)"
            ) from None
        return self.register_source(source, filename=file.name)

    def register_design(self, design: HierDesign) -> RegisteredDesign:
        """Register an in-memory design (generators, tests).

        Content identity comes from the design's Verilog dump, so a
        generated circuit and its serialized form share one entry.
        Generator names like ``csa8.2`` are not legal Verilog
        identifiers; they dump (and therefore register) with ``.``/``-``
        mapped to ``_``.
        """
        import re as _re

        from repro.parsers.verilog import dumps_verilog

        legal = _re.sub(r"[^A-Za-z0-9_$]", "_", design.name) or "design"
        if not _re.match(r"[A-Za-z_]", legal):
            legal = f"d_{legal}"
        original = design.name
        try:
            design.name = legal
            source = dumps_verilog(design)
        finally:
            design.name = original
        return self.register_source(source)

    def _parse(self, source: str, filename: str) -> HierDesign:
        from repro.parsers.verilog import read_verilog

        try:
            circuit = read_verilog(io.StringIO(source))
        except ReproError:
            raise
        except Exception as exc:  # pragma: no cover - parser internals
            raise ParseError(f"{filename}: {exc}") from None
        if not isinstance(circuit, HierDesign):
            raise ReproError(
                f"{filename}: file holds a single flat module; the "
                "server serves hierarchical designs"
            )
        return circuit

    def _compile(
        self, design_id: str, circuit: HierDesign
    ) -> RegisteredDesign:
        t0 = time.perf_counter()
        session = AnalysisSession(circuit, options=self.options)
        plan = self.options.fault_plan
        try:
            if plan is not None:
                plan.fire("server.compile", design=circuit.name)
            with self.tracer.span(
                "server-register", phase="compile", design=circuit.name
            ):
                handle = session.compile()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            handle = self._topological_handle(circuit, exc, t0)
        compile_seconds = time.perf_counter() - t0
        entry = RegisteredDesign(
            design_id=design_id,
            name=circuit.name,
            session=session,
            handle=handle,
            coalescer=None,  # wired below; needs the entry itself
            compile_seconds=compile_seconds,
            breaker=CircuitBreaker(circuit.name, tracer=self.tracer),
        )
        entry.coalescer = self._make_coalescer(entry)
        return entry

    def _topological_handle(
        self, circuit: HierDesign, exc: Exception, t0: float
    ) -> "CompiledDesign":
        """Sound registration of last resort: compile with topological
        models when the functional compile path fails.

        Characterization faults already degrade *inside*
        ``session.compile`` (per-module topological substitution); this
        catches faults of the compile path itself — and the
        ``server.compile`` chaos point — so registration sheds model
        precision rather than availability.
        """
        handle = topological_handle(circuit, self.tracer)
        log = DegradationLog(self.tracer)
        log.record(
            kind="compile-error",
            subject=circuit.name,
            detail=f"{type(exc).__name__}: {exc}",
            fallback=(
                "design compiled with topological models "
                "(conservative by Theorem 1)"
            ),
        )
        return replace(
            handle,
            degradations=log.snapshot(),
            compile_seconds=time.perf_counter() - t0,
        )

    def _make_coalescer(self, entry: RegisteredDesign) -> RequestCoalescer:
        # output-time views over the kernel's matrix: the coalesced path
        # only ever reads primary outputs (requests that want every net
        # bypass the coalescer).
        # evaluate_rows never raises on kernel faults — it degrades to
        # the topological-bound path, so a bad batch becomes a batch of
        # conservative answers rather than a batch of 500s.
        def evaluate(scenarios: list[dict]) -> list:
            return entry.evaluate_rows(
                scenarios,
                tracer=self.tracer,
                fault_plan=self.options.fault_plan,
            )

        return RequestCoalescer(
            evaluate,
            max_batch=self.max_batch,
            tracer=self.tracer,
            name=entry.name,
            fault_plan=self.options.fault_plan,
        )

    # ----------------------------------------------------------------- lookups
    def get(self, key: str) -> RegisteredDesign:
        """Entry by design id (content hash) or top-module name."""
        with self._lock:
            design_id = self._by_name.get(key, key)
            entry = self._entries.get(design_id)
            if entry is None:
                raise UnknownDesign(
                    f"unknown design {key!r}; register it via "
                    "POST /designs or list ids via GET /designs"
                )
            self._touch(entry)
            return entry

    def list(self) -> list[dict]:
        """Metadata for every registered design, most recent first."""
        with self._lock:
            entries = sorted(
                self._entries.values(),
                key=lambda e: e.last_used,
                reverse=True,
            )
            return [e.describe() for e in entries]

    def entries(self) -> list[RegisteredDesign]:
        """Live entries, unordered — no LRU touch (diagnostics)."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries or key in self._by_name

    # --------------------------------------------------------------- lifecycle
    def _touch(self, entry: RegisteredDesign) -> None:
        entry.last_used = time.monotonic()

    def _evict_over_capacity(self) -> list[RegisteredDesign]:
        """Unlink LRU entries past capacity; caller drains them
        (coalescer close) after releasing the registry lock."""
        victims: list[RegisteredDesign] = []
        while len(self._entries) > MAX_DESIGNS:
            victim = min(
                self._entries.values(), key=lambda e: e.last_used
            )
            self._remove(victim)
            victims.append(victim)
            if self.tracer.enabled:
                self.tracer.count("server.designs.evicted")
        return victims

    def _remove(self, entry: RegisteredDesign) -> None:
        self._entries.pop(entry.design_id, None)
        if self._by_name.get(entry.name) == entry.design_id:
            self._by_name.pop(entry.name, None)

    def close(self) -> None:
        """Drain every coalescer (pending requests fail with 503)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._by_name.clear()
        for entry in entries:
            entry.coalescer.close()


__all__ = [
    "DegradedRow",
    "DesignRegistry",
    "RegisteredDesign",
    "UnknownDesign",
    "content_id",
    "topological_handle",
]
