"""Counters for the model library: cache behaviour and characterization cost.

One :class:`LibraryStats` instance lives on each
:class:`~repro.library.store.ModelLibrary` and is updated by the store,
the scheduler, and the analyzer hook.  ``hier-report --cache-dir``
surfaces the rendered block so cache effectiveness is visible per run.

The counters are backed by a :class:`~repro.obs.metrics.Metrics`
registry (one ``library.*`` instrument per counter), so a tracer that
shares the registry sees the same numbers.  Updates go through
:meth:`LibraryStats.inc`, atomic because threads may share a library;
the counters also read and write as attributes (``stats.hits``).
"""

from __future__ import annotations

from repro.obs.metrics import Metrics

#: Integer counters exposed as read/write attributes, in render order.
_COUNTER_FIELDS = (
    "hits",
    "memory_hits",
    "disk_hits",
    "misses",
    "stores",
    "evictions",
    "corrupt_entries",
    "schema_mismatches",
    "quarantined",
    "characterizations",
)


def _counter_property(name: str) -> property:
    key = f"library.{name}"

    def fget(self: "LibraryStats") -> int:
        return int(self.metrics.counter(key).value)

    def fset(self: "LibraryStats", value: int) -> None:
        self.metrics.counter(key).value = int(value)

    fget.__doc__ = f"``{key}`` counter (Metrics-backed)."
    return property(fget, fset)


class LibraryStats:
    """Hit/miss/evict and characterization-time counters.

    Parameters
    ----------
    metrics:
        Registry to record into.  Pass a tracer's ``metrics`` to merge
        library counters into a run's observability stream; by default
        each stats object owns a private registry.
    """

    def __init__(self, metrics: Metrics | None = None):
        self.metrics = metrics if metrics is not None else Metrics()
        for name in _COUNTER_FIELDS:
            self.metrics.counter(f"library.{name}")
        self.metrics.histogram("library.characterization_seconds")

    #: Total lookups satisfied from the library (memory or disk).
    hits = _counter_property("hits")
    #: Hits served by the in-memory LRU layer.
    memory_hits = _counter_property("memory_hits")
    #: Hits that had to read (and re-validate) an on-disk entry.
    disk_hits = _counter_property("disk_hits")
    #: Lookups that found nothing usable.
    misses = _counter_property("misses")
    #: Models written to the library.
    stores = _counter_property("stores")
    #: In-memory LRU entries dropped to respect the capacity bound.
    evictions = _counter_property("evictions")
    #: On-disk entries rejected as unreadable/malformed (treated as misses).
    corrupt_entries = _counter_property("corrupt_entries")
    #: On-disk entries rejected for a format/version mismatch.
    schema_mismatches = _counter_property("schema_mismatches")
    #: Rejected entries moved into the cache's quarantine directory.
    quarantined = _counter_property("quarantined")
    #: Modules actually characterized from their netlists.
    characterizations = _counter_property("characterizations")

    @property
    def characterization_seconds(self) -> float:
        """Wall-clock seconds spent in from-netlist characterizations."""
        return self.metrics.histogram(
            "library.characterization_seconds"
        ).total

    def inc(self, name: str) -> None:
        """Add one to counter ``name`` (atomic across threads)."""
        self.metrics.counter(f"library.{name}").inc()

    def record_characterization(self, seconds: float) -> None:
        """Count one from-netlist characterization that took ``seconds``."""
        self.inc("characterizations")
        self.metrics.histogram(
            "library.characterization_seconds"
        ).observe(seconds)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (for benchmarks and tooling)."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_entries": self.corrupt_entries,
            "schema_mismatches": self.schema_mismatches,
            "quarantined": self.quarantined,
            "characterizations": self.characterizations,
            "characterization_seconds": self.characterization_seconds,
        }

    def render(self, indent: str = "  ") -> str:
        """Human-readable block for timing reports."""
        lines = [
            f"{indent}model library:",
            f"{indent}  hits                 : {self.hits} "
            f"({self.memory_hits} memory, {self.disk_hits} disk)",
            f"{indent}  misses               : {self.misses}",
            f"{indent}  stores               : {self.stores}",
            f"{indent}  evictions            : {self.evictions}",
            f"{indent}  corrupt entries      : {self.corrupt_entries}",
            f"{indent}  schema mismatches    : {self.schema_mismatches}",
            f"{indent}  quarantined          : {self.quarantined}",
            f"{indent}  characterizations    : {self.characterizations}",
            f"{indent}  characterization time: "
            f"{self.characterization_seconds:.3f}s",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LibraryStats(hits={self.hits}, misses={self.misses}, "
            f"characterizations={self.characterizations})"
        )
