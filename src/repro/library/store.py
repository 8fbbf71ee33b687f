"""Persistent, content-addressed store of characterized timing models.

Entries are keyed by :func:`~repro.library.signature.module_signature`
and stored *positionally* — input ports by index, one model per output
index — so a cached entry serves any module with the same structure
regardless of port names.  Two layers:

* an in-memory LRU (``max_memory_entries``) holding decoded tuples,
  safe to share between threads, and
* an optional on-disk JSON directory (one file per signature) written
  atomically via ``os.replace`` so readers never observe a torn entry.

:data:`PROCESS_LIBRARY` is the memory-only library that Step 1 uses
when its caller passes none, so a process characterizes each module
structure once (Sections 3.1 and 3.3: a leaf's model does not depend
on its environment).

Robustness: any unreadable, malformed, or schema-mismatched disk entry
is counted, moved aside into ``<cache-dir>/quarantine/`` for post-mortem
inspection, and treated as a cache miss — the caller falls back to
re-characterization and the next store writes a fresh entry.  Writes
take an exclusive :class:`~repro.resilience.locking.FileLock` (readers a
shared one) so concurrent analysis processes can share one cache
directory, and are fsync'd before the atomic ``os.replace`` so a crash
mid-store can never publish a torn entry.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.timing_model import TimingModel
from repro.library.stats import LibraryStats
from repro.obs.trace import Tracer, ensure_tracer
from repro.resilience.locking import FileLock

#: Subdirectory of ``cache_dir`` holding rejected entries.
QUARANTINE_DIR = "quarantine"

#: Format marker stored in every on-disk entry.
FORMAT_NAME = "repro-model-library"
#: Bump on incompatible payload changes; old entries then re-characterize.
FORMAT_VERSION = 1

#: Decoded in-memory entry: one tuple-set per output index.
_Entry = tuple[tuple[tuple[float, ...], ...], ...]


class ModelLibrary:
    """Content-addressed timing-model cache with an LRU memory layer.

    Parameters
    ----------
    cache_dir:
        Directory for persistent entries (created if missing).  ``None``
        keeps the library memory-only.
    max_memory_entries:
        LRU capacity of the in-memory layer (≥ 1).
    locking:
        Take an inter-process :class:`FileLock` around disk reads and
        writes (shared/exclusive).  Default on; a no-op on platforms
        without ``fcntl``.
    durable:
        ``fsync`` entry files before the atomic rename.  Disable only
        for throwaway caches where write latency matters more than
        crash safety.
    fault_plan:
        Optional :class:`~repro.resilience.faultinject.FaultPlan`; arms
        the ``store.read`` (garble an entry as it is decoded) and
        ``store.corrupt`` (garble an entry after it is persisted)
        injection points for robustness tests.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        max_memory_entries: int = 256,
        locking: bool = True,
        durable: bool = True,
        fault_plan=None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max(1, int(max_memory_entries))
        self._memory: OrderedDict[str, _Entry] = OrderedDict()
        #: Guards ``_memory``; :attr:`stats` counters lock themselves.
        self._mutex = threading.Lock()
        self.stats = LibraryStats()
        self.durable = bool(durable)
        self.fault_plan = fault_plan
        lock_path = (
            self.cache_dir / ".lock"
            if self.cache_dir is not None
            else Path(".unused-lock")
        )
        self._lock = FileLock(
            lock_path, enabled=locking and self.cache_dir is not None
        )

    # ----------------------------------------------------------------- lookup
    def path_for(self, signature: str) -> Path | None:
        """On-disk location of one entry (``None`` when memory-only)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{signature}.json"

    def lookup(
        self,
        signature: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        tracer: Tracer | None = None,
    ) -> dict[str, TimingModel] | None:
        """Models re-keyed to ``inputs``/``outputs``, or ``None`` on miss.

        The positional payload must match the requested port arity; an
        arity mismatch means the signature collided with a different
        interface and is treated as corrupt.  ``tracer`` (the caller's
        run) receives a timed ``cache-hit`` or ``cache-miss`` event
        (phase ``"cache"``).
        """
        tracer = ensure_tracer(tracer)
        t0 = time.perf_counter() if tracer.enabled else 0.0
        entry = self._recall(signature, len(inputs), len(outputs))
        if entry is not None:
            self.stats.inc("hits")
            self.stats.inc("memory_hits")
            self._trace_lookup(tracer, "cache-hit", signature, t0, "memory")
            return self._rekey(entry, inputs, outputs)
        entry = self._read_disk(signature, len(inputs), len(outputs), tracer)
        if entry is not None:
            with self._mutex:
                self._remember(signature, entry)
            self.stats.inc("hits")
            self.stats.inc("disk_hits")
            self._trace_lookup(tracer, "cache-hit", signature, t0, "disk")
            return self._rekey(entry, inputs, outputs)
        self.stats.inc("misses")
        self._trace_lookup(tracer, "cache-miss", signature, t0, None)
        return None

    @staticmethod
    def _trace_lookup(
        tracer: Tracer, kind: str, signature: str, t0: float, layer: str | None
    ) -> None:
        if not tracer.enabled:
            return
        tracer.count(f"library.{'hits' if layer else 'misses'}")
        attrs = {"signature": signature[:16]}
        if layer is not None:
            attrs["layer"] = layer
        tracer.event(
            kind,
            phase="cache",
            seconds=time.perf_counter() - t0,
            **attrs,
        )

    def _recall(
        self, signature: str, num_inputs: int, num_outputs: int
    ) -> _Entry | None:
        """The memory layer's entry for ``signature`` (now most recent)."""
        with self._mutex:
            entry = self._memory.get(signature)
            if entry is None:
                return None
            if len(entry) == num_outputs and all(
                len(t) == num_inputs for tuples in entry for t in tuples
            ):
                self._memory.move_to_end(signature)
                return entry
            del self._memory[signature]
        self.stats.inc("corrupt_entries")
        return None

    def _read_disk(
        self,
        signature: str,
        num_inputs: int,
        num_outputs: int,
        tracer: Tracer,
    ) -> _Entry | None:
        path = self.path_for(signature)
        if path is None:
            return None
        try:
            with self._lock.shared():
                raw = path.read_text()
        except OSError:
            return None
        if self.fault_plan is not None:
            rule = self.fault_plan.take("store.read", signature=signature)
            if rule is not None:
                raw = rule.message  # undecodable → real corrupt-entry path
        try:
            document = json.loads(raw)
        except (ValueError, RecursionError):
            return self._reject(path, "corrupt", tracer)
        if not isinstance(document, dict):
            return self._reject(path, "corrupt", tracer)
        if (
            document.get("format") != FORMAT_NAME
            or document.get("version") != FORMAT_VERSION
        ):
            return self._reject(path, "schema", tracer)
        try:
            if (
                document["signature"] != signature
                or int(document["num_inputs"]) != num_inputs
            ):
                return self._reject(path, "corrupt", tracer)
            models = document["models"]
            if len(models) != num_outputs:
                return self._reject(path, "corrupt", tracer)
            entry = tuple(
                tuple(
                    tuple(float(v) for v in tup) for tup in model["tuples"]
                )
                for model in models
            )
        except (KeyError, TypeError, ValueError):
            return self._reject(path, "corrupt", tracer)
        if any(
            not tuples or any(len(t) != num_inputs for t in tuples)
            for tuples in entry
        ):
            return self._reject(path, "corrupt", tracer)
        return entry

    def _reject(self, path: Path, reason: str, tracer: Tracer) -> None:
        """Count a bad on-disk entry and move it into quarantine."""
        self.stats.inc(
            "schema_mismatches" if reason == "schema" else "corrupt_entries"
        )
        self.stats.inc("quarantined")
        qdir = self.cache_dir / QUARANTINE_DIR
        try:
            with self._lock.exclusive():
                qdir.mkdir(exist_ok=True)
                os.replace(path, qdir / path.name)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        if tracer.enabled:
            tracer.count("library.quarantined")
            tracer.event(
                "cache-quarantine",
                phase="cache",
                entry=path.name,
                reason=reason,
            )
        return None

    @staticmethod
    def _rekey(
        entry: _Entry, inputs: Sequence[str], outputs: Sequence[str]
    ) -> dict[str, TimingModel]:
        return {
            out: TimingModel(out, tuple(inputs), entry[j])
            for j, out in enumerate(outputs)
        }

    # ------------------------------------------------------------------ store
    def store(
        self,
        signature: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        models: Mapping[str, TimingModel],
        tracer: Tracer | None = None,
    ) -> None:
        """Persist one module's models under ``signature``.

        ``models`` must hold one model per output, aligned with
        ``inputs`` (the shape produced by ``characterize_network``).
        ``tracer`` (the caller's run) receives a ``cache-store`` event.
        """
        tracer = ensure_tracer(tracer)
        t0 = time.perf_counter() if tracer.enabled else 0.0
        entry: _Entry = tuple(models[out].tuples for out in outputs)
        with self._mutex:
            self._remember(signature, entry)
        self.stats.inc("stores")
        path = self.path_for(signature)
        if path is None:
            self._trace_store(tracer, signature, t0, persisted=False)
            return
        document = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "signature": signature,
            "num_inputs": len(inputs),
            "models": [
                {"tuples": [list(t) for t in tuples]} for tuples in entry
            ],
        }
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{signature[:16]}.", suffix=".tmp", dir=self.cache_dir
        )
        try:
            with os.fdopen(fd, "w") as fp:
                json.dump(document, fp)
                if self.durable:
                    fp.flush()
                    os.fsync(fp.fileno())
            with self._lock.exclusive():
                os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.fault_plan is not None:
            rule = self.fault_plan.take("store.corrupt", signature=signature)
            if rule is not None:
                # Data fault: garble the persisted entry and forget the
                # in-memory copy so the next lookup must decode the file.
                path.write_text(rule.message)
                with self._mutex:
                    self._memory.pop(signature, None)
        self._trace_store(tracer, signature, t0, persisted=True)

    @staticmethod
    def _trace_store(
        tracer: Tracer, signature: str, t0: float, persisted: bool
    ) -> None:
        if not tracer.enabled:
            return
        tracer.count("library.stores")
        tracer.event(
            "cache-store",
            phase="cache",
            seconds=time.perf_counter() - t0,
            signature=signature[:16],
            persisted=persisted,
        )

    def _remember(self, signature: str, entry: _Entry) -> None:
        """Insert ``entry`` as most recent (the caller holds ``_mutex``)."""
        self._memory[signature] = entry
        self._memory.move_to_end(signature)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.inc("evictions")

    # ------------------------------------------------------------------ misc
    def __len__(self) -> int:
        """Number of entries currently in the memory layer."""
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.cache_dir) if self.cache_dir else "memory-only"
        return f"ModelLibrary({where!r}, entries={len(self._memory)})"


#: The memory-only library Step 1 consults and fills when its caller
#: passes none (:func:`~repro.library.scheduler.characterize_modules`),
#: shared by every analyzer, session and server registration of the
#: process.  Read at call time: a test swaps in a fresh one.
PROCESS_LIBRARY = ModelLibrary()
