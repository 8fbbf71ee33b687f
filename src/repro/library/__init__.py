"""Persistent model library: characterize once, reuse everywhere.

The paper's Section 3.1/3.3 observation — a leaf module's timing model is
environment-independent — makes characterized models durable artifacts.
This subsystem turns that into infrastructure:

* :mod:`repro.library.signature` — content addressing: a canonical
  structural hash of a module (stable under signal/instance renaming)
  combined with the characterization parameters;
* :mod:`repro.library.store` — :class:`ModelLibrary`, an on-disk JSON
  store with atomic writes, corruption fallback, and a thread-safe
  in-memory LRU; ``store.PROCESS_LIBRARY`` is the memory-only one that
  Step 1 uses when its caller passes none, so a process characterizes
  each module structure once;
* :mod:`repro.library.scheduler` — Step 1 of every hierarchical
  analysis: one resilient runner over output cones, in-process or over
  worker processes, with deterministic merging, under the module layer
  that characterizes all uncached leaf modules;
* :mod:`repro.library.stats` — hit/miss/evict/characterization counters
  appended to the ``hier-report`` (two-step) report.

Typical use::

    from repro.api import AnalysisOptions
    from repro.library import ModelLibrary
    lib = ModelLibrary("~/.cache/repro-models")
    HierarchicalAnalyzer(
        design, library=lib, options=AnalysisOptions(jobs=4)
    ).analyze()
    # second run (or any other design reusing the modules): zero
    # characterizations, all models come from the library.
"""

from repro.library.scheduler import characterize_modules
from repro.library.signature import module_signature, network_signature
from repro.library.stats import LibraryStats
from repro.library.store import FORMAT_NAME, FORMAT_VERSION, ModelLibrary

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "LibraryStats",
    "ModelLibrary",
    "characterize_modules",
    "module_signature",
    "network_signature",
]
