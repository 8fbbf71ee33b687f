"""Numpy detection and the executor rule for the compiled kernel.

The kernel's batched executor vectorizes with numpy when it is
importable and the batch is large enough to pay for it; every code path
has a pure-python fallback so the package stays dependency-free
(``pyproject.toml`` declares none).  All gating goes through this module
(:func:`pick_backend`) so tests can assert both paths exist.
"""

from __future__ import annotations

try:  # pragma: no cover - trivially true or false per environment
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None
    HAVE_NUMPY = False

#: The fewest timing-tuple evaluations per topological level (plan
#: tuples × rows ÷ levels) a batch needs before numpy pays.  The python
#: executor's cost per row is mostly per tuple (about 0.9 µs each, plus
#: 0.09 µs per entry); the numpy one pays a fixed cost per level (a
#: gather, an add, a reduction and a store, 7-12 µs at one row) that
#: the level's work has to outweigh.  So what decides is the tuples per
#: level, not the plan's size: a wide plan runs on numpy from a single
#: query, and a plan of long chains stays on python for a few rows.
#: Read off the grid in DESIGN.md, "Choosing the executor" (``python
#: tools/bench_kernel.py``): csa W.2 plans (3 tuples per level) and
#: flattened cascades (2.8) ran on python about as fast as on numpy or
#: faster up to two rows and slower from three or four, csa W.8 plans
#: (9) ran faster on numpy from one row, and csa W.4 plans (5) came out
#: within 30% either way at one row.
NUMPY_MIN_LEVEL_TUPLES = 8


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed."""
    return _np


def pick_backend(tuples: int, levels: int, rows: int) -> str:
    """The executor for a batch: ``"numpy"`` or ``"python"``.

    Numpy when it is importable and the batch puts at least
    :data:`NUMPY_MIN_LEVEL_TUPLES` tuple evaluations on each of the
    plan's topological levels (``tuples * rows >= NUMPY_MIN_LEVEL_TUPLES
    * levels``; a plan without levels counts one), the pure-python
    executor otherwise.  Both give bit-identical answers, so the choice
    only moves time.
    """
    if HAVE_NUMPY and tuples * rows >= NUMPY_MIN_LEVEL_TUPLES * (levels or 1):
        return "numpy"
    return "python"
