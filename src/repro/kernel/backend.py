"""Numpy detection and the executor rules for the compiled kernel.

The kernel's batched executor vectorizes with numpy whenever it is
importable; every code path has a pure-python fallback so the package
stays dependency-free (``pyproject.toml`` declares none).  All gating
goes through this module (:func:`pick_backend`, :func:`pick_mode`) so
tests can assert both paths exist.
"""

from __future__ import annotations

try:  # pragma: no cover - trivially true or false per environment
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None
    HAVE_NUMPY = False

#: The fewest spine-tuple evaluations per topological level (spine
#: tuples × rows ÷ levels) for which the numpy executor runs its level
#: loop instead of its walk.  The walk evaluates the spine (the nodes
#: some entry reads) per row in scalar Python, about 0.2 µs per spine
#: tuple, and everything else in two numpy passes per batch; the level
#: loop pays a fixed cost per level (a gather, an add, a reduction and
#: a store, about 5 µs at one row) whatever the rows.  A plan without a
#: spine always walks.  Read off the grid in DESIGN.md, "Choosing the
#: executor" (``python tools/bench_kernel.py``): 8 sent flattened plans
#: (about 2.4 spine tuples per level) to the level loop at 4 rows,
#: where the walk measured about 2x faster; 12 came out within the
#: host's noise of 10 (picks 2.5% and 2.6% slower than the faster mode
#: on average over the grid).
NUMPY_MIN_LEVEL_TUPLES = 10


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed."""
    return _np


def pick_backend() -> str:
    """The executor for a batch: ``"numpy"`` whenever it is installed.

    ``"python"`` (the pure-python executor) otherwise.  Both give
    bit-identical answers, so the choice only moves time.
    """
    return "numpy" if HAVE_NUMPY else "python"


def pick_mode(spine_tuples: int, levels: int, rows: int) -> str:
    """How the numpy executor evaluates a batch without a delay
    override: ``"walk"`` or ``"levels"``.

    The level loop once the batch puts at least
    :data:`NUMPY_MIN_LEVEL_TUPLES` spine-tuple evaluations on each of
    the plan's topological levels (``spine_tuples * rows >=
    NUMPY_MIN_LEVEL_TUPLES * levels``; a plan without levels counts
    one), the walk otherwise.  Both give bit-identical answers.
    """
    if spine_tuples * rows >= NUMPY_MIN_LEVEL_TUPLES * (levels or 1):
        return "levels"
    return "walk"
