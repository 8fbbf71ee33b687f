"""Numpy detection for the compiled kernel.

The kernel's batched executor vectorizes over scenarios with numpy when
it is importable; every code path has a pure-python fallback so the
package stays dependency-free (``pyproject.toml`` declares none).  All
gating goes through this module so tests can assert both paths exist.
"""

from __future__ import annotations

try:  # pragma: no cover - trivially true or false per environment
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None
    HAVE_NUMPY = False

#: Below this batch size the python executor usually wins (per-node numpy
#: call overhead exceeds the vectorization gain), so :func:`pick_backend`
#: stays on the pure-python flat-array path.
NUMPY_MIN_BATCH = 8


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed."""
    return _np


def pick_backend(count: int) -> str:
    """The executor for a batch: ``"numpy"`` or ``"python"``.

    Numpy for batches of at least :data:`NUMPY_MIN_BATCH` scenarios when
    numpy is importable, the pure-python executor otherwise.  Both give
    bit-identical answers, so the choice only moves time.
    """
    if HAVE_NUMPY and count >= NUMPY_MIN_BATCH:
        return "numpy"
    return "python"
