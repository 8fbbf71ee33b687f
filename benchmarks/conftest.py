"""Shared fixtures of the benchmark suite.

Run from a checkout: ``PYTHONPATH=src python -m pytest benchmarks/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The ledger's smoke test needs no PYTHONPATH (its workloads set their
# own); this module must import there too.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.library import store  # noqa: E402


def reset_process_library() -> None:
    """Swap in an empty :data:`~repro.library.store.PROCESS_LIBRARY`,
    so the next analysis of any module structure characterizes it."""
    store.PROCESS_LIBRARY = store.ModelLibrary()


@pytest.fixture(autouse=True)
def clear_memo():
    """Every benchmark starts from a fresh process's model library.

    So a benchmark that analyzes a structure pays for its Step 1 once,
    whichever benchmarks ran before it.  The value is the reset itself:
    a benchmark that needs a cold Step 1 in every round passes it as
    ``benchmark.pedantic(..., setup=clear_memo)``.
    """
    original = store.PROCESS_LIBRARY
    reset_process_library()
    yield reset_process_library
    store.PROCESS_LIBRARY = original
