"""Concurrent AnalysisSession use: the compiled-executor cache under
threads.

The server leans on one :class:`~repro.kernel.design.CompiledDesign`
handle being safely shareable across request threads — the per-backend
executor cache and the net-index caches are populated lazily, so the
interesting case is many threads racing those caches cold.  Every
concurrent result must be bit-identical to the single-threaded
reference (floats compared with ``==``, not a tolerance).
"""

import threading

import pytest

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder

N_THREADS = 8
ROUNDS = 12


@pytest.fixture(scope="module")
def session():
    return AnalysisSession(cascade_adder(8, 2))


@pytest.fixture(scope="module")
def scenarios(session):
    inputs = session.design.inputs
    return [
        {name: float(i + j) for j, name in enumerate(inputs[: i + 1])}
        for i in range(6)
    ]


def _hammer(worker, n_threads=N_THREADS):
    """Run ``worker(i)`` on N threads; re-raise the first failure."""
    errors = []

    def wrapped(i):
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - collected, re-raised
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    if errors:
        raise errors[0]


class TestCompiledHandleThreadSafety:
    def test_propagate_rows_bit_identical_across_threads(
        self, session, scenarios
    ):
        handle = session.compile()
        reference = handle.propagate_rows(scenarios)

        def worker(i):
            # vary the row count per thread: small batches run on the
            # python executor and the full one on numpy (when installed),
            # so the first call per executor races the cache fill
            # against the other threads
            count = [1, 2, 3, len(scenarios)][i % 4]
            for _ in range(ROUNDS):
                rows = handle.propagate_rows(scenarios[:count])
                assert rows == reference[:count]

        _hammer(worker)

    def test_propagate_dicts_and_nets_filter_across_threads(
        self, session, scenarios
    ):
        handle = session.compile()
        full = handle.propagate(scenarios)
        outputs_only = handle.propagate(scenarios, nets=handle.outputs)

        def worker(i):
            for _ in range(ROUNDS):
                if i % 2:
                    assert handle.propagate(scenarios) == full
                else:
                    got = handle.propagate(scenarios, nets=handle.outputs)
                    assert got == outputs_only

        _hammer(worker)

    def test_concurrent_compile_calls_agree(self):
        # cold sessions compiled from many threads at once: every handle
        # must produce the same answers as a serially-compiled one
        design = cascade_adder(4, 2)
        reference = AnalysisSession(design).compile().propagate_rows([{}])
        session = AnalysisSession(design)

        def worker(_i):
            handle = session.compile()
            assert handle.propagate_rows([{}]) == reference

        _hammer(worker)

    def test_analyze_batch_matches_handle(self, session, scenarios):
        from repro.scenarios import ScenarioSet

        result = session.analyze_batch(ScenarioSet.of(*scenarios))
        handle = session.compile()
        rows = handle.propagate_rows(scenarios, nets=handle.outputs)
        assert len(result) == len(rows)
        for per_scenario, row in zip(result, rows):
            assert per_scenario.delay == max(row)
