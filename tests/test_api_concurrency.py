"""Concurrent AnalysisSession use: the compiled-executor cache under
threads.

The server leans on one :class:`~repro.kernel.design.CompiledDesign`
handle being safely shareable across request threads — the per-backend
executor cache and the net-index caches are populated lazily, so the
interesting case is many threads racing those caches cold.  Every
concurrent result must be bit-identical to the single-threaded
reference (floats compared with ``==``, not a tolerance).
"""

import random
import sys
import threading

import pytest

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.kernel import CompiledDesign, PythonExecutor
from repro.scenarios import ScenarioSet
from tests.conftest import reset_process_library

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
    assert not any(t.is_alive() for t in threads), "a worker hung"
    if errors:
        raise errors[0]


class TestCompiledHandleThreadSafety:
    def test_propagate_rows_bit_identical_across_threads(
        self, session, scenarios
    ):
        handle = session.compile()
        reference = handle.propagate(scenarios)

        def worker(i):
            # vary the row count per thread, so the first call races
            # the executor cache fill against the other threads
            count = [1, 2, 3, len(scenarios)][i % 4]
            for _ in range(ROUNDS):
                rows = handle.propagate(scenarios[:count])
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

    def test_cold_row_key_caches_race(self, scenarios):
        # one fresh handle: every thread races its empty row-key cache
        # (every net, an output filter, the output keys a batch reads)
        # while the interpreter switches threads as often as it can
        design = cascade_adder(8, 2)
        batch_in = ScenarioSet.of(*scenarios * 2)
        reference = AnalysisSession(design)
        full = reference.compile().propagate(scenarios * 2)
        expected = reference.analyze_batch(batch_in)
        session = AnalysisSession(design)
        handle = session.compile()

        def worker(i):
            if i % 3 == 0:
                assert handle.propagate(scenarios * 2) == full
            elif i % 3 == 1:
                got = handle.propagate(scenarios * 2, nets=handle.outputs)
                assert got == [r.output_times for r in expected]
            else:
                got = session.analyze_batch(batch_in).to_dict()
                assert got["scenarios"] == expected.to_dict()["scenarios"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(worker, n_threads=12)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("warm", [1, 64])
    def test_cold_mode_arrays_race(self, warm):
        # fresh handles: 1-row calls walk, 64-row calls take the level
        # loop; each mode's arrays are built by its first call, and the
        # warm-up call builds only one mode's, so the first call of the
        # other races its build against threads that run the mode
        # already built or start the same one on the same executor;
        # every row must equal the python executor's
        design = cascade_adder(256, 2)
        rng = random.Random(3)
        scenarios = [
            {x: rng.uniform(0.0, 9.0) for x in rng.sample(design.inputs, 6)}
            for _ in range(64)
        ]
        session = AnalysisSession(design)
        plan = session.compile().plan
        expected = PythonExecutor(plan).propagate(
            session.compile().rows_from(scenarios)
        )
        for _ in range(20):
            # One executor for every thread, one mode's arrays unbuilt.
            handle = CompiledDesign(plan, session.compile().outputs)
            handle.propagate(scenarios[:warm])
            start = threading.Barrier(12)

            def worker(i):
                start.wait(30)
                for r in range(3):
                    count = 64 if (i + r) % 2 else 1
                    views = handle.propagate(scenarios[:count])
                    got = [list(v.values()) for v in views]
                    assert got == expected[:count]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                _hammer(worker, n_threads=12)
            finally:
                sys.setswitchinterval(interval)

    def test_concurrent_compile_calls_agree(self):
        # cold sessions compiled from many threads at once: every handle
        # must produce the same answers as a serially-compiled one
        design = cascade_adder(4, 2)
        reference = AnalysisSession(design).compile().propagate([{}])
        reset_process_library()  # the threads' Step 1 is cold too
        session = AnalysisSession(design)

        def worker(_i):
            handle = session.compile()
            assert handle.propagate([{}]) == reference

        _hammer(worker)

    def test_analyze_batch_matches_handle(self, session, scenarios):
        result = session.analyze_batch(ScenarioSet.of(*scenarios))
        handle = session.compile()
        rows = handle.propagate(scenarios, nets=handle.outputs)
        assert len(result) == len(rows)
        for per_scenario, row in zip(result, rows):
            assert per_scenario.delay == max(row.values())
