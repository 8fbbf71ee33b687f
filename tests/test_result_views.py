"""Results read the kernel's matrix through read-only views.

``HierResult`` and the hierarchical ``ScenarioResult`` (``net_times``,
``output_times``, ``slacks``), ``CompiledDesign.propagate`` and
``arrival_times_batch`` hand out one
:class:`~repro.kernel.design.RowView` per scenario over a row of the
kernel's result matrix, where they used to build dicts.  These tests pin
what the dicts gave: Python ``float`` values, equality with the dict
built from the python executor's rows (either way round), the same key
order, no item assignment, and the same numbers from a batch row as
from a single query on either executor.
"""

import pytest

from repro.api import AnalysisSession
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.kernel import HAVE_NUMPY, PythonExecutor
from repro.sta.topological import arrival_times_batch

NEG_INF = float("-inf")
POS_INF = float("inf")


@pytest.fixture(scope="module")
def design():
    return cascade_adder(8, 2)


def scenarios(design, count):
    """``count`` sparse scenarios, one late input each."""
    inputs = design.inputs
    return [{inputs[i % len(inputs)]: 0.5 * i} for i in range(count)]


def dict_results(handle, outputs, scenario):
    """The dicts a result used to hold: net times from the python
    executor's row, then output times and slacks built from them."""
    row = PythonExecutor(handle.plan).propagate(handle.rows_from([scenario]))
    net_times = dict(zip(handle.plan.nets, row[0]))
    output_times = {o: net_times[o] for o in outputs}
    delay = max(output_times.values()) if output_times else NEG_INF
    slacks = {
        o: POS_INF if delay == NEG_INF or t == NEG_INF else delay - t
        for o, t in output_times.items()
    }
    return net_times, output_times, slacks


def assert_floats(view):
    assert all(type(view[name]) is float for name in view)
    assert all(type(v) is float for v in view.values())
    assert all(type(v) is float for _, v in view.items())


@pytest.mark.parametrize("count", [1, 8])
def test_values_are_python_floats(design, count):
    batch = HierarchicalAnalyzer(design).analyze_batch(
        scenarios(design, count)
    )
    for result in batch:
        assert type(result.delay) is float
        for view in (result.net_times, result.output_times, result.slacks):
            assert_floats(view)
    single = HierarchicalAnalyzer(design).analyze(scenarios(design, count)[-1])
    assert type(single.delay) is float
    assert_floats(single.net_times)
    assert_floats(single.output_times)
    handle = AnalysisSession(design).compile()
    for nets in (None, handle.outputs):
        for view in handle.propagate(scenarios(design, count), nets=nets):
            assert_floats(view)
    for view in arrival_times_batch(
        design.flatten(), scenarios(design, count)
    ):
        assert_floats(view)


@pytest.mark.parametrize("count", [1, 8])
def test_views_equal_the_dicts_they_replace(design, count):
    analyzer = HierarchicalAnalyzer(design)
    batch = analyzer.analyze_batch(scenarios(design, count))
    handle = analyzer.compile()
    for scenario, result in zip(scenarios(design, count), batch):
        views = (result.net_times, result.output_times, result.slacks)
        dicts = dict_results(handle, design.outputs, scenario)
        for view, expected in zip(views, dicts):
            assert view == expected and expected == view
            assert not view != expected
            assert list(view) == list(expected)
            assert list(view.values()) == list(expected.values())
            assert repr(view) == repr(expected)
            with pytest.raises(TypeError):
                view[next(iter(view))] = 0.0
        assert result.delay == max(result.output_times.values())


@pytest.fixture(params=["numpy", "python"])
def executor(request, monkeypatch):
    """Run batches on one executor: numpy, or python by hiding numpy."""
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy not installed")
    if request.param == "python":
        monkeypatch.setattr("repro.kernel.backend.HAVE_NUMPY", False)
    return request.param


def test_batch_rows_equal_single_queries(design, executor):
    analyzer = HierarchicalAnalyzer(design)
    batch_in = scenarios(design, 300)  # two chunks of the kernel
    batch = analyzer.analyze_batch(batch_in)
    assert len(batch) == 300
    for scenario, row in zip(batch_in, batch):
        single = analyzer.analyze(scenario)
        assert row.net_times == single.net_times
        assert row.output_times == single.output_times
        assert row.delay == single.delay
    assert batch.delay == max(batch.delays)


def test_nets_filter_keeps_columns_per_chunk(design, executor, monkeypatch):
    handle = AnalysisSession(design).compile()
    batch_in = scenarios(design, 11)
    whole = handle.propagate(batch_in)
    outputs = handle.propagate(batch_in, nets=handle.outputs)
    monkeypatch.setattr("repro.kernel.execute.CHUNK", 3)
    assert handle.propagate(batch_in, nets=handle.outputs) == outputs
    for full, out in zip(whole, outputs):
        assert list(out) == list(handle.outputs)
        assert out == {o: full[o] for o in handle.outputs}


def test_all_neg_inf_outputs_get_infinite_slack(design, executor):
    never = {x: NEG_INF for x in design.inputs}
    batch = HierarchicalAnalyzer(design).analyze_batch([never] * 8)
    for result in batch:
        assert result.delay == NEG_INF
        assert set(result.output_times.values()) == {NEG_INF}
        assert result.slacks == {o: POS_INF for o in design.outputs}
    assert batch.delay == NEG_INF


def test_results_survive_replace_module(executor):
    analyzer = IncrementalAnalyzer(cascade_adder(8, 2))
    before = analyzer.analyze_batch([{}] * 8)
    single = analyzer.analyze()
    kept_batch = [dict(r.net_times) for r in before]
    kept_single = dict(single.net_times)
    slow = carry_skip_block(2).with_delays(lambda gate: 2 * gate.delay)
    analyzer.replace_module("csa_block2", slow)
    after = analyzer.analyze_batch([{}] * 8)
    assert after.delay > before.delay == single.delay
    assert [dict(r.net_times) for r in before] == kept_batch
    assert dict(single.net_times) == kept_single
