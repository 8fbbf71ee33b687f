"""Cross-cutting property tests for the invariants in DESIGN.md §7."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.required import approx_required_tuples
from repro.core.xbd0 import StabilityAnalyzer
from repro.errors import NetlistError
from repro.netlist.ops import networks_equivalent_on
from repro.resilience import FaultPlan
from repro.sim.timed import brute_force_stable_at, stable_times
from repro.sim.vectors import random_vectors
from repro.sta.topological import arrival_times
from tests.conftest import reset_process_library
from tests.reference import equivalent


class TestMonotoneSpeedup:
    """XBD0's monotone speedup property (paper footnote 7): making any
    input arrive earlier never worsens the stability of an output."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_earlier_arrival_never_hurts(self, seed, data):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        out = net.outputs[0]
        base_arrival = {
            x: float(data.draw(st.integers(0, 4))) for x in net.inputs
        }
        sped_up = dict(base_arrival)
        victim = data.draw(st.sampled_from(sorted(net.inputs)))
        sped_up[victim] = base_arrival[victim] - float(
            data.draw(st.integers(1, 3))
        )
        base = StabilityAnalyzer(net, base_arrival).functional_delay(out)
        faster = StabilityAnalyzer(net, sped_up).functional_delay(out)
        assert faster <= base + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_per_vector_monotone(self, seed, data):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        out = net.outputs[0]
        vec = {x: data.draw(st.booleans()) for x in net.inputs}
        base_arrival = {
            x: float(data.draw(st.integers(0, 4))) for x in net.inputs
        }
        sped_up = {x: t - 1.0 for x, t in base_arrival.items()}
        base = stable_times(net, vec, base_arrival)[out]
        faster = stable_times(net, vec, sped_up)[out]
        assert faster <= base + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_stability_monotone_in_time(self, seed):
        net = random_network(4, 12, seed=seed, num_outputs=1)
        out = net.outputs[0]
        analyzer = StabilityAnalyzer(net)
        topo = arrival_times(net)[out]
        flags = [
            analyzer.stable_at(out, t)
            for t in (topo - 3, topo - 2, topo - 1, topo, topo + 1)
        ]
        assert flags == sorted(flags)
        assert flags[-1] is True  # topological arrival always suffices


class TestFlattening:
    @pytest.mark.parametrize("n, m", [(4, 2), (6, 2), (8, 4), (6, 3)])
    def test_cascade_flatten_miter_unsat(self, n, m):
        """SAT-proved equivalence of two independent flattenings."""
        design = cascade_adder(n, m)
        flat = design.flatten()
        # self-miter against an independent flattening
        assert equivalent(flat, design.flatten(name="again"))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bipartition_flatten_equivalence(self, seed):
        net = random_network(6, 20, seed=seed, num_outputs=2)
        try:
            design = cascade_bipartition(net)
        except Exception:
            return
        assert networks_equivalent_on(
            net, design.flatten(), random_vectors(net.inputs, 24, seed=seed)
        )


class TestRequiredTupleSoundness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(-4, 4))
    def test_tuples_valid_at_any_required_time(self, seed, required):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        out = net.outputs[0]
        result = approx_required_tuples(net, out, required=float(required))
        cone = net.extract_cone(out)
        for tup in result.tuples:
            arrival = dict(zip(result.inputs, tup))
            analyzer = StabilityAnalyzer(cone, arrival)
            assert analyzer.stable_at(out, float(required))


class TestEngineAgreementOnChecks:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(-2, 8))
    def test_stable_at_same_verdict(self, seed, t):
        net = random_network(5, 12, seed=seed, num_outputs=1)
        out = net.outputs[0]
        verdicts = {
            engine: StabilityAnalyzer(net, engine=engine).stable_at(
                out, float(t)
            )
            for engine in ("sat", "bdd")
        }
        verdicts["brute"] = brute_force_stable_at(net, out, float(t))
        assert len(set(verdicts.values())) == 1, verdicts


def _bipartition(seed):
    try:
        return cascade_bipartition(
            random_network(6, 18, seed=seed, num_outputs=3)
        )
    except NetlistError:
        assume(False)


@pytest.mark.faulty
class TestDegradedStepOneBounds:
    """Theorem 1 on the degraded Step-1 paths: per output, flat XBD0 ≤
    hierarchical ≤ topological and flat XBD0 ≤ per-instance ≤
    topological, whichever cones fail or miss the deadline."""

    @staticmethod
    def assert_bounded(design, hier_options, inst_options):
        # Each example starts from a fresh process's memo: an earlier
        # example's clean run of the same structure would answer this
        # one's faulted Step 1.
        reset_process_library()
        flat = AnalysisSession(design).functional_delays()
        topological = AnalysisSession(
            design, functional=False
        ).hierarchical().output_times
        hier = AnalysisSession(design, **hier_options).hierarchical()
        inst = AnalysisSession(design, **inst_options).per_instance()
        for out in design.outputs:
            assert flat[out] <= hier.output_times[out] + 1e-9
            assert hier.output_times[out] <= topological[out] + 1e-9
            assert flat[out] <= inst.output_times[out] + 1e-9
            assert inst.output_times[out] <= topological[out] + 1e-9
        return hier, inst

    @staticmethod
    def fallbacks(result):
        return {
            d.subject
            for d in result.degradations
            if d.kind == "characterization-error"
        }

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_failed_cones(self, seed, data):
        design = _bipartition(seed)
        hier_plan, inst_plan = FaultPlan(), FaultPlan()
        hier_failed, inst_failed = set(), set()
        for inst_name, inst in design.instances.items():
            outputs = design.modules[inst.module_name].outputs
            if not outputs:
                continue
            if data.draw(st.booleans()):
                # A module= rule hits every cone of its owner.
                hier_plan.add(
                    "scheduler.serial", times=-1, module=inst.module_name
                )
                inst_plan.add("scheduler.serial", times=-1, module=inst_name)
                failed = outputs
            else:
                failed = data.draw(st.sets(st.sampled_from(outputs)))
                for out in failed:
                    hier_plan.add(
                        "scheduler.serial", times=-1,
                        module=inst.module_name, output=out,
                    )
                    inst_plan.add(
                        "scheduler.serial", times=-1,
                        module=inst_name, output=out,
                    )
            hier_failed |= {f"{inst.module_name}:{out}" for out in failed}
            inst_failed |= {f"{inst_name}:{out}" for out in failed}
        hier, inst = self.assert_bounded(
            design, {"fault_plan": hier_plan}, {"fault_plan": inst_plan}
        )
        assert self.fallbacks(hier) == hier_failed
        assert self.fallbacks(inst) == inst_failed

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000))
    def test_missed_deadline(self, seed):
        design = _bipartition(seed)
        options = {"deadline": 1e-9}
        hier, inst = self.assert_bounded(design, options, options)
        cones = {
            (inst.module_name, out)
            for inst in design.instances.values()
            for out in design.modules[inst.module_name].outputs
        }
        assert len(self.fallbacks(hier)) == len(cones)
        assert len(self.fallbacks(inst)) == len(cones)
