"""Tests for per-instance SDC-aware characterization (footnote 6)."""

import pytest

from repro.circuits.adders import cascade_adder
from repro.core.demand import flat_functional_delay
from repro.core.hier import HierarchicalAnalyzer
from repro.core.instance_models import (
    PerInstanceAnalyzer,
    instance_care_network,
)
from repro.core.xbd0 import StabilityAnalyzer
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign, Module
from repro.netlist.network import Network
from repro.sim.vectors import all_vectors
from tests.reference import brute_force_witness


def sdc_design() -> HierDesign:
    """A design whose second module's select input is always 1.

    Module ``mux_mod``: z = MUX(s, long(a), b) where the a-branch rides a
    4-deep chain.  The driver forces s = OR(x, NOT x) = 1, so the long
    branch is never selected — but only the care set knows that.
    """
    mux_mod = Network("mux_mod")
    s, a, b = mux_mod.add_inputs(["s", "a", "b"])
    sig = a
    for i in range(4):
        sig = mux_mod.add_gate(f"ch{i}", "BUF", [sig], 1.0)
    mux_mod.add_gate("z", "MUX", [s, sig, b], 1.0)
    mux_mod.set_outputs(["z"])

    driver = Network("one_mod")
    x = driver.add_input("x")
    nx = driver.add_gate("nx", "NOT", [x], 1.0)
    driver.add_gate("one", "OR", [x, nx], 1.0)
    driver.set_outputs(["one"])

    design = HierDesign("sdc")
    design.add_module(Module("mux_mod", mux_mod))
    design.add_module(Module("one_mod", driver))
    for pi in ("x", "a", "b"):
        design.add_input(pi)
    design.add_instance("u_one", "one_mod", {"x": "x", "one": "sel"})
    design.add_instance(
        "u_mux", "mux_mod", {"s": "sel", "a": "a", "b": "b", "z": "z"}
    )
    design.set_outputs(["z"])
    design.validate()
    return design


class TestCareNetwork:
    def test_outputs_named_after_ports(self):
        design = sdc_design()
        care = instance_care_network(design, "u_mux")
        assert set(care.outputs) == {"s", "a", "b"}

    def test_image_is_restricted(self):
        design = sdc_design()
        care = instance_care_network(design, "u_mux")
        images = set()
        for vec in all_vectors(care.inputs):
            values = care.output_values(vec)
            images.add((values["s"], values["a"], values["b"]))
        # s is always True in the image
        assert all(s for s, _, _ in images)
        # a, b range freely
        assert len(images) == 4

    def test_pi_fed_port_is_free(self):
        design = cascade_adder(4, 2)
        care = instance_care_network(design, "u0")
        # u0's ports are all fed by top PIs: the care image is everything
        count = sum(1 for _ in all_vectors(care.inputs))
        images = {
            tuple(care.output_values(vec)[p] for p in care.outputs)
            for vec in all_vectors(care.inputs)
        }
        assert len(images) == count  # bijective pass-through


class TestCareAwareStability:
    def test_care_removes_false_branch(self):
        design = sdc_design()
        module = design.modules["mux_mod"].network
        care = instance_care_network(design, "u_mux")
        # generic: the long branch constrains 'a' (delay 5)
        generic = StabilityAnalyzer(module, {"a": -5.0, "s": -1.0, "b": -1.0})
        assert generic.stable_at("z", 0.0)
        loose = StabilityAnalyzer(
            module, {"a": 100.0, "s": -1.0, "b": -1.0}
        )
        assert not loose.stable_at("z", 0.0)
        # with the care set (s always 1), 'a' is irrelevant
        with_care = StabilityAnalyzer(
            module, {"a": 100.0, "s": -1.0, "b": -1.0}, care=care
        )
        assert with_care.stable_at("z", 0.0)

    def test_brute_engine_agrees_with_sat(self):
        """SAT under a care network agrees with brute-force enumeration
        of the care image."""
        design = sdc_design()
        module = design.modules["mux_mod"].network
        care = instance_care_network(design, "u_mux")
        verdicts = set()
        for arrival_a in (-5.0, 0.0, 100.0):
            arrival = {"a": arrival_a, "s": -1.0, "b": -1.0}
            sat = StabilityAnalyzer(module, arrival, "sat", care=care)
            for t in (-0.5, 0.0):
                brute = brute_force_witness(module, "z", t, arrival, care)
                assert sat.stable_at("z", t) == (brute is None)
                verdicts.add(brute is None)
        assert verdicts == {True, False}

    def test_bdd_engine_rejects_care(self):
        design = sdc_design()
        module = design.modules["mux_mod"].network
        care = instance_care_network(design, "u_mux")
        with pytest.raises(AnalysisError):
            StabilityAnalyzer(module, engine="bdd", care=care)

    def test_care_outputs_must_be_pis(self):
        net = Network("n")
        net.add_input("a")
        net.add_gate("z", "BUF", ["a"], 1.0)
        net.set_outputs(["z"])
        bad_care = Network("c")
        bad_care.add_input("x")
        bad_care.add_gate("zz", "BUF", ["x"], 0.0)
        bad_care.set_outputs(["zz"])
        with pytest.raises(AnalysisError):
            StabilityAnalyzer(net, care=bad_care)


class TestInstanceCharacterization:
    def test_sdc_model_drops_the_dead_branch(self):
        design = sdc_design()
        models = PerInstanceAnalyzer(design).models_for_instance("u_mux")
        z = models["z"]
        # module input order: s, a, b
        assert z.inputs == ("s", "a", "b")
        assert z.delay_from("a") == float("-inf")  # never selected
        assert z.delay_from("b") == 1.0
        # the generic model keeps the chain
        generic = HierarchicalAnalyzer(design).models_for("mux_mod")["z"]
        assert generic.delay_from("a") == 5.0

    def test_per_instance_analyzer_more_accurate_yet_conservative(self):
        design = sdc_design()
        arrival = {"a": 10.0}  # the dead branch arrives very late
        per_instance = PerInstanceAnalyzer(design).analyze(arrival)
        generic = HierarchicalAnalyzer(design).analyze(arrival)
        flat_delay, _, _ = flat_functional_delay(design, arrival)
        assert per_instance.delay <= generic.delay
        assert flat_delay <= per_instance.delay + 1e-9
        # the whole point: the per-instance model ignores 'a'
        assert per_instance.delay < generic.delay

    def test_equals_generic_when_no_sdc(self):
        design = cascade_adder(4, 2)
        per_instance = PerInstanceAnalyzer(design).analyze()
        generic = HierarchicalAnalyzer(design).analyze()
        # first block has free inputs; second block's c_in is driven but
        # the carry can take both values, so models coincide
        assert per_instance.delay == generic.delay
        for out in design.outputs:
            assert per_instance.output_times[out] == pytest.approx(
                generic.output_times[out]
            )

    def test_unknown_instance_rejected(self):
        design = cascade_adder(4, 2)
        analyzer = PerInstanceAnalyzer(design)
        with pytest.raises(AnalysisError):
            analyzer.models_for_instance("ghost")
