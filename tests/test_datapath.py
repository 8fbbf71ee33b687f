"""Tests for the datapath generators (multiplier, barrel shifter)."""

import pytest

from repro.circuits.datapath import array_multiplier, barrel_shifter
from repro.circuits.partition import cascade_bipartition
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.xbd0 import functional_delays
from repro.errors import NetlistError
from repro.sim.vectors import all_vectors, random_vectors
from repro.sta.topological import arrival_times


class TestMultiplier:
    @pytest.mark.parametrize("wa,wb", [(1, 1), (2, 2), (3, 2), (3, 3)])
    def test_multiplies_exhaustively(self, wa, wb):
        net = array_multiplier(wa, wb)
        for vec in all_vectors(net.inputs):
            a = sum((1 << i) for i in range(wa) if vec[f"a{i}"])
            b = sum((1 << j) for j in range(wb) if vec[f"b{j}"])
            values = net.output_values(vec)
            p = sum(
                (1 << k)
                for k in range(wa + wb)
                if values.get(f"p{k}", False)
            )
            assert p == a * b

    def test_multiplies_randomized_4x4(self):
        net = array_multiplier(4, 4)
        for vec in random_vectors(net.inputs, 128, seed=17):
            a = sum((1 << i) for i in range(4) if vec[f"a{i}"])
            b = sum((1 << j) for j in range(4) if vec[f"b{j}"])
            values = net.output_values(vec)
            p = sum((1 << k) for k in range(8) if values[f"p{k}"])
            assert p == a * b

    def test_square_default(self):
        net = array_multiplier(3)
        assert len([x for x in net.inputs if x.startswith("b")]) == 3

    def test_has_false_paths(self):
        """The 4x4 array multiplier's top product bits carry falsity."""
        net = array_multiplier(4, 4)
        at = arrival_times(net)
        delays = functional_delays(net, outputs=("p7",))
        assert delays["p7"] < at["p7"]

    def test_invalid_width(self):
        with pytest.raises(NetlistError):
            array_multiplier(0)


class TestBarrelShifter:
    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_shifts(self, stages):
        net = barrel_shifter(stages)
        width = 1 << stages
        for vec in random_vectors(net.inputs, 64, seed=19):
            d = sum((1 << i) for i in range(width) if vec[f"d{i}"])
            sh = sum((1 << k) for k in range(stages) if vec[f"s{k}"])
            values = net.output_values(vec)
            y = sum((1 << i) for i in range(width) if values[f"y{i}"])
            assert y == (d << sh) & ((1 << width) - 1)

    def test_all_paths_true(self):
        """Every mux path in a barrel shifter is sensitizable: functional
        delay equals topological delay."""
        net = barrel_shifter(3)
        at = arrival_times(net)
        delays = functional_delays(net)
        for out in net.outputs:
            assert delays[out] == at[out]

    def test_invalid_stages(self):
        with pytest.raises(NetlistError):
            barrel_shifter(0)


class TestAsHierarchicalWorkloads:
    def test_multiplier_bipartition_conservative(self):
        net = array_multiplier(4, 4)
        design = cascade_bipartition(net)
        result = DemandDrivenAnalyzer(design).analyze()
        flat_delay, _, _ = flat_functional_delay(design)
        assert flat_delay <= result.delay <= result.topological_delay

    def test_shifter_bipartition_exact(self):
        net = barrel_shifter(3)
        design = cascade_bipartition(net)
        result = DemandDrivenAnalyzer(design).analyze()
        flat_delay, _, _ = flat_functional_delay(design)
        assert result.delay == flat_delay  # nothing false to lose


class TestWallaceMultiplier:
    @pytest.mark.parametrize("wa,wb", [(2, 2), (3, 3), (4, 3)])
    def test_multiplies_exhaustively(self, wa, wb):
        from repro.circuits.datapath import wallace_multiplier

        net = wallace_multiplier(wa, wb)
        for vec in all_vectors(net.inputs):
            a = sum((1 << i) for i in range(wa) if vec[f"a{i}"])
            b = sum((1 << j) for j in range(wb) if vec[f"b{j}"])
            values = net.output_values(vec)
            p = sum(
                (1 << k)
                for k in range(wa + wb)
                if values.get(f"p{k}", False)
            )
            assert p == a * b

    def test_shallower_than_array(self):
        from repro.circuits.datapath import wallace_multiplier
        from repro.netlist.ops import depth

        assert depth(wallace_multiplier(4, 4)) < depth(array_multiplier(4, 4))

    def test_equivalent_to_array(self):
        from repro.circuits.datapath import wallace_multiplier
        from tests.reference import equivalent

        wal = wallace_multiplier(3, 3)
        arr = array_multiplier(3, 3)
        # align output name sets: array 3x3 omits the always-zero top bit
        if set(wal.outputs) != set(arr.outputs):
            missing = set(wal.outputs) - set(arr.outputs)
            patched = arr.copy("arr_patched")
            for name in missing:
                patched.add_gate(name, "CONST0", (), 0.0)
            patched.set_outputs(list(arr.outputs) + sorted(missing))
            arr = patched
        assert equivalent(wal, arr)

    def test_invalid_width(self):
        from repro.circuits.datapath import wallace_multiplier

        with pytest.raises(NetlistError):
            wallace_multiplier(0)
