"""Tests for the persistent model library (signatures, store, scheduler)."""

import hashlib
import json
import random
import sys
import threading

import pytest

from repro.api import AnalysisOptions, AnalysisSession
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.cli import main
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.core.instance_models import PerInstanceAnalyzer
from repro.core.required import characterize_network
from repro.core.timing_model import TimingModel
from repro.library import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ModelLibrary,
    characterize_modules,
    module_signature,
    network_signature,
    store,
)
from repro.netlist.hierarchy import HierDesign, Module
from repro.netlist.network import Network
from repro.obs import RingBufferSink, Tracer
from repro.parsers.verilog import dumps_verilog
from repro.resilience import FaultPlan

from tests.conftest import (
    assert_characterized_at,
    make_false_path_circuit,
    reset_process_library,
)


def renamed_copy(net: Network, prefix: str = "r") -> Network:
    """Same structure, every signal (ports included) renamed."""
    out = Network(f"{net.name}.renamed")
    mapping: dict[str, str] = {}
    for i, x in enumerate(net.inputs):
        mapping[x] = out.add_input(f"{prefix}_in{i}")
    for sig in net.topological_order():
        if net.is_input(sig):
            continue
        g = net.gate(sig)
        mapping[sig] = out.add_gate(
            f"{prefix}_{sig}_x",
            g.gtype,
            [mapping[f] for f in g.fanins],
            g.delay,
        )
    out.set_outputs([mapping[o] for o in net.outputs])
    return out


def tiny_module(name: str, gtype: str = "AND", delay: float = 1.0) -> Module:
    net = Network(name)
    net.add_inputs(["a", "b"])
    net.add_gate("z", gtype, ["a", "b"], delay)
    net.set_outputs(["z"])
    return Module(name, net)


def multi_module_design() -> HierDesign:
    """Four instances over three distinct structures (one pair of twins)."""
    d = HierDesign("multi")
    d.add_module(tiny_module("m_and", "AND"))
    d.add_module(tiny_module("m_and_twin", "AND"))  # same structure
    d.add_module(tiny_module("m_or", "OR", 2.0))
    d.add_module(Module("m_fp", make_false_path_circuit()))
    for i in range(1, 5):
        d.add_input(f"i{i}")
    d.add_instance("u1", "m_and", {"a": "i1", "b": "i2", "z": "n1"})
    d.add_instance("u2", "m_or", {"a": "n1", "b": "i3", "z": "n2"})
    d.add_instance("u3", "m_fp", {"s": "i4", "a": "n2", "z": "n3"})
    d.add_instance("u4", "m_and_twin", {"a": "i1", "b": "i3", "z": "n4"})
    d.set_outputs(["n3", "n4"])
    return d


def model_tuples(models):
    return {out: m.tuples for out, m in models.items()}


class TestSignature:
    def test_stable_under_renaming(self, csa_block2):
        assert network_signature(csa_block2) == network_signature(
            renamed_copy(csa_block2)
        )

    def test_stable_under_insertion_order(self):
        a = Network("order_a")
        a.add_inputs(["x", "y"])
        a.add_gate("g1", "AND", ["x", "y"])
        a.add_gate("g2", "OR", ["x", "y"])
        a.add_gate("z", "XOR", ["g1", "g2"])
        a.set_outputs(["z"])
        b = Network("order_b")
        b.add_inputs(["x", "y"])
        b.add_gate("g2", "OR", ["x", "y"])  # independent gates swapped
        b.add_gate("g1", "AND", ["x", "y"])
        b.add_gate("z", "XOR", ["g1", "g2"])
        b.set_outputs(["z"])
        assert network_signature(a) == network_signature(b)

    def test_sensitive_to_delay_and_type(self):
        assert network_signature(
            tiny_module("m", "AND", 1.0).network
        ) != network_signature(tiny_module("m", "AND", 2.0).network)
        assert network_signature(
            tiny_module("m", "AND").network
        ) != network_signature(tiny_module("m", "OR").network)

    def test_dangling_gates_ignored(self, csa_block2):
        padded = csa_block2.copy("padded")
        padded.add_gate("unused", "NOT", [padded.inputs[0]], 5.0)
        assert network_signature(padded) == network_signature(csa_block2)

    def test_parameters_change_key(self, csa_block2, monkeypatch):
        from repro.core import xbd0

        mod = Module("m", csa_block2)
        base = module_signature(mod)
        assert module_signature(mod) == base  # deterministic
        # the per-cone engine in use is part of the key: patching the
        # constant that drills it changes the key too
        monkeypatch.setattr(xbd0, "CONE_ENGINE", "bdd")
        assert module_signature(mod) != base
        monkeypatch.setattr(xbd0, "CONE_ENGINE", "sat")
        assert module_signature(mod) == base

    def test_key_is_pinned(self, csa_block2):
        # The key of every library written before the relaxation
        # budgets were fixed: stored models stay warm.
        assert module_signature(Module("b", csa_block2)) == (
            "46947bb9339de2c31a9860c86f67fb7f01aa2aebb62cc5efa36e00d085673b28"
        )

    def test_design_signatures_share_twins(self):
        sigs = {
            name: module_signature(module)
            for name, module in multi_module_design().modules.items()
        }
        assert set(sigs) == {"m_and", "m_and_twin", "m_or", "m_fp"}
        assert sigs["m_and"] == sigs["m_and_twin"]
        assert len(set(sigs.values())) == 3


class TestStore:
    @pytest.fixture()
    def block_models(self, csa_block2):
        return characterize_network(csa_block2)

    def test_round_trip_disk(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        fresh = ModelLibrary(tmp_path / "cache")
        got = fresh.lookup(sig, csa_block2.inputs, csa_block2.outputs)
        assert model_tuples(got) == model_tuples(block_models)
        assert fresh.stats.disk_hits == 1

    def test_round_trip_rekeys_ports(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        renamed = renamed_copy(csa_block2)
        got = lib.lookup(sig, renamed.inputs, renamed.outputs)
        assert tuple(got) == renamed.outputs
        for j, out in enumerate(renamed.outputs):
            assert got[out].inputs == renamed.inputs
            assert got[out].tuples == block_models[csa_block2.outputs[j]].tuples

    def test_memory_only(self, csa_block2, block_models):
        lib = ModelLibrary()
        sig = module_signature(Module("b", csa_block2))
        assert lib.path_for(sig) is None
        assert lib.lookup(sig, csa_block2.inputs, csa_block2.outputs) is None
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        got = lib.lookup(sig, csa_block2.inputs, csa_block2.outputs)
        assert model_tuples(got) == model_tuples(block_models)
        assert lib.stats.memory_hits == 1 and lib.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        lib.path_for(sig).write_text("{ not json")
        fresh = ModelLibrary(tmp_path / "cache")
        assert fresh.lookup(sig, csa_block2.inputs, csa_block2.outputs) is None
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.misses == 1
        # a store heals the bad entry in place
        fresh.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        healed = ModelLibrary(tmp_path / "cache")
        assert (
            healed.lookup(sig, csa_block2.inputs, csa_block2.outputs)
            is not None
        )

    def test_schema_version_mismatch(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        path = lib.path_for(sig)
        doc = json.loads(path.read_text())
        doc["version"] = FORMAT_VERSION + 999
        path.write_text(json.dumps(doc))
        fresh = ModelLibrary(tmp_path / "cache")
        assert fresh.lookup(sig, csa_block2.inputs, csa_block2.outputs) is None
        assert fresh.stats.schema_mismatches == 1

    def test_foreign_format_rejected(self, tmp_path, csa_block2):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.path_for(sig).write_text(json.dumps({"format": "other"}))
        assert lib.lookup(sig, csa_block2.inputs, csa_block2.outputs) is None
        assert lib.stats.schema_mismatches == 1

    def test_arity_mismatch_rejected(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        fresh = ModelLibrary(tmp_path / "cache")
        wrong = ("just_one_input",)
        assert fresh.lookup(sig, wrong, csa_block2.outputs) is None
        assert fresh.stats.corrupt_entries == 1

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        lib = ModelLibrary(tmp_path / "cache", max_memory_entries=1)
        for name, gtype in (("a", "AND"), ("b", "OR")):
            mod = tiny_module(name, gtype)
            models = characterize_network(mod.network)
            lib.store(
                module_signature(mod), mod.inputs, mod.outputs, models
            )
        assert lib.stats.evictions == 1
        assert len(lib) == 1
        evicted = tiny_module("a", "AND")
        got = lib.lookup(
            module_signature(evicted), evicted.inputs, evicted.outputs
        )
        assert got is not None
        assert lib.stats.disk_hits == 1

    def test_disk_payload_shape(self, tmp_path, csa_block2, block_models):
        lib = ModelLibrary(tmp_path / "cache")
        sig = module_signature(Module("b", csa_block2))
        lib.store(sig, csa_block2.inputs, csa_block2.outputs, block_models)
        doc = json.loads(lib.path_for(sig).read_text())
        assert doc["format"] == FORMAT_NAME
        assert doc["version"] == FORMAT_VERSION
        assert doc["signature"] == sig
        assert doc["num_inputs"] == len(csa_block2.inputs)
        assert len(doc["models"]) == len(csa_block2.outputs)
        # no stray temp files left behind by the atomic write
        leftovers = [
            p for p in (tmp_path / "cache").iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestScheduler:
    def test_serial_matches_characterize_network(self):
        design = multi_module_design()
        results = characterize_modules(design.modules)
        for name, module in design.modules.items():
            assert model_tuples(results[name]) == model_tuples(
                characterize_network(module.network)
            )

    @pytest.mark.slow
    def test_parallel_determinism(self):
        design = multi_module_design()
        serial = characterize_modules(design.modules)
        reset_process_library()  # else the parallel run reads the memo
        sink = RingBufferSink()
        parallel = characterize_modules(
            design.modules,
            AnalysisOptions(jobs=4, tracer=Tracer(sinks=[sink])),
        )
        assert {n: model_tuples(m) for n, m in serial.items()} == {
            n: model_tuples(m) for n, m in parallel.items()
        }
        assert_characterized_at(sink, 4)

    def test_twins_characterized_once(self):
        design = multi_module_design()
        lib = ModelLibrary()
        results = characterize_modules(design.modules, library=lib)
        assert lib.stats.characterizations == 3  # twins share one
        assert results["m_and_twin"]["z"].inputs == ("a", "b")
        assert (
            results["m_and_twin"]["z"].tuples
            == results["m_and"]["z"].tuples
        )

    def test_library_short_circuits_second_run(self, tmp_path):
        design = multi_module_design()
        lib = ModelLibrary(tmp_path / "cache")
        characterize_modules(design.modules, library=lib)
        again = ModelLibrary(tmp_path / "cache")
        results = characterize_modules(design.modules, library=again)
        assert again.stats.characterizations == 0
        assert again.stats.hits == len(design.modules)
        assert model_tuples(results["m_fp"]) == model_tuples(
            characterize_network(design.modules["m_fp"].network)
        )

    @pytest.mark.slow
    def test_network_parallel_matches_serial(self, csa_block2):
        serial = characterize_network(csa_block2)
        parallel = AnalysisSession(csa_block2, jobs=4).characterize()
        assert model_tuples(serial) == model_tuples(parallel)

    def test_network_parallel_uses_library(self, tmp_path, csa_block2):
        def characterize(lib):
            modules = {"blk": Module("blk", csa_block2)}
            return characterize_modules(modules, library=lib)["blk"]

        lib = ModelLibrary(tmp_path / "cache")
        first = characterize(lib)
        assert lib.stats.characterizations == 1
        again = ModelLibrary(tmp_path / "cache")
        second = characterize(again)
        assert again.stats.characterizations == 0
        assert model_tuples(first) == model_tuples(second)


class TestAnalyzerIntegration:
    def test_cache_hit_short_circuits_step1(self, tmp_path):
        design = cascade_adder(8, 2)
        baseline = HierarchicalAnalyzer(cascade_adder(8, 2)).analyze()
        cold = ModelLibrary(tmp_path / "cache")
        first = HierarchicalAnalyzer(design, library=cold).analyze()
        assert cold.stats.characterizations == 1
        warm = ModelLibrary(tmp_path / "cache")
        second = HierarchicalAnalyzer(
            cascade_adder(8, 2), library=warm
        ).analyze()
        assert warm.stats.characterizations == 0
        assert warm.stats.hits == 1
        # a hit still counts as freshly installed models for this run
        assert second.characterized_modules == ("csa_block2",)
        assert second.net_times == first.net_times == baseline.net_times

    def test_corrupted_cache_degrades_gracefully(self, tmp_path):
        design = cascade_adder(8, 2)
        baseline = HierarchicalAnalyzer(cascade_adder(8, 2)).analyze()
        lib = ModelLibrary(tmp_path / "cache")
        HierarchicalAnalyzer(design, library=lib).analyze()
        for entry in (tmp_path / "cache").iterdir():
            entry.write_text("\x00 garbage \x00")
        recover = ModelLibrary(tmp_path / "cache")
        result = HierarchicalAnalyzer(
            cascade_adder(8, 2), library=recover
        ).analyze()
        assert recover.stats.corrupt_entries == 1
        assert recover.stats.characterizations == 1
        assert result.net_times == baseline.net_times

    @pytest.mark.slow
    def test_parallel_jobs_same_result(self):
        design = multi_module_design()
        serial = HierarchicalAnalyzer(design).analyze()
        reset_process_library()  # else the parallel run reads the memo
        sink = RingBufferSink()
        parallel = HierarchicalAnalyzer(
            multi_module_design(),
            options=AnalysisOptions(jobs=4, tracer=Tracer(sinks=[sink])),
        ).analyze()
        assert parallel.net_times == serial.net_times
        assert set(parallel.characterized_modules) == set(serial.characterized_modules)
        assert_characterized_at(sink, 4)

    def test_topological_mode_skips_library(self, tmp_path):
        lib = ModelLibrary(tmp_path / "cache")
        HierarchicalAnalyzer(
            cascade_adder(8, 2),
            options=AnalysisOptions(functional=False),
            library=lib,
        ).analyze()
        assert lib.stats.hits == lib.stats.misses == lib.stats.stores == 0

    def test_incremental_eco_round_trip(self, tmp_path):
        lib = ModelLibrary(tmp_path / "cache")
        analyzer = IncrementalAnalyzer(cascade_adder(8, 2), library=lib)
        base = analyzer.analyze()
        eco = carry_skip_block(2).with_delays(
            lambda g: g.delay + 1.0, name="csa_block2_eco"
        )
        analyzer.replace_module("csa_block2", eco)
        bumped = analyzer.analyze()
        assert bumped.delay > base.delay
        assert lib.stats.characterizations == 2
        # reverting to the original structure is served from the library
        analyzer.replace_module("csa_block2", carry_skip_block(2))
        reverted = analyzer.analyze()
        assert reverted.delay == base.delay
        assert lib.stats.characterizations == 2
        assert analyzer.recharacterizations["csa_block2"] == 3

    def test_design_replace_module_rejects_interface_change(self):
        design = cascade_adder(8, 2)
        wrong = tiny_module("csa_block2").network
        with pytest.raises(Exception):
            design.replace_module("csa_block2", wrong)


class TestCLI:
    @pytest.fixture()
    def verilog_file(self, tmp_path):
        design = cascade_adder(8, 2)
        design.name = "csa8_2"
        f = tmp_path / "csa8_2.v"
        f.write_text(dumps_verilog(design))
        return str(f)

    def test_hier_report_second_run_zero_characterizations(
        self, verilog_file, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(["hier-report", verilog_file, "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "model library" in first
        assert "characterizations    : 1" in first
        assert main(["hier-report", verilog_file, "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "characterizations    : 0" in second
        assert "hits                 : 1" in second

        def delays(text):
            return [l for l in text.splitlines() if "estimated delay" in l]

        assert delays(first) == delays(second)

    def test_hier_report_default_path_unchanged(self, verilog_file, capsys):
        """Without --cache-dir no report prints model-library text; the
        demand-driven report, with its pessimism line, is ``demand``'s."""
        assert main(["hier-report", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "model library" not in out
        assert "modules characterized: 1" in out
        assert main(["demand", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "model library" not in out
        assert "pessimism removed" in out

    def test_hier_report_same_text_at_any_jobs(self, verilog_file, capsys):
        """``--jobs`` is a speed knob: the two-step report is the same
        bytes at any job count, with the two-step answer per output."""
        assert main(["hier-report", verilog_file]) == 0
        serial = capsys.readouterr().out
        reset_process_library()  # else the --jobs 2 run reads the memo
        assert main(["hier-report", verilog_file, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        memo = store.PROCESS_LIBRARY.stats
        assert (memo.hits, memo.characterizations) == (0, 1)
        rows = dict(
            line.split()
            for line in serial.splitlines()
            if line.startswith("  s") or line.startswith("  c8")
        )
        expected = AnalysisSession.from_file(verilog_file).hierarchical()
        assert {o: float(t) for o, t in rows.items()} == (
            expected.output_times
        )

    def test_characterize_cache_identical_output(
        self, tmp_path, capsys
    ):
        from repro.parsers.blif import dumps_blif

        blif = tmp_path / "csa.blif"
        blif.write_text(dumps_blif(carry_skip_block(2)))
        cache = str(tmp_path / "cache")
        out1 = tmp_path / "lib1.json"
        out2 = tmp_path / "lib2.json"
        assert (
            main(
                [
                    "characterize",
                    str(blif),
                    "--cache-dir",
                    cache,
                    "-o",
                    str(out1),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "characterize",
                    str(blif),
                    "--cache-dir",
                    cache,
                    "-o",
                    str(out2),
                ]
            )
            == 0
        )
        assert out1.read_text() == out2.read_text()
        err = capsys.readouterr().err
        assert "1 hits, 0 characterizations" in err


#: ``repro-sta characterize`` of ``carry_skip_block(8)`` saved as
#: Verilog: (bytes, sha256) of the exported timing library.
CSB8_EXPORT = (
    6239,
    "863288246e961700917b216c62f4a0faa19012d4e473510fd566ea390af8bd53",
)


class TestCharacterizeExportPinned:
    """One Step-1 path: the exported library of a leaf-only block is the
    same bytes in-process, over worker processes, and cold or warm
    through the model library."""

    @pytest.fixture()
    def csb8(self, tmp_path):
        path = tmp_path / "csb8.v"
        path.write_text(dumps_verilog(carry_skip_block(8)))
        return path

    @staticmethod
    def export(csb8, *flags):
        target = csb8.with_suffix(".json")
        argv = ["characterize", str(csb8), *flags, "-o", str(target)]
        assert main(argv) == 0
        data = target.read_bytes()
        return len(data), hashlib.sha256(data).hexdigest()

    def test_in_process(self, csb8):
        assert self.export(csb8, "--jobs", "1") == CSB8_EXPORT

    @pytest.mark.slow
    def test_two_jobs(self, csb8):
        assert self.export(csb8, "--jobs", "2") == CSB8_EXPORT

    def test_cache_cold_then_warm(self, csb8, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self.export(csb8, "--cache-dir", cache) == CSB8_EXPORT
        assert "0 hits, 1 characterizations" in capsys.readouterr().err
        assert self.export(csb8, "--cache-dir", cache) == CSB8_EXPORT
        assert "1 hits, 0 characterizations" in capsys.readouterr().err


def record_names(sink: RingBufferSink) -> list[str]:
    return [record.name for record in sink.records()]


class TestSharedLibrary:
    """One library serving many runs: the process-wide memo of Step 1
    (:data:`repro.library.store.PROCESS_LIBRARY`), and any library that
    several analyzers or threads share."""

    def test_memory_layer_is_thread_safe(self):
        # 8 threads look up and store 9 signatures through a 4-entry
        # LRU, so hits, stores and evictions interleave.
        library = ModelLibrary(max_memory_entries=4)
        inputs, outputs = ("a", "b"), ("z",)
        stored = {
            f"sig{i}": {"z": TimingModel("z", inputs, ((float(i), 1.0),))}
            for i in range(9)
        }
        signatures = sorted(stored)
        rounds = 2000
        start = threading.Barrier(8)
        errors: list[Exception] = []
        wrong: list[str] = []

        def worker(k: int) -> None:
            pick = random.Random(k).choice
            try:
                start.wait(timeout=60)
                for _ in range(rounds):
                    sig = pick(signatures)
                    got = library.lookup(sig, inputs, outputs)
                    if got is not None and (
                        got["z"].tuples != stored[sig]["z"].tuples
                    ):
                        wrong.append(sig)
                    library.store(sig, inputs, outputs, stored[sig])
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        stats = library.stats
        assert stats.hits > 0
        assert stats.hits + stats.misses == stats.stores == 8 * rounds
        assert len(library) == 4

    def test_cache_events_reach_each_runs_tracer(self):
        library = ModelLibrary()
        sinks = [RingBufferSink(), RingBufferSink()]
        for sink in sinks:
            HierarchicalAnalyzer(
                cascade_adder(4, 2),
                library=library,
                options=AnalysisOptions(tracer=Tracer(sinks=[sink])),
            ).analyze()
        first, second = (record_names(sink) for sink in sinks)
        assert first.count("cache-miss") == 1
        assert "cache-hit" not in first
        assert second.count("cache-hit") == 1
        assert "cache-miss" not in second

    def test_sessions_share_a_module(self):
        AnalysisSession(cascade_adder(8, 2)).hierarchical()
        sink = RingBufferSink()
        session = AnalysisSession(
            cascade_adder(12, 2),
            options=AnalysisOptions(tracer=Tracer(sinks=[sink])),
        )
        warm = session.hierarchical()
        names = record_names(sink)
        assert "characterize-module" not in names
        assert names.count("cache-hit") == 1
        assert session.library is None
        reset_process_library()
        cold = AnalysisSession(cascade_adder(12, 2)).hierarchical()
        assert warm.net_times == cold.net_times
        assert warm.delay == cold.delay

    def test_hit_returns_the_cold_models(self):
        cold = HierarchicalAnalyzer(cascade_adder(4, 2)).models_for(
            "csa_block2"
        )
        hit = HierarchicalAnalyzer(cascade_adder(8, 2)).models_for(
            "csa_block2"
        )
        memo = store.PROCESS_LIBRARY
        assert (len(memo), memo.stats.hits, memo.stats.misses) == (1, 1, 1)
        assert memo.stats.characterizations == 1
        assert repr(hit) == repr(cold)

    def test_registrations_share_a_module(self):
        from repro.server.registry import DesignRegistry

        sink = RingBufferSink()
        registry = DesignRegistry(tracer=Tracer(sinks=[sink]))
        try:
            registry.register_design(cascade_adder(8, 2))
            registry.register_design(cascade_adder(12, 2))
        finally:
            registry.close()
        names = record_names(sink)
        assert names.count("characterize-module") == 1
        assert names.count("cache-hit") == 1

    @pytest.mark.parametrize(
        "options",
        [
            lambda: AnalysisOptions(deadline=1e-9),
            lambda: AnalysisOptions(
                fault_plan=FaultPlan().add(
                    "scheduler.serial", "exception", times=-1
                )
            ),
        ],
        ids=["deadline", "fault"],
    )
    def test_degraded_module_is_not_memoized(self, options):
        degraded = HierarchicalAnalyzer(
            cascade_adder(4, 2), options=options()
        ).analyze()
        assert degraded.degradations
        assert len(store.PROCESS_LIBRARY) == 0
        sink = RingBufferSink()
        analyzer = HierarchicalAnalyzer(
            cascade_adder(4, 2),
            options=AnalysisOptions(tracer=Tracer(sinks=[sink])),
        )
        clean = analyzer.analyze()
        assert clean.degradations == ()
        assert "characterize-module" in record_names(sink)
        assert model_tuples(analyzer.models_for("csa_block2")) == (
            model_tuples(characterize_network(carry_skip_block(2)))
        )

    def test_memo_hit_skips_a_late_step1(self):
        exact = HierarchicalAnalyzer(cascade_adder(4, 2)).analyze()
        late = HierarchicalAnalyzer(
            cascade_adder(4, 2), options=AnalysisOptions(deadline=1e-9)
        ).analyze()
        assert late.degradations == ()
        assert late.net_times == exact.net_times

    def test_topological_and_per_instance_models_skip_the_memo(self):
        HierarchicalAnalyzer(
            cascade_adder(4, 2), options=AnalysisOptions(functional=False)
        ).analyze()
        PerInstanceAnalyzer(cascade_adder(4, 2)).analyze()
        memo = store.PROCESS_LIBRARY
        assert len(memo) == 0
        assert memo.stats.hits == memo.stats.misses == 0
