"""Section-3.3 benchmark: incremental analysis vs from-scratch analysis.

Three regimes on csa32.2:
* cold     — characterize + propagate,
* warm     — new arrival condition, models reused (propagation only),
* post-ECO — one module replaced, only it re-characterized,

plus the model-library scenario: a cold run populates a persistent
cache, one module is edited, and the re-run only re-characterizes the
edited module — everything else is served by library hits.  The
library run emits JSON (``benchmarks/results/incremental_library.json``)
so the speedup is trackable across revisions.

Run: pytest benchmarks/bench_incremental.py --benchmark-only
"""

import json
import time
from pathlib import Path

from repro.api import AnalysisOptions
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.library import ModelLibrary, module_signature, store
from repro.netlist.hierarchy import HierDesign, Module


def eco_block():
    block = carry_skip_block(2)
    return block.with_delays(
        lambda g: g.delay + (1.0 if g.gtype.value == "XOR" else 0.0),
        name="csa_block2_eco",
    )


def test_cold_analysis(benchmark, clear_memo):
    def run():
        return HierarchicalAnalyzer(cascade_adder(32, 2)).analyze()

    result = benchmark.pedantic(run, setup=clear_memo, rounds=5)
    assert result.characterized_modules == ("csa_block2",)
    assert store.PROCESS_LIBRARY.stats.characterizations == 1


def test_warm_reanalysis(benchmark):
    analyzer = HierarchicalAnalyzer(cascade_adder(32, 2))
    base = analyzer.analyze().delay

    def run():
        return analyzer.analyze({"c_in": 10.0})

    result = benchmark(run)
    assert result.characterized_modules == ()
    assert result.delay >= base


def test_post_eco_reanalysis(benchmark, clear_memo):
    analyzer = IncrementalAnalyzer(cascade_adder(32, 2))
    analyzer.analyze()
    replacement = eco_block()

    def setup():
        analyzer.replace_module("csa_block2", replacement)
        clear_memo()

    def run():
        return analyzer.analyze()

    result = benchmark.pedantic(run, setup=setup, rounds=3)
    assert result.characterized_modules == ("csa_block2",)
    assert store.PROCESS_LIBRARY.stats.characterizations == 1


def mixed_cascade(blocks_of_2: int = 6, blocks_of_3: int = 4) -> HierDesign:
    """A cascade mixing 2-bit and 3-bit carry-skip blocks.

    Two distinct leaf modules, so a single-module edit leaves real work
    for the library to skip (unlike csa32.2, whose single module is the
    edit target itself).
    """
    design = HierDesign("csa_mixed")
    design.add_module(Module("blk2", carry_skip_block(2)))
    design.add_module(Module("blk3", carry_skip_block(3)))
    design.add_input("c_in")
    widths = [2] * blocks_of_2 + [3] * blocks_of_3
    carry = "c_in"
    outputs: list[str] = []
    bit = 0
    for blk, width in enumerate(widths):
        conns = {"c_in": carry}
        for i in range(width):
            design.add_input(f"a{bit}")
            design.add_input(f"b{bit}")
            conns[f"a{i}"] = f"a{bit}"
            conns[f"b{i}"] = f"b{bit}"
            conns[f"s{i}"] = f"s{bit}"
            outputs.append(f"s{bit}")
            bit += 1
        carry = f"c{bit}"
        conns["c_out"] = carry
        design.add_instance(f"u{blk}", f"blk{width}", conns)
    outputs.append(carry)
    design.set_outputs(outputs)
    design.validate()
    return design


def test_library_cached_vs_cold(benchmark, tmp_path):
    """Cold populate vs post-edit re-run against a persistent library.

    Editing ``blk2`` invalidates only its entry; the warm run serves
    ``blk3`` (the expensive module) from the cache.  Emits JSON with
    the measured speedup for trajectory tracking.
    """
    cache = tmp_path / "model-cache"

    cold_lib = ModelLibrary(cache)
    t0 = time.perf_counter()
    cold_result = HierarchicalAnalyzer(
        mixed_cascade(), library=cold_lib
    ).analyze()
    cold_seconds = time.perf_counter() - t0
    assert cold_lib.stats.characterizations == 2

    edited = mixed_cascade()
    edited.replace_module(
        "blk2",
        carry_skip_block(2).with_delays(
            lambda g: g.delay + (1.0 if g.gtype.value == "XOR" else 0.0),
            name="blk2_eco",
        ),
    )

    eco_sig = module_signature(edited.modules["blk2"])

    def evict_eco():
        # each round must re-characterize the edited module, not hit the
        # entry stored by the previous round
        path = cache / f"{eco_sig}.json"
        if path.exists():
            path.unlink()
        return (), {}

    timings: list[float] = []

    def warm_run():
        t = time.perf_counter()
        lib = ModelLibrary(cache)
        result = HierarchicalAnalyzer(edited, library=lib).analyze()
        timings.append(time.perf_counter() - t)
        return result, lib

    (warm_result, warm_lib) = benchmark.pedantic(
        warm_run, setup=evict_eco, rounds=3
    )
    warm_seconds = min(timings)
    assert warm_lib.stats.characterizations == 1  # only the edited blk2
    assert warm_lib.stats.hits == 1  # blk3 served from the library
    assert warm_result.delay >= cold_result.delay

    payload = {
        "design": "csa_mixed",
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "cold_stats": cold_lib.stats.as_dict(),
        "warm_stats": warm_lib.stats.as_dict(),
    }
    benchmark.extra_info.update(payload)
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / "incremental_library.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")


def test_traced_overhead_guard(tmp_path, clear_memo):
    """Tracing must stay cheap: traced run < 5% over untraced.

    Two paired min-of-N measurements on csa32.2, alternating untraced
    and traced rounds so clock drift hits both sides equally:

    * hierarchical — cold two-step hierarchical analysis,
    * compiled     — demand-driven refinement on the compiled timing
      graph (kernel-compile / kernel-propagate / kernel-reflow spans).

    Both are guarded at <5% plus an absolute noise floor (the compiled
    path finishes in single-digit milliseconds, where a scheduler blip
    alone can exceed 5%).  Emits ``benchmarks/results/obs_overhead.json``
    for trajectory tracking.  Plain timing (no ``benchmark`` fixture) so
    the guard also runs in a non-benchmark pytest invocation.
    """
    from repro.core.demand import DemandDrivenAnalyzer
    from repro.obs import RingBufferSink, Tracer

    design = cascade_adder(32, 2)
    budget = 0.05
    noise_floor = 5e-4  # seconds; absolute slack for millisecond runs
    rounds = 5

    def run_hier(tracer):
        clear_memo()
        t0 = time.perf_counter()
        HierarchicalAnalyzer(
            design, options=AnalysisOptions(tracer=tracer)
        ).analyze()
        return time.perf_counter() - t0

    def run_compiled(tracer):
        t0 = time.perf_counter()
        analyzer = DemandDrivenAnalyzer(
            design, options=AnalysisOptions(tracer=tracer)
        )
        analyzer.analyze()
        return time.perf_counter() - t0

    def measure(run):
        run(None)  # warmup (imports, allocator, caches)
        untraced: list[float] = []
        traced: list[float] = []
        for _ in range(rounds):
            untraced.append(run(None))
            traced.append(run(Tracer(sinks=[RingBufferSink()])))
        return min(untraced), min(traced)

    untraced_seconds, traced_seconds = measure(run_hier)
    overhead = traced_seconds / untraced_seconds - 1.0
    compiled_untraced, compiled_traced = measure(run_compiled)
    compiled_overhead = compiled_traced / compiled_untraced - 1.0

    payload = {
        "design": "csa32.2",
        "rounds": rounds,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": traced_seconds,
        "overhead_fraction": overhead,
        "budget_fraction": budget,
        "compiled": {
            "engine": "compiled",
            "untraced_seconds": compiled_untraced,
            "traced_seconds": compiled_traced,
            "overhead_fraction": compiled_overhead,
            "budget_fraction": budget,
            "noise_floor_seconds": noise_floor,
        },
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / "obs_overhead.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert traced_seconds <= untraced_seconds * (1 + budget) + noise_floor, (
        f"tracing overhead {overhead:.1%} exceeds {budget:.0%} "
        f"(untraced {untraced_seconds:.4f}s, traced {traced_seconds:.4f}s)"
    )
    assert compiled_traced <= compiled_untraced * (1 + budget) + noise_floor, (
        f"compiled-engine tracing overhead {compiled_overhead:.1%} exceeds "
        f"{budget:.0%} (untraced {compiled_untraced:.4f}s, traced "
        f"{compiled_traced:.4f}s)"
    )


def test_arrival_sweep_throughput(benchmark):
    """10 arrival conditions on cached models — the Section-3.3 use case."""
    analyzer = HierarchicalAnalyzer(cascade_adder(32, 2))
    analyzer.characterize_all()

    def sweep():
        return [
            analyzer.analyze({"c_in": float(k)}).delay for k in range(10)
        ]

    delays = benchmark(sweep)
    assert delays == sorted(delays)  # later carry-in never helps
