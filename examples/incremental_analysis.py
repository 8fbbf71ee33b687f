"""Incremental timing analysis (paper Section 3.3).

Two properties fall out of the hierarchical formulation:

1. A leaf module's timing model is valid in *any* environment, so editing
   one module re-characterizes only that module; everything else is reused.
2. Re-analyzing the same design under different arrival-time conditions
   reuses every model — only the cheap top-level min-max propagation runs.

A flat analyzer restarts from scratch in both situations.  This example
measures the difference on a 32-bit carry-skip adder.

Run:  python examples/incremental_analysis.py
"""

import time

from repro import IncrementalAnalyzer, cascade_adder
from repro.core.demand import flat_functional_delay
from repro.netlist.network import Network


def slow_block_variant() -> Network:
    """A 2-bit block with the same interface but a slower XOR stage.

    Stands in for an engineering change order (ECO) to the leaf module.
    """
    from repro.circuits.adders import carry_skip_block

    block = carry_skip_block(2)
    return block.with_delays(
        lambda g: g.delay + (1.0 if g.gtype.value == "XOR" else 0.0),
        name="csa_block2_eco",
    )


def main() -> None:
    design = cascade_adder(32, 2)
    analyzer = IncrementalAnalyzer(design)

    t0 = time.perf_counter()
    first = analyzer.analyze()
    cold = time.perf_counter() - t0
    print(f"cold analysis:      delay {first.delay:g}  ({cold * 1e3:.1f} ms, "
          f"characterized {list(first.characterized_modules)})")

    # -- new arrival condition: models are reused wholesale -----------------
    t0 = time.perf_counter()
    shifted = analyzer.analyze({"c_in": 10.0})
    warm = time.perf_counter() - t0
    print(f"new arrival times:  delay {shifted.delay:g}  ({warm * 1e3:.1f} ms, "
          f"characterized {list(shifted.characterized_modules)})")

    # -- ECO on the leaf module: only it is re-characterized ----------------
    analyzer.replace_module("csa_block2", slow_block_variant())
    t0 = time.perf_counter()
    eco = analyzer.analyze()
    eco_time = time.perf_counter() - t0
    print(f"after module ECO:   delay {eco.delay:g}  ({eco_time * 1e3:.1f} ms, "
          f"characterized {list(eco.characterized_modules)})")
    print(f"re-characterization counts: {analyzer.recharacterizations}")

    # -- the flat alternative re-analyzes 16 expanded instances every time --
    # (skipped under REPRO_EXAMPLE_FAST=1: this is the ~20 s part)
    import os

    if os.environ.get("REPRO_EXAMPLE_FAST"):
        print("\n[fast mode] skipping the flat re-analysis "
              "(~20 s on csa32.2)")
        return
    t0 = time.perf_counter()
    flat_delay, _, _ = flat_functional_delay(design)
    flat_time = time.perf_counter() - t0
    print(f"\nflat re-analysis of the whole circuit: delay {flat_delay:g} "
          f"({flat_time * 1e3:.1f} ms) - paid again after EVERY change")
    print(f"incremental advantage on this design: "
          f"{flat_time / max(warm, 1e-9):.0f}x for arrival-time sweeps")


if __name__ == "__main__":
    main()
