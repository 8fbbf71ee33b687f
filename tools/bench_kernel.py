#!/usr/bin/env python
"""Time one ``CompiledDesign.propagate`` call on each kernel executor.

Prints the grid that :data:`repro.kernel.backend.NUMPY_MIN_LEVEL_TUPLES`
is read from: microseconds per call on the python and on the numpy
executor, for generated csa W.B cascades from csa8.2 to csa2048.8 (B
sets the tuples per topological level, W / B the levels) and for
flattened ones (``flat:csa64.8``, about three tuples per level), at 1,
2, 3, 4, 8, 32 and 256 rows of sparse arrivals (eight random inputs
late per row).  Each cell is the median of repeats that alternate the two
executors, after one untimed call that builds both.  A ``*`` marks the
executor the kernel's own rule picks for the cell.

Usage::

    python tools/bench_kernel.py
    python tools/bench_kernel.py --designs csa8.2,flat:csa64.8 --rows 1,2,3
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import AnalysisSession  # noqa: E402
from repro.circuits.adders import cascade_adder  # noqa: E402
from repro.kernel import backend  # noqa: E402
from repro.kernel.design import CompiledDesign  # noqa: E402
from repro.kernel.plan import compile_network  # noqa: E402

DESIGNS = (
    "csa8.2,csa16.2,csa32.2,csa64.2,csa256.2,csa32.4,csa128.4,"
    "csa32.8,csa64.8,csa256.8,csa2048.8,flat:csa64.8,flat:csa256.8"
)
ROWS = "1,2,3,4,8,32,256"
#: Seconds of timed calls per executor and cell, at most.
BUDGET = 0.4


def timed_call(handle, scenarios, threshold) -> float:
    """Seconds of one ``propagate`` call with the numpy threshold set."""
    saved = backend.NUMPY_MIN_LEVEL_TUPLES
    backend.NUMPY_MIN_LEVEL_TUPLES = threshold
    try:
        start = time.perf_counter()
        handle.propagate(scenarios)
        return time.perf_counter() - start
    finally:
        backend.NUMPY_MIN_LEVEL_TUPLES = saved


def cell(handle, scenarios) -> tuple[float, float]:
    """Median microseconds per call: (python, numpy)."""
    on = {"python": sys.maxsize, "numpy": 0}
    first = {k: timed_call(handle, scenarios, t) for k, t in on.items()}
    repeats = max(3, min(101, int(BUDGET / max(first.values()))))
    times = {k: [] for k in on}
    for i in range(repeats):
        order = list(on) if i % 2 == 0 else list(reversed(on))
        for k in order:
            times[k].append(timed_call(handle, scenarios, on[k]))
    return tuple(statistics.median(times[k]) * 1e6 for k in on)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--designs", default=DESIGNS)
    parser.add_argument("--rows", default=ROWS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not backend.HAVE_NUMPY:
        print("error: numpy is not installed", file=sys.stderr)
        return 2
    counts = [int(r) for r in args.rows.split(",")]
    rng = random.Random(args.seed)
    print(
        "| plan | entries | tuples | levels | "
        + " | ".join(f"{r} row{'s' * (r > 1)}" for r in counts)
        + " |"
    )
    print("|---|---|---|---|" + "---|" * len(counts))
    for spec in args.designs.split(","):
        name = spec.removeprefix("flat:")
        total, block = (int(x) for x in name.removeprefix("csa").split("."))
        design = cascade_adder(total, block)
        if name == spec:
            handle = AnalysisSession(design).compile()
        else:
            network = design.flatten()
            handle = CompiledDesign(
                compile_network(network), tuple(network.outputs)
            )
        inputs = handle.inputs
        plan = handle.plan
        tuples, levels = plan.n_tuples, plan.n_levels
        cells = []
        for count in counts:
            scenarios = [
                {x: 0.5 * rng.randint(1, 40) for x in rng.sample(inputs, 8)}
                for _ in range(count)
            ]
            python_us, numpy_us = cell(handle, scenarios)
            picked = backend.pick_backend(tuples, levels, count)
            cells.append(
                f"{python_us:,.0f}{'*' * (picked == 'python')} / "
                f"{numpy_us:,.0f}{'*' * (picked == 'numpy')}"
            )
        print(
            f"| {spec} | {plan.n_entries:,} | {tuples:,} | {levels:,} | "
            + " | ".join(cells)
            + " |"
        )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
