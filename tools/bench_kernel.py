#!/usr/bin/env python
"""Time one ``CompiledDesign.propagate`` call on each kernel executor.

Prints the grid that :data:`repro.kernel.backend.NUMPY_MIN_LEVEL_TUPLES`
is read from: microseconds per call on the python executor and on the
numpy executor's two modes, the walk and the level loop, for generated
csa W.B cascades from csa8.2 to csa2048.8 (W / B levels, W / B - 1 of
them carrying a spine node), for flattened ones (``flat:csa64.8``,
most nodes on the spine) and for one level of N independent gates
(``gates:N``, no spine), at 1 to 256 rows of sparse arrivals (eight
random inputs late per row).  Each cell is the median of repeats that
rotate the three, after one untimed call that builds each.  A ``*``
marks the mode the kernel's own rule picks for the cell.

Every cell also compares the three answers with ``==`` and the tool
exits 1 if one differs.

Usage::

    python tools/bench_kernel.py
    python tools/bench_kernel.py --designs csa8.2,flat:csa64.8 --rows 1,8
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
from repro.kernel.execute import NumpyExecutor  # noqa: E402
from repro.kernel.plan import compile_network  # noqa: E402
from repro.netlist.network import Network  # noqa: E402

DESIGNS = (
    "csa8.2,csa16.2,csa32.2,csa64.2,csa256.2,csa32.4,csa128.4,"
    "csa32.8,csa64.8,csa256.8,csa2048.8,flat:csa64.8,flat:csa256.8,"
    "gates:2000"
)
ROWS = "1,2,4,8,12,16,32,256"
#: Seconds of timed calls per executor and cell, at most.
BUDGET = 0.3
#: ``(HAVE_NUMPY, NUMPY_MIN_LEVEL_TUPLES)`` that pin each column.
PINS = {
    "python": (False, 0),
    "walk": (True, sys.maxsize),
    "levels": (True, 0),
}


def build(spec: str, seed: int) -> CompiledDesign:
    """The compiled handle of one ``--designs`` entry."""
    if spec.startswith("gates:"):
        network = one_level(int(spec.removeprefix("gates:")), seed)
    else:
        name = spec.removeprefix("flat:")
        total, block = (int(x) for x in name.removeprefix("csa").split("."))
        design = cascade_adder(total, block)
        if name == spec:
            return AnalysisSession(design).compile()
        network = design.flatten()
    return CompiledDesign(compile_network(network), tuple(network.outputs))


def one_level(gates: int, seed: int) -> Network:
    """``gates`` independent AND gates of 2 to 6 inputs each, drawn
    from ``max(6, gates // 5)`` primary inputs: one level, every gate
    an output."""
    rng = random.Random(seed)
    network = Network(f"gates{gates}")
    inputs = network.add_inputs(f"x{i}" for i in range(max(6, gates // 5)))
    network.set_outputs([
        network.add_gate(f"g{g}", "AND", rng.sample(inputs, rng.randint(2, 6)))
        for g in range(gates)
    ])
    return network


def timed_call(handle, scenarios, pin) -> tuple[float, list]:
    """Seconds and answers of one ``propagate`` call on one executor."""
    saved = backend.HAVE_NUMPY, backend.NUMPY_MIN_LEVEL_TUPLES
    backend.HAVE_NUMPY, backend.NUMPY_MIN_LEVEL_TUPLES = pin
    try:
        start = time.perf_counter()
        views = handle.propagate(scenarios)
        seconds = time.perf_counter() - start
    finally:
        backend.HAVE_NUMPY, backend.NUMPY_MIN_LEVEL_TUPLES = saved
    return seconds, [list(view.values()) for view in views]


def cell(handle, scenarios) -> tuple[list[float], bool]:
    """Median microseconds per call in :data:`PINS` order, and whether
    the three answers were ``==``."""
    first = {k: timed_call(handle, scenarios, pin) for k, pin in PINS.items()}
    answers = [answer for _, answer in first.values()]
    same = all(answer == answers[0] for answer in answers)
    slowest = max(seconds for seconds, _ in first.values())
    repeats = max(3, min(101, int(BUDGET / slowest)))
    times = {k: [] for k in PINS}
    names = list(PINS)
    for i in range(repeats):
        for k in names[i % 3:] + names[: i % 3]:
            times[k].append(timed_call(handle, scenarios, PINS[k])[0])
    return [statistics.median(times[k]) * 1e6 for k in PINS], same


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
        "| plan | entries | spine tuples | levels | "
        + " | ".join(f"{r} row{'s' * (r > 1)}" for r in counts)
        + " |"
    )
    print("|---|---|---|---|" + "---|" * len(counts))
    wrong = []
    for spec in args.designs.split(","):
        handle = build(spec, args.seed)
        inputs = handle.inputs
        plan = handle.plan
        spine, levels = NumpyExecutor(plan).spine_tuples, plan.n_levels
        cells = []
        for count in counts:
            scenarios = [
                {x: 0.5 * rng.randint(1, 40) for x in rng.sample(inputs, 8)}
                for _ in range(count)
            ]
            micros, same = cell(handle, scenarios)
            if not same:
                wrong.append(f"{spec} at {count} rows")
            picked = backend.pick_mode(spine, levels, count)
            cells.append(" / ".join(
                f"{us:,.0f}{'*' * (k == picked)}"
                for k, us in zip(PINS, micros)
            ))
        print(
            f"| {spec} | {plan.n_entries:,} | {spine:,} | {levels:,} | "
            + " | ".join(cells)
            + " |"
        )
        sys.stdout.flush()
    for where in wrong:
        print(f"error: the executors' answers differ on {where}",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
