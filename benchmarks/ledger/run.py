#!/usr/bin/env python3
"""Layer ledger: one benchmark from netlist to served answer.

Run every workload, print every end-to-end metric by name and unit,
check every answer, and write ``benchmarks/results/ledger.json``::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1

``--trace`` repeats each workload with the layer wrappers of
``layers.py`` installed, prints the per-layer table and the tracing
overhead of each workload, and writes a Chrome trace to
``benchmarks/results/ledger_trace.json``::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1 --trace

One workload with every option given (the last line of output is one
JSON object; ``--trace 1`` reports per-layer metrics instead of
end-to-end ones)::

    python3 benchmarks/ledger/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh process with ``PYTHONHASHSEED=0`` and one
BLAS thread, so counts in a traced run repeat exactly.  Set-up runs three
times (two set-up-only processes and the measured one) and ``setup_s`` is
their median.  A wrong answer makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import chrome_trace, merge, per_layer
from workloads import WORKLOADS, Sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
}
SETUP_REPEATS = 3
#: Seconds one workload process may take (its parent must end within 180).
CHILD_TIMEOUT = 160.0


class WorkloadError(RuntimeError):
    """A workload process crashed or timed out (no metrics to report)."""


def spawn(workload: str, opts, *, trace=False, setup_only=False) -> dict:
    """Run one workload process to completion; return its JSON report."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(opts.seed), "--seconds", str(opts.seconds),
    ]
    command += ["--trace"] * trace + ["--setup-only"] * setup_only
    command += ["--smoke"] * opts.smoke
    proc = subprocess.Popen(
        command + ["--spawn", repr(time.perf_counter())],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkloadError(f"{workload}: timed out after {CHILD_TIMEOUT:g}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload}: exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, opts) -> dict:
    """The untraced run: repeated set-up, then the measured process."""
    runs = [
        spawn(workload, opts, setup_only=True)
        for _ in range(1 if opts.smoke else SETUP_REPEATS - 1)
    ]
    main = spawn(workload, opts)
    runs.append(main)
    named = dict(main["named"])
    if workload == "sweep":
        sizes = Sizes(opts.smoke)
        named["growth_exp"] = math.log(
            named[f"load_csa{sizes.sweep[-1]}_s"]
            / named[f"load_csa{sizes.sweep_target}_s"],
            4,
        )
    metrics = dict(
        main["e2e"],
        setup_s=statistics.median(r["setup_s"] for r in runs),
        peak_rss_mb=main["peak_rss_mb"],
    )
    return {
        "workload": workload,
        "traced": False,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "metrics": {m["name"]: metrics[m["name"]] for m in SPEC["end_to_end"]},
        "named": named,
        "setup_samples": [r["setup_s"] for r in runs],
        "slowdown": main["slowdown"],
        "basis": overhead_basis(workload, main),
    }


def trace(workload: str, opts) -> dict:
    """The traced run: one process with the layer wrappers installed."""
    main = spawn(workload, opts, trace=True)
    metrics = per_layer(merge(main["dumps"]), main["client"])
    metrics["bench.attributed_frac"] = (
        main["attributed_s"] / main["blocking_s"] if main["blocking_s"] else 0.0
    )
    return {
        "workload": workload,
        "traced": True,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "errors": main["errors"],
        "metrics": {m["name"]: metrics[m["name"]] for m in SPEC["per_layer"]},
        "named": main["named"],
        "basis": overhead_basis(workload, main),
        "dumps": main["dumps"],
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def unit_of(name: str) -> str:
    """Unit of a headline number, read off its name."""
    if name == "growth_exp":
        return "-"
    if name == "error_rate":
        return "fraction"
    if name == "checks" or name.startswith("samples_"):
        return "count"
    for suffix, unit in (("_per_s", "1/s"), ("_rps", "1/s"),
                         ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for headline number {name!r}")


def print_record(record: dict) -> None:
    name = record["workload"]
    kind = "per-layer" if record["traced"] else "end-to-end"
    print(f"== {name} ({kind}): {record['attempted']} checks, "
          f"{record['failed']} failed")
    for error in record["errors"]:
        print(f"   WRONG: {error}")
    if not record["traced"]:
        for metric, value in record["metrics"].items():
            print(f"   {metric:<20} {fmt(value):>12} {UNITS[metric]}")
        print(f"   (times at the reference speed; this run's machine ran "
              f"{record['slowdown']:.3f}x slower; raw headline numbers:)")
        named = dict(
            record["named"],
            error_rate=record["failed"] / max(1, record["attempted"]),
        )
        for metric, value in sorted(named.items()):
            print(f"   {metric:<20} {fmt(value):>12} {unit_of(metric)}")


def print_layers(traced: list[dict]) -> None:
    names = [m["name"] for m in SPEC["per_layer"]]
    header = f"{'per-layer metric':<42}" + "".join(
        f"{r['workload']:>12}" for r in traced
    )
    print(header + "  unit")
    for name in names:
        cells = "".join(f"{fmt(r['metrics'][name]):>12}" for r in traced)
        print(f"{name:<42}{cells}  {UNITS[name]}")


def overhead_basis(workload: str, doc: dict) -> tuple[float, str]:
    """The end-to-end time tracing overhead is measured on, at the
    reference speed so that the two runs' machine speeds cancel."""
    if workload == "serve":
        return doc["e2e"]["p50_ms"], "ms (phase-c p50)"
    return doc["wall_ref_s"], "s (measured wall)"


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer ledger benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of the serve workload's load phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--results-dir", type=Path,
                        default=ROOT / "benchmarks" / "results")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workloads = [opts.workload] if opts.workload else list(WORKLOADS)
    single = opts.workload is not None
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        for workload in workloads:
            if not (single and opts.trace):
                untraced.append(measure(workload, opts))
                print_record(untraced[-1])
            if opts.trace:
                traced.append(trace(workload, opts))
                print_record(traced[-1])
    except WorkloadError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    if traced:
        print_layers(traced)
        by_name = {r["workload"]: r for r in untraced}
        for record in traced:
            frac = record["metrics"]["bench.attributed_frac"]
            line = (f"{record['workload']}: layer self times cover "
                    f"{frac:.1%} of the blocking path")
            if record["workload"] in by_name:
                before, unit = by_name[record["workload"]]["basis"]
                after, _ = record["basis"]
                line += (f"; tracing overhead {after - before:+.4g} {unit} "
                         f"({(after - before) / before:+.1%})")
            print(line)
        write_json(
            opts.results_dir / "ledger_trace.json",
            chrome_trace([d for r in traced for d in r["dumps"]]),
        )
    records = untraced + traced
    write_json(
        opts.results_dir / "ledger.json",
        {
            "seed": opts.seed,
            "seconds": opts.seconds,
            "records": [
                {k: v for k, v in r.items() if k != "dumps"} for r in records
            ],
        },
    )
    failed = sum(r["failed"] for r in records)
    shown = records if not single else records[-1:]
    metrics = {
        (name if single else f"{r['workload']}/{name}"): {
            "value": value, "unit": UNITS[name]
        }
        for r in shown
        for name, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
