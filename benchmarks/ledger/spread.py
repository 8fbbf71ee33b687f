#!/usr/bin/env python3
"""Run-to-run spread of the ledger's metrics.

Runs ``BENCHMARK.json``'s command N times per workload (seeds 1 .. N),
then prints the median and quartiles of every metric per workload.  It
flags every end-to-end metric whose spread, (q3 - q1) / median, exceeds
its bound, and notes spreads above a third of the bound (the margin a
steady benchmark keeps).  With ``--trace`` the runs are traced and every
per-layer count that differs between runs is flagged; use
``--same-seed`` there, since across seeds the inputs, and so the work,
differ.

``--out`` saves the raw values; ``--against`` compares this set's
medians with a saved set and flags every metric that moved by more than
its bound.  The exit status is 1 when anything is flagged::

    python3 benchmarks/ledger/spread.py --runs 5 --out a.json
    python3 benchmarks/ledger/spread.py --runs 5 --against a.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"spread: {workload} seed {seed} failed")
    doc = json.loads(lines[-1])
    return {name: m["value"] for name, m in doc["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--same-seed", action="store_true",
                        help="run every repeat with seed 1")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        runs = [
            run_once(workload, 1 if args.same_seed else i + 1,
                     SPEC["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        values[workload] = {
            m["name"]: [r[m["name"]] for r in runs] for m in specs
        }
    previous = json.loads(args.against.read_text()) if args.against else {}
    flagged = 0
    print(f"{'workload':<8} {'metric':<40} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>8} {'bound':>6}")
    for workload, table in values.items():
        for spec in specs:
            name = spec["name"]
            q1, median, q3 = statistics.quantiles(table[name], n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = spec.get("bound")
            failures = []
            if bound is not None and spread > bound:
                failures.append("SPREAD > BOUND")
            if spec["unit"] == "count" and len(set(table[name])) > 1:
                failures.append("COUNT VARIES")
            old = previous.get(workload, {}).get(name)
            if old and bound is not None:
                before = statistics.median(old)
                if before and abs(median - before) / before > bound:
                    failures.append(f"MOVED from {before:.6g}")
            flagged += bool(failures)
            note = "".join(f"  {f}" for f in failures)
            if not failures and bound is not None and spread > bound / 3:
                note = "  spread > bound/3"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:<8} {name:<40} {median:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {spread:>8.3f} {bound_text:>6}{note}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
