#!/usr/bin/env python
"""Diff benchmark result JSON against a committed baseline.

Benchmark runs under ``benchmarks/`` emit JSON trajectory files into
``benchmarks/results/``.  This tool compares such a file (or a whole
directory of them) against a committed baseline and exits nonzero when
any tracked metric regressed past a configurable threshold — the
regression gate for CI and for eyeballing a branch before merging.

Only *ratio-like* metrics are compared by default, because they are
stable across machines while absolute wall-clock seconds are not:

* higher-is-better — keys named ``speedup`` or ``throughput``
  (regression = current < baseline by more than the threshold),
* lower-is-better — keys named ``overhead_fraction``
  (regression = current > baseline + threshold, compared as an
  absolute delta of fractions since values hover near zero).

Absolute timings (``*_seconds``, ``*_s``) are reported with
``--verbose`` but never gate unless ``--include-absolute`` is given.
Structural drift — a baseline metric missing from the current file —
always fails, so a benchmark silently dropping a measurement cannot
masquerade as a pass.

Usage::

    python tools/bench_compare.py \
        --baseline benchmarks/baselines/family_throughput.json \
        benchmarks/results/family_throughput.json

    python tools/bench_compare.py \
        --baseline benchmarks/baselines benchmarks/results

Exit codes: 0 — no regression; 1 — at least one regression or missing
metric; 2 — usage error (unreadable file, no comparable metrics);
3 — missing baseline (the result has nothing committed to compare
against — run the benchmark once and commit its output under
``benchmarks/baselines/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: key names compared as "bigger is better" ratios
HIGHER_BETTER = ("speedup", "throughput")
#: key names compared as "smaller is better" absolute fractions
LOWER_BETTER = ("overhead_fraction",)
#: key suffixes recognized as absolute timings (gated only on request)
ABSOLUTE_SUFFIXES = ("_seconds", "_s")

DEFAULT_THRESHOLD = 0.10

#: exit code for "nothing committed to compare against" — distinct from
#: regressions (1) and malformed input (2) so CI can treat a missing
#: baseline as "bootstrap me", not as a broken build
EXIT_MISSING_BASELINE = 3


def _missing_baseline(path: Path, results: list[Path]) -> int:
    """Report an absent baseline with the command that creates it."""
    hint = results[0] if results else Path("benchmarks/results/<bench>.json")
    print(
        f"bench_compare: baseline {path} does not exist.\n"
        f"  No committed numbers to gate against. Bootstrap the baseline "
        f"by running the benchmark once\n"
        f"  and committing its result, e.g.:\n"
        f"    cp {hint} {path if path.suffix == '.json' else path / hint.name}\n"
        f"  then re-run this comparison.",
        file=sys.stderr,
    )
    return EXIT_MISSING_BASELINE


def _classify(key: str) -> str | None:
    """The comparison class for a leaf key, or None if untracked."""
    if key in HIGHER_BETTER or any(
        key.endswith("_" + k) for k in HIGHER_BETTER
    ):
        return "higher"
    if key in LOWER_BETTER:
        return "lower"
    if key.endswith(ABSOLUTE_SUFFIXES):
        return "absolute"
    return None


def flatten_metrics(payload, prefix: str = "") -> dict[str, float]:
    """Tracked numeric leaves of a result payload, keyed by dotted path.

    Lists index by the ``batch`` field when present (so baselines stay
    aligned if batch order changes) and by position otherwise.
    """
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                out.update(flatten_metrics(value, path))
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                if _classify(str(key)) is not None:
                    out[path] = float(value)
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            label = str(i)
            if isinstance(item, dict) and "batch" in item:
                label = f"batch={item['batch']}"
            out.update(flatten_metrics(item, f"{prefix}[{label}]"))
    return out


@dataclass
class Delta:
    """One baseline/current metric pair and its verdict."""

    path: str
    kind: str  # "higher" | "lower" | "absolute"
    baseline: float
    current: float | None  # None — metric vanished from the current file
    threshold: float

    @property
    def change(self) -> float:
        """Relative change, signed so positive always means 'worse'."""
        if self.current is None:
            return float("inf")
        if self.kind == "lower":
            # fractions near zero: compare absolute movement
            return self.current - self.baseline
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        worse = (
            self.baseline - self.current
            if self.kind == "higher"
            else self.current - self.baseline
        )
        return worse / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        return self.change > self.threshold

    def describe(self) -> str:
        if self.current is None:
            return f"{self.path}: missing from current results"
        arrow = f"{self.baseline:g} -> {self.current:g}"
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.path}: {arrow} "
            f"({self.change:+.1%} worse, limit {self.threshold:.0%}) "
            f"[{verdict}]"
        )


def compare_payloads(
    baseline,
    current,
    threshold: float = DEFAULT_THRESHOLD,
    include_absolute: bool = False,
) -> list[Delta]:
    """Deltas for every tracked metric present in the baseline."""
    base_metrics = flatten_metrics(baseline)
    cur_metrics = flatten_metrics(current)
    deltas: list[Delta] = []
    for path in sorted(base_metrics):
        leaf = path.rsplit(".", 1)[-1]
        kind = _classify(leaf) or "absolute"
        if kind == "absolute" and not include_absolute:
            continue
        deltas.append(
            Delta(
                path=path,
                kind=kind,
                baseline=base_metrics[path],
                current=cur_metrics.get(path),
                threshold=threshold,
            )
        )
    return deltas


def _pair_files(
    baseline: Path, targets: list[Path]
) -> list[tuple[Path, Path]]:
    """(baseline, current) file pairs from path arguments.

    A file baseline pairs with a file target; a directory baseline pairs
    each of its ``*.json`` files with the same-named file in a target
    directory (or a single target file by basename).
    """
    pairs: list[tuple[Path, Path]] = []
    if baseline.is_dir():
        for base_file in sorted(baseline.glob("*.json")):
            for target in targets:
                candidate = (
                    target / base_file.name if target.is_dir() else target
                )
                if candidate.name == base_file.name and candidate.exists():
                    pairs.append((base_file, candidate))
    else:
        for target in targets:
            candidate = target / baseline.name if target.is_dir() else target
            pairs.append((baseline, candidate))
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description=(
            "Compare benchmark result JSON against a committed baseline; "
            "exit nonzero on regression."
        ),
    )
    parser.add_argument(
        "--baseline",
        required=True,
        type=Path,
        help="baseline JSON file, or a directory of them",
    )
    parser.add_argument(
        "results",
        nargs="+",
        type=Path,
        help="current result JSON file(s) or directory",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=(
            "allowed worsening before failure: relative for "
            "speedup/throughput, absolute for overhead fractions "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--include-absolute",
        action="store_true",
        help="also gate absolute *_seconds timings (machine-sensitive)",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print every comparison, not just regressions",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        return _missing_baseline(args.baseline, list(args.results))

    pairs = _pair_files(args.baseline, list(args.results))
    if args.baseline.is_dir():
        # result files with no same-named committed baseline are a
        # missing-baseline condition, not something to skip silently
        paired = {cur for _, cur in pairs}
        unmatched = [
            f
            for target in args.results
            if target.is_dir()
            for f in sorted(target.glob("*.json"))
            if f not in paired
        ]
        if unmatched:
            for f in unmatched:
                print(
                    f"bench_compare: {f.name}: no baseline "
                    f"{args.baseline / f.name} — bootstrap it with "
                    f"'cp {f} {args.baseline / f.name}'",
                    file=sys.stderr,
                )
            return EXIT_MISSING_BASELINE
    if not pairs:
        print("bench_compare: no baseline/result file pairs", file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    for base_file, cur_file in pairs:
        try:
            base = json.loads(base_file.read_text())
        except FileNotFoundError:
            return _missing_baseline(base_file, [cur_file])
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_compare: {base_file}: {exc}", file=sys.stderr)
            return 2
        try:
            cur = json.loads(cur_file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_compare: {cur_file}: {exc}", file=sys.stderr)
            return 2
        deltas = compare_payloads(
            base,
            cur,
            threshold=args.threshold,
            include_absolute=args.include_absolute,
        )
        compared += len(deltas)
        shown = [
            d for d in deltas if d.regressed or args.verbose
        ]
        if shown or args.verbose:
            print(f"{base_file.name}:")
            for delta in shown:
                print(f"  {delta.describe()}")
        failures += sum(d.regressed for d in deltas)

    if compared == 0:
        print("bench_compare: no comparable metrics found", file=sys.stderr)
        return 2
    if failures:
        print(
            f"bench_compare: {failures} regression(s) across "
            f"{compared} tracked metric(s)"
        )
        return 1
    print(
        f"bench_compare: OK — {compared} tracked metric(s) within "
        f"{args.threshold:.0%}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
