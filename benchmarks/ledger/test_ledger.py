"""Smoke test of the layer ledger: ``pytest benchmarks/ledger -q``.

Runs the one command at smoke size, untraced and traced, for every
workload (well under 20 s), then checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that every answer check
passed, and that ``tools/trace_analyze.py`` reads the Chrome trace the
traced run wrote, which names every layer span.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The headline numbers each workload prints by name, with their units,
#: besides the declared metrics and ``error_rate``.
HEADLINE = {
    "paper": {"paper_flat_s": "s", "paper_hier_s": "s", "char_cold_s": "s"},
    "refine": {"refine_s": "s"},
    "sweep": {"query_ms": "ms", "batch_scen_per_s": "1/s", "growth_exp": "-"},
    "serve": {"serve_p50_ms": "ms", "serve_p95_ms": "ms",
              "serve_mixed_p95_ms": "ms", "register_s": "s",
              "serve_rps": "1/s"},
}

sys.path.insert(0, str(HERE))
from layers import SPAN_NAMES  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    results = tmp_path_factory.mktemp("ledger")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "2",
         "--trace", "--results-dir", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout, results


def test_every_answer_is_checked_and_right(smoke):
    stdout, _ = smoke
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["failed"] == 0
    assert doc["attempted"] > 0
    assert "WRONG" not in stdout


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, _ = smoke
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        for workload in WORKLOADS:
            assert metrics[f"{workload}/{name}"]["unit"] == unit
        line = re.compile(rf"^\s*{re.escape(name)}\s.*\s{re.escape(unit)}$",
                          re.M)
        assert line.search(stdout), f"{name} [{unit}] not printed"
    for workload in WORKLOADS:
        assert re.search(rf"^{workload}: .*tracing overhead", stdout, re.M)
        block = stdout.split(f"== {workload} (end-to-end)", 1)[1]
        block = block.split("\n==", 1)[0]
        assert re.search(r"^\s+error_rate\s+0 fraction$", block, re.M)
        for name, unit in HEADLINE[workload].items():
            line = rf"^\s+{name}\s+\S+ {re.escape(unit)}$"
            assert re.search(line, block, re.M), f"{workload}: {name} [{unit}]"


def test_trace_reads_back_and_names_every_layer(smoke):
    _, results = smoke
    trace = results / "ledger_trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_analyze.py"),
         str(trace), "--phases", "--critical-path"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "critical path" in proc.stdout
    names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
    assert set(SPAN_NAMES) <= names


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
