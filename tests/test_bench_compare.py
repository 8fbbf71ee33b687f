"""The benchmark regression gate: bench_compare on committed baselines."""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baselines"


def _load_tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        return importlib.import_module("bench_compare")
    finally:
        sys.path.pop(0)


@pytest.fixture(scope="module")
def bc():
    return _load_tool()


@pytest.fixture()
def family_baseline():
    return BASELINES / "family_throughput.json"


class TestFlatten:
    def test_tracks_ratio_metrics_only(self, bc):
        payload = {
            "design": "x",
            "speedup": 3.0,
            "untraced_seconds": 0.5,
            "overhead_fraction": 0.01,
            "numpy": True,
        }
        flat = bc.flatten_metrics(payload)
        # booleans and untracked keys dropped; absolute timings kept
        # (gated later), ratios kept
        assert flat == {
            "speedup": 3.0,
            "untraced_seconds": 0.5,
            "overhead_fraction": 0.01,
        }

    def test_lists_index_by_batch(self, bc):
        payload = {
            "results": [
                {"batch": 1, "propagate": {"speedup": 2.0}},
                {"batch": 256, "propagate": {"speedup": 8.0}},
            ]
        }
        flat = bc.flatten_metrics(payload)
        assert flat["results[batch=1].propagate.speedup"] == 2.0
        assert flat["results[batch=256].propagate.speedup"] == 8.0


class TestCompare:
    def test_identical_payloads_pass(self, bc):
        payload = {"speedup": 5.0, "overhead_fraction": 0.02}
        deltas = bc.compare_payloads(payload, payload)
        assert deltas and not any(d.regressed for d in deltas)

    def test_speedup_drop_regresses(self, bc):
        base = {"speedup": 5.0}
        (delta,) = bc.compare_payloads(base, {"speedup": 4.0})
        assert delta.regressed  # 20% worse > 10% threshold
        (ok,) = bc.compare_payloads(base, {"speedup": 4.6})
        assert not ok.regressed  # 8% worse within threshold

    def test_speedup_gain_never_regresses(self, bc):
        (delta,) = bc.compare_payloads({"speedup": 5.0}, {"speedup": 50.0})
        assert not delta.regressed

    def test_overhead_compared_as_absolute_delta(self, bc):
        base = {"overhead_fraction": 0.01}
        (worse,) = bc.compare_payloads(base, {"overhead_fraction": 0.2})
        assert worse.regressed
        (ok,) = bc.compare_payloads(base, {"overhead_fraction": 0.05})
        assert not ok.regressed  # +0.04 absolute, within 0.10

    def test_missing_metric_regresses(self, bc):
        (delta,) = bc.compare_payloads({"speedup": 5.0}, {})
        assert delta.current is None
        assert delta.regressed
        assert "missing" in delta.describe()

    def test_absolute_seconds_gated_only_on_request(self, bc):
        base = {"cold_seconds": 1.0}
        assert bc.compare_payloads(base, {"cold_seconds": 10.0}) == []
        (delta,) = bc.compare_payloads(
            base, {"cold_seconds": 10.0}, include_absolute=True
        )
        assert delta.regressed


class TestCliExitCodes:
    def test_zero_on_committed_baseline(self, bc, family_baseline, capsys):
        assert family_baseline.exists(), "committed baseline missing"
        rc = bc.main(
            ["--baseline", str(family_baseline), str(family_baseline)]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_nonzero_on_synthetic_regression(
        self, bc, family_baseline, tmp_path, capsys
    ):
        payload = json.loads(family_baseline.read_text())
        payload["results"][-1]["speedup"] *= 0.5
        regressed = tmp_path / "family_throughput.json"
        regressed.write_text(json.dumps(payload))
        rc = bc.main(
            ["--baseline", str(family_baseline), str(regressed)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_directory_pairing(self, bc, tmp_path, capsys):
        rc = bc.main(
            ["--baseline", str(BASELINES), str(BASELINES)]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_usage_error_on_garbage(self, bc, tmp_path, capsys):
        bad = tmp_path / "family_throughput.json"
        bad.write_text("{not json")
        rc = bc.main(
            ["--baseline", str(bad), str(bad)]
        )
        assert rc == 2

    def test_obs_overhead_baseline_tracks_compiled_engine(self):
        payload = json.loads(
            (BASELINES / "obs_overhead.json").read_text()
        )
        assert payload["overhead_fraction"] < payload["budget_fraction"]
        compiled = payload["compiled"]
        assert compiled["engine"] == "compiled"
        assert (
            compiled["overhead_fraction"] < compiled["budget_fraction"]
        )

    def test_server_throughput_baseline_meets_target(self):
        payload = json.loads(
            (BASELINES / "server_throughput.json").read_text()
        )
        # the committed coalescing win the gate protects (ISSUE: >= 3x
        # at concurrency >= 32)
        assert payload["coalescing_speedup"] >= 3.0
        assert payload["levels"][-1]["concurrency"] >= 32


class TestMissingBaseline:
    def test_missing_baseline_file_is_exit_3(self, bc, tmp_path, capsys):
        results = tmp_path / "server_throughput.json"
        results.write_text(json.dumps({"coalescing_speedup": 3.4}))
        absent = tmp_path / "no_such_baseline.json"
        rc = bc.main(["--baseline", str(absent), str(results)])
        assert rc == bc.EXIT_MISSING_BASELINE == 3
        err = capsys.readouterr().err
        assert "does not exist" in err
        # the message is actionable: it says how to bootstrap one
        assert f"cp {results} {absent}" in err

    def test_unmatched_result_in_directory_mode_is_exit_3(
        self, bc, tmp_path, capsys
    ):
        baselines = tmp_path / "baselines"
        results = tmp_path / "results"
        baselines.mkdir()
        results.mkdir()
        (baselines / "known.json").write_text('{"speedup": 2.0}')
        (results / "known.json").write_text('{"speedup": 2.0}')
        (results / "novel.json").write_text('{"speedup": 9.0}')
        rc = bc.main(["--baseline", str(baselines), str(results)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "novel.json" in err and "bootstrap" in err

    def test_matched_directories_still_pass(self, bc, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        results = tmp_path / "results"
        baselines.mkdir()
        results.mkdir()
        (baselines / "known.json").write_text('{"speedup": 2.0}')
        (results / "known.json").write_text('{"speedup": 2.1}')
        rc = bc.main(["--baseline", str(baselines), str(results)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out
