"""A NaN duration is rejected wherever a duration is accepted.

``x <= 0`` is false for NaN, so a NaN deadline or timeout used to pass
every check: a run without a limit, every worker task counted as timed
out, an SLO that counted every request bad.  Each constructor raises
``ValueError``, the CLI exits 2 and the server answers 400
``bad-request``; ``inf`` still means "unlimited", and in
``AnalysisOptions`` it becomes ``None``.  A sampling rate is the one
value that must be finite: an infinite rate is a busy loop.
"""

import json

import pytest

import repro.server
from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.errors import ReproError
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import SloObjective, SloTracker
from repro.parsers.verilog import dumps_verilog
from repro.server import TimingServerApp
from repro.server.app import AdmissionGate

NAN = float("nan")
INF = float("inf")

CONSTRUCTORS = {
    "AnalysisOptions-deadline": lambda v: AnalysisOptions(deadline=v),
    "AnalysisOptions-module_timeout":
        lambda v: AnalysisOptions(module_timeout=v),
    "AdmissionGate-queue_timeout": lambda v: AdmissionGate(queue_timeout=v),
    "SloObjective-latency_objective":
        lambda v: SloObjective("/analyze", latency_objective=v),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_rejects_nan(name):
    make = CONSTRUCTORS[name]
    with pytest.raises(ValueError):
        make(NAN)
    make(INF)  # unlimited


def test_infinite_limit_is_no_limit():
    # A worker wait rejects an infinite timeout, so inf becomes None.
    options = AnalysisOptions(deadline=INF, module_timeout=INF)
    assert options.deadline is None and options.module_timeout is None


@pytest.fixture()
def csa8_file(tmp_path) -> str:
    f = tmp_path / "csa8_2.v"
    f.write_text(dumps_verilog(cascade_adder(8, 2, name="csa8_2")))
    return str(f)


def _no_server(*_args, **_kwargs):
    raise ReproError("no listening server in unit tests")


@pytest.mark.parametrize(
    ("argv", "needle"),
    [
        (["hier-report", "{file}", "--deadline", "nan"], "deadline"),
        (["characterize", "{file}", "--jobs", "2", "--module-timeout",
          "nan"], "module_timeout"),
        (["serve", "--slo", "/analyze=nan"], "latency_objective"),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v[-2:]),
)
def test_cli_rejects_nan(argv, needle, csa8_file, capsys, monkeypatch):
    # A server that got past validation must not start listening here.
    monkeypatch.setattr(repro.server, "TimingHTTPServer", _no_server)
    assert main([a.format(file=csa8_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("deadline", ["nan", NAN], ids=["string", "number"])
def test_request_deadline_nan_is_bad_request(deadline):
    app = TimingServerApp()
    try:
        app.registry.register_design(cascade_adder(4, 2))
        body = json.dumps(
            {"design": "csa4_2", "arrival": {}, "deadline": deadline}
        ).encode()
        status, _ctype, out = app.handle("POST", "/analyze", body)
    finally:
        app.close()
    doc = json.loads(out)
    assert status == 400
    assert doc["error"]["code"] == "bad-request"
    assert "deadline" in doc["error"]["message"]


def test_infinite_slo_latency_is_no_latency_bound():
    tracker = SloTracker([SloObjective("/analyze", latency_objective=INF)])
    for _ in range(20):
        tracker.observe("/analyze", 200, 30.0)
    tracker.observe("/analyze", 503, 0.001)  # a 5xx is still bad
    rates = tracker.burn_rates("/analyze")
    assert (rates["short_total"], rates["short_bad"]) == (21, 1)


@pytest.mark.parametrize("hz", [NAN, INF])
def test_sampling_profiler_needs_a_finite_positive_rate(hz):
    with pytest.raises(ValueError, match="sampling rate"):
        SamplingProfiler(hz=hz)


@pytest.mark.parametrize("rate", ["nan", "inf", "-1", "1e400"])
def test_cli_sample_hz_must_be_off_or_finite(rate, capsys, monkeypatch):
    monkeypatch.setattr(repro.server, "TimingHTTPServer", _no_server)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--sample-hz", rate])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --sample-hz: must be 0 (off)")
    assert err.count("\n") == 1
