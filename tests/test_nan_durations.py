"""A NaN duration is rejected wherever a duration is accepted.

``x <= 0`` is false for NaN, so a NaN deadline or timeout used to pass
every check: a run without a limit, every worker task counted as timed
out, a coalescer window that never closed.  Each constructor raises
``ValueError``, the CLI exits 2 and the server answers 400
``bad-request``; ``inf`` still means "unlimited", and in
``AnalysisOptions`` it becomes ``None``.
"""

import json

import pytest

import repro.server
from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.errors import ReproError
from repro.parsers.verilog import dumps_verilog
from repro.resilience.breaker import BreakerConfig
from repro.server import CoalesceConfig, TimingServerApp
from repro.server.app import AdmissionGate

NAN = float("nan")
INF = float("inf")

CONSTRUCTORS = {
    "AnalysisOptions-deadline": lambda v: AnalysisOptions(deadline=v),
    "AnalysisOptions-module_timeout":
        lambda v: AnalysisOptions(module_timeout=v),
    "TimingServerApp-default_deadline":
        lambda v: TimingServerApp(default_deadline=v).close(),
    "CoalesceConfig-max_wait": lambda v: CoalesceConfig(max_wait=v),
    "CoalesceConfig-quiet_wait": lambda v: CoalesceConfig(quiet_wait=v),
    "BreakerConfig-reset_timeout": lambda v: BreakerConfig(reset_timeout=v),
    "AdmissionGate-queue_timeout": lambda v: AdmissionGate(queue_timeout=v),
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
        (["serve", "--request-deadline", "nan"], "default_deadline"),
        (["serve", "--max-wait-ms", "nan"], "max_wait"),
        (["serve", "--quiet-wait-ms", "nan"], "quiet_wait"),
        (["serve", "--breaker-reset-ms", "nan"], "reset_timeout"),
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
