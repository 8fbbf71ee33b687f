"""Malformed input never crashes: request bodies and batch documents.

Generated JSON goes to the server's analysis routes and to the batch
readers.  The server must answer every body with a structured status
below 500, and the readers must return a result or raise
:class:`~repro.errors.ReproError`, never anything else.  The
``@example`` rows are bodies and documents that once crashed.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.errors import ReproError
from repro.parsers.verilog import dumps_verilog
from repro.scenarios import family_from_json, spec_from_json
from repro.scenarios.spec import read_batch
from repro.server import CoalesceConfig, TimingServerApp

#: Keys of request bodies, batch documents, family and corner specs.
KEYS = (
    "design", "arrival", "include", "deadline", "scenarios", "family",
    "corners", "samples", "seed", "sigma", "sigma_rel", "name", "scale",
    "modules", "parameter", "values", "sweep", "start", "stop", "count",
    "slope", "sensitivity", "source", "path", "c_in", "a0",
)

#: Leaves: the shapes that broke parsers before, plus plain numbers.
ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(),
    st.sampled_from(
        [
            2**63, 10**400, -(10**400), "nan", "inf", "1e400", "",
            "csa4_2", "corner", "mc", "monte-carlo", "parametric",
            "outputs", "nets", "c_in", "typ",
        ]
    ),
)

DOCS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=9),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    ),
    max_leaves=10,
)


def with_key(key, values, rest):
    """Objects of ``rest`` with ``key`` set to one of ``values``."""
    return st.builds(
        lambda value, doc: {**doc, key: value}, st.sampled_from(values), rest
    )


#: Family specs with a known tag, so generation reaches the family
#: constructors and not only the tag check.
FAMILIES = with_key(
    "family",
    ["corner", "mc", "parametric"],
    st.dictionaries(st.sampled_from(KEYS), DOCS, max_size=4),
)

BATCHES = st.one_of(
    DOCS,
    FAMILIES,
    st.lists(DOCS, max_size=3),
    st.fixed_dictionaries({"scenarios": st.one_of(DOCS, FAMILIES)}),
)

BODIES = with_key(
    "design",
    ["csa4_2", "csa4_2", "nope", ""],
    st.dictionaries(st.sampled_from(KEYS), BATCHES, max_size=4),
)

ROUTES = ("/analyze", "/batch", "/forensics", "/designs")

INPUTS = cascade_adder(4, 2).inputs

#: The once-crashing ``scenarios`` documents (``POST /batch`` 500s and
#: ``--scenarios`` tracebacks).
CRASHED = [
    {"family": []},
    {"scenarios": False},
    {"family": "corner", "corners": 0.5},
]


@pytest.fixture(scope="module")
def app():
    app = TimingServerApp(coalesce=CoalesceConfig(max_batch=1))
    app.registry.register_design(cascade_adder(4, 2))
    yield app
    app.close()


@settings(max_examples=100, deadline=None)
@given(route=st.sampled_from(ROUTES), body=BODIES)
@example(route="/batch", body={"design": "csa4_2", "scenarios": CRASHED[0]})
@example(route="/batch", body={"design": "csa4_2", "family": {"family": {}}})
@example(route="/batch", body={"design": "csa4_2", "scenarios": CRASHED[1]})
@example(route="/batch", body={"design": "csa4_2", "scenarios": CRASHED[2]})
@example(route="/analyze", body={"design": "csa4_2", "include": [{}]})
@example(route="/batch", body={"design": "csa4_2", "scenarios": [{}],
                               "include": [["outputs"]]})
@example(route="/analyze", body={"design": "csa4_2",
                                 "arrival": {"c_in": 10**400}})
@example(route="/analyze", body={"design": "csa4_2", "deadline": 10**400})
@example(route="/batch", body={"design": "csa4_2", "scenarios": {
    "family": "mc", "samples": float("inf")}})
def test_request_bodies_never_500(app, route, body):
    status, ctype, out = app.handle("POST", route, json.dumps(body).encode())
    doc = json.loads(out)
    assert status < 500, (route, body, doc)
    if status >= 400:
        assert doc["error"]["code"], doc


@settings(max_examples=120, deadline=None)
@given(doc=BATCHES)
@example(doc=CRASHED[0])
@example(doc={"family": {"family": {}}})
@example(doc=CRASHED[1])
@example(doc=CRASHED[2])
@example(doc={"family": "mc", "samples": float("inf")})
@example(doc={"family": "parametric", "parameter": "x",
              "sweep": {"count": 2**63}})
@example(doc=[{"c_in": 10**400}])
def test_batch_documents_read_or_raise_repro_error(doc):
    for read in (
        lambda d: read_batch(d, INPUTS, "doc"),
        family_from_json,
        spec_from_json,
    ):
        try:
            read(doc)
        except ReproError:
            pass


@pytest.mark.parametrize("scenarios", CRASHED, ids=["tag", "list", "corners"])
def test_crashing_scenario_files_exit_2(scenarios, tmp_path, capsys):
    verilog = tmp_path / "csa4_2.v"
    verilog.write_text(dumps_verilog(cascade_adder(4, 2, name="csa4_2")))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(scenarios))
    assert main(["demand", str(verilog), "--scenarios", str(batch)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
