"""Malformed input never crashes: request bodies, batch documents and
netlists.

Generated JSON goes to the server's analysis routes and to the batch
readers, and mutated Verilog, BLIF and ``.bench`` dumps go to the
netlist readers, to the analyses of whatever parses, and to
``POST /designs``.  The server must answer every body with a structured
status below 500, and the readers and analyses must return a result or
raise :class:`~repro.errors.ReproError`, never anything else.  The
``@example`` rows are bodies and documents that once crashed.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.errors import ReproError
from repro.netlist.hierarchy import HierDesign
from repro.parsers import (
    dumps_bench,
    dumps_blif,
    loads_bench,
    loads_blif,
    loads_verilog,
)
from repro.parsers.verilog import dumps_verilog
from repro.scenarios import family_from_json, spec_from_json
from repro.scenarios.spec import read_batch
from repro.server import TimingServerApp

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
    app = TimingServerApp(max_batch=1)
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


# ------------------------------------------------------------ netlist readers
def _tokens(text):
    """Whitespace runs, words and single punctuation marks: joined
    back together they give ``text`` again."""
    return tuple(re.findall(r"\s+|\w+|\S", text))


_CSA = cascade_adder(4, 2, name="csa4_2")

#: Format -> (tokens of a valid dump of csa4.2, reader).  BLIF and
#: ``.bench`` are flat formats, so they hold the flattened adder.
NETLISTS = {
    "verilog": (_tokens(dumps_verilog(_CSA)), loads_verilog),
    "blif": (_tokens(dumps_blif(_CSA.flatten())), loads_blif),
    "bench": (_tokens(dumps_bench(_CSA.flatten())), loads_bench),
}

#: Tokens an insert draws from: each format's punctuation and keywords,
#: names the dumps use, and numbers that broke other readers.
NETLIST_TOKENS = (
    "(", ")", ",", ";", "=", ".", "#", "\n", " ", "-", "0", "1", "2",
    "module", "endmodule", "input", "output", "wire", "assign", "and",
    "INPUT", "OUTPUT", "AND", "OR", "NOT", "XOR", "BUFF", "names",
    "model", "inputs", "outputs", "end", "subckt", "csa4_2", "a0", "c_in",
    "s0", "1e400", "nan", "-1",
)

#: One edit: ``(kind, i, j, token)``; positions wrap modulo the length.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "swap", "splice")),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(NETLIST_TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(tokens, edits):
    """Token deletes, inserts, swaps and splices (a copied run of up to
    eight tokens), applied in order."""
    tokens = list(tokens)
    for kind, i, j, token in edits:
        if not tokens:
            tokens.append(token)
            continue
        i, j = i % len(tokens), j % len(tokens)
        if kind == "delete":
            del tokens[i]
        elif kind == "insert":
            tokens.insert(i, token)
        elif kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[j:j] = tokens[i:i + 8]
    return "".join(tokens)


def analyze(circuit):
    """Every analysis a parsed circuit supports on the command line:
    hierarchical and demand-driven for a design, flat delays and the
    report for a network."""
    session = AnalysisSession(circuit)
    if isinstance(circuit, HierDesign):
        session.hierarchical()
        session.demand_driven()
    else:
        session.functional_delays()
        session.report()


@pytest.mark.parametrize("fmt", sorted(NETLISTS))
@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
def test_mutated_netlists_read_and_analyze_or_raise_repro_error(fmt, edits):
    tokens, read = NETLISTS[fmt]
    text = mutate(tokens, edits)
    try:
        analyze(read(text))
    except ReproError:
        pass


@pytest.fixture(scope="module")
def designs_app():
    app = TimingServerApp(max_batch=1)
    yield app
    app.close()


@settings(max_examples=60, deadline=None)
@given(edits=EDITS)
def test_mutated_verilog_registration_never_500(designs_app, edits):
    source = mutate(NETLISTS["verilog"][0], edits)
    body = json.dumps({"source": source}).encode()
    status, _ctype, out = designs_app.handle("POST", "/designs", body)
    doc = json.loads(out)
    assert status < 500, (source, doc)
    if status >= 400:
        assert doc["error"]["code"], doc
