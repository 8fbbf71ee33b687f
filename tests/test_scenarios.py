"""Scenario specs and families: parsing, lowering, engine, surfaces.

The redesigned scenario API of ``repro.scenarios``: first-class
:class:`ScenarioSpec` objects, the three generated families
(:class:`CornerSweep` / :class:`ParametricSweep` / :class:`MonteCarlo`),
and the ``analyze_family`` engine that lowers them onto the kernel's
delay-override hooks.  The load-bearing guarantees are exactness
guarantees: a unit-scale corner, a parametric sweep at ``x = 0``, and a
zero-variance Monte-Carlo sample perform the same float64 arithmetic as
a plain single-scenario analysis, so the tests demand bit identity, not
tolerances.
"""

import dataclasses
import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.cli import load_scenarios, main
from repro.errors import AnalysisError, ReproError
from repro.kernel import HAVE_NUMPY
from repro.kernel import backend as kernel_backend
from repro.parsers.verilog import dumps_verilog
from repro.scenarios import (
    Corner,
    CornerSweep,
    FamilyResult,
    MonteCarlo,
    ParametricSweep,
    Scenario,
    ScenarioFamily,
    ScenarioSet,
    analyze_family,
    family_from_json,
    spec_from_json,
)
from repro.scenarios.families import child_seed
from repro.scenarios.result import DETAIL_LIMIT
from repro.scenarios.spec import read_batch
from repro.server import TimingServerApp

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

BACKENDS = ["python", pytest.param("numpy", marks=needs_numpy)]


def pin_executor(monkeypatch, name):
    """Make the kernel's own rule pick executor ``name`` for every
    chunk: numpy (when installed) or python, by showing or hiding
    numpy."""
    monkeypatch.setattr(
        kernel_backend,
        "HAVE_NUMPY",
        name == "numpy" and kernel_backend.numpy_or_none() is not None,
    )


@pytest.fixture(scope="module")
def design():
    return cascade_adder(8, 2)


@pytest.fixture(scope="module")
def handle(design):
    return AnalysisSession(design).compile()


def arrivals_of(result):
    """Per-member output-arrival dicts (only retained on small families)."""
    return [dict(m.arrivals) for m in result.members]


# ----------------------------------------------------------------- spec shapes
class TestScenarioSpec:
    def test_scenario_expand_and_count(self):
        s = Scenario({"a": 1.5}, name="late-a")
        assert s.count() == 1
        assert s.expand() == [{"a": 1.5}]
        assert s.kind == "scenario"

    def test_scenario_none_arrival_is_empty(self):
        assert Scenario().expand() == [{}]

    def test_scenario_rejects_non_numbers(self):
        with pytest.raises(ReproError, match="not a number"):
            Scenario({"a": "zebra"})
        with pytest.raises(ReproError, match="must be finite"):
            Scenario({"a": float("inf")})

    def test_set_from_arrival_mappings(self):
        spec = ScenarioSet([{"a": 1.0}, {"b": 2.0}])
        assert spec.count() == 2
        assert spec.expand() == [{"a": 1.0}, {"b": 2.0}]

    def test_set_from_scenario_objects_and_docs(self):
        spec = ScenarioSet(
            [Scenario({"a": 1.0}), {"arrival": {"b": 2.0}, "name": "x"}]
        )
        assert spec.expand() == [{"a": 1.0}, {"b": 2.0}]
        assert spec.scenarios[1].name == "x"

    def test_set_of_variadic(self):
        spec = ScenarioSet.of({"a": 1.0}, {"b": 2.0}, name="pair")
        assert spec.expand() == [{"a": 1.0}, {"b": 2.0}]
        assert spec.name == "pair"
        with pytest.raises(ReproError, match="empty"):
            ScenarioSet.of()

    def test_set_rejects_empty(self):
        with pytest.raises(ReproError, match="empty"):
            ScenarioSet([])

    def test_set_rejects_non_mapping_item(self):
        with pytest.raises(ReproError, match="item 1"):
            ScenarioSet([{"a": 1.0}, 7])

    def test_equality_by_serialized_form(self):
        assert Scenario({"a": 1.0}) == Scenario({"a": 1.0})
        assert Scenario({"a": 1.0}) != Scenario({"a": 2.0})
        assert Scenario({"a": 1.0}) != ScenarioSet([{"a": 1.0}])
        assert hash(Scenario({"a": 1.0})) == hash(Scenario({"a": 1.0}))

    def test_dumps_is_json(self):
        doc = json.loads(ScenarioSet([{"a": 1.0}], name="n").dumps())
        assert doc == {"scenarios": [{"a": 1.0}], "name": "n"}


class TestSpecFromJson:
    def test_bare_list_is_a_set(self):
        spec = spec_from_json([{"a": 1.0}, {}])
        assert isinstance(spec, ScenarioSet)
        assert spec.count() == 2

    def test_arrival_key_is_a_scenario(self):
        spec = spec_from_json({"arrival": {"a": 3.0}, "name": "s"})
        assert isinstance(spec, Scenario)
        assert spec.name == "s"

    def test_scenarios_key_is_a_set(self):
        spec = spec_from_json({"scenarios": [{"a": 1.0}]})
        assert isinstance(spec, ScenarioSet)

    def test_family_key_dispatches_to_families(self):
        spec = spec_from_json(
            {"family": "corner", "corners": [{"name": "typ"}]}
        )
        assert isinstance(spec, CornerSweep)

    def test_existing_spec_passes_through(self):
        s = Scenario({"a": 1.0})
        assert spec_from_json(s) is s

    def test_object_without_spec_keys_errors(self):
        with pytest.raises(ReproError, match="'family', 'arrival', or"):
            spec_from_json({"a0": 1.0})

    def test_non_list_non_object_errors(self):
        with pytest.raises(ReproError, match="expected a JSON list"):
            spec_from_json(42, source="f.json")

    def test_round_trip_every_shape(self):
        specs = [
            Scenario({"a": 1.0}, name="one"),
            ScenarioSet([{"a": 1.0}, {"b": 2.0}]),
            CornerSweep([Corner("slow", 1.2)], arrival={"a": 1.0}),
            ParametricSweep("vdd", [0.0, 0.5], slope=0.25),
            MonteCarlo(4, seed=9, sigma=0.1),
        ]
        for spec in specs:
            again = spec_from_json(json.loads(json.dumps(spec.to_json())))
            assert again == spec


# -------------------------------------------------------------------- families
class TestCorner:
    def test_validation(self):
        with pytest.raises(ReproError, match="non-empty"):
            Corner(name="")
        with pytest.raises(ReproError, match="finite positive"):
            Corner(name="bad", scale=0.0)
        with pytest.raises(ReproError, match="finite positive"):
            Corner(name="bad", scale=float("nan"))
        with pytest.raises(ReproError, match="'m1'"):
            Corner(name="bad", modules=(("m1", -1.0),))

    def test_json_round_trip(self):
        c = Corner("slow", 1.2, modules=(("csa_block2", 1.5),))
        assert Corner.from_json(c.to_json(), "t") == c
        assert c.by_module == {"csa_block2": 1.5}

    def test_duplicate_corner_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate corner"):
            CornerSweep([{"name": "typ"}, {"name": "typ"}])


class TestFamilySpecs:
    def test_corner_sweep_members(self):
        fam = CornerSweep([Corner("fast", 0.9), Corner("slow", 1.1)])
        assert fam.count() == 2
        labels = [m.label for m in fam.expand()]
        assert labels == ["fast", "slow"]
        assert fam.expand()[1].params == (("scale", 1.1),)

    def test_parametric_members_and_validation(self):
        fam = ParametricSweep("vdd", [0.0, 0.25, 0.5])
        assert fam.count() == 3
        assert [m.label for m in fam.expand()] == [
            "vdd=0", "vdd=0.25", "vdd=0.5",
        ]
        with pytest.raises(ReproError, match="non-empty"):
            ParametricSweep("", [0.0])
        with pytest.raises(ReproError, match="empty"):
            ParametricSweep("x", [])

    def test_monte_carlo_corner_major_expansion(self):
        fam = MonteCarlo(
            3, corners=[{"name": "fast", "scale": 0.9}, {"name": "slow"}]
        )
        assert fam.count() == 6
        members = fam.expand()
        assert [m.label for m in members[:4]] == [
            "fast#0", "fast#1", "fast#2", "slow#0",
        ]
        assert members[3].index == 3

    def test_monte_carlo_validation(self):
        with pytest.raises(ReproError, match="samples must be >= 1"):
            MonteCarlo(0)
        with pytest.raises(ReproError, match=">= 0"):
            MonteCarlo(2, sigma=-0.5)
        assert MonteCarlo(2).corners[0].name == "typ"

    def test_family_from_json_errors(self):
        with pytest.raises(ReproError, match="unknown family"):
            family_from_json({"family": "volcano"})
        with pytest.raises(ReproError, match="needs 'corners'"):
            family_from_json({"family": "corner"})
        with pytest.raises(ReproError, match="needs 'samples'"):
            family_from_json({"family": "mc"})
        with pytest.raises(ReproError, match="needs 'values'"):
            family_from_json({"family": "parametric", "parameter": "x"})
        with pytest.raises(ReproError, match="must be a JSON object"):
            family_from_json([1, 2])

    def test_parametric_sweep_shorthand(self):
        fam = family_from_json(
            {
                "family": "parametric",
                "parameter": "x",
                "sweep": {"start": 0.0, "stop": 1.0, "count": 5},
            }
        )
        assert fam.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_mc_alias(self):
        fam = family_from_json({"family": "mc", "samples": 2})
        assert isinstance(fam, MonteCarlo)

    def test_with_arrival_family_wins(self):
        fam = CornerSweep([Corner("typ")], arrival={"a": 5.0})
        merged = fam.with_arrival({"a": 1.0, "b": 2.0})
        assert merged.arrival == {"a": 5.0, "b": 2.0}
        # the original is untouched
        assert fam.arrival == {"a": 5.0}

    def test_child_seed_deterministic_and_distinct(self):
        seeds = [child_seed(7, i) for i in range(100)]
        assert seeds == [child_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert child_seed(7, 0) != child_seed(8, 0)


# ------------------------------------------------------------ group_factors
class TestGroupFactors:
    def test_unknown_group_is_a_typo_error(self, handle):
        fam = CornerSweep(
            [Corner("slow", modules=(("no_such_module", 1.5),))]
        )
        with pytest.raises(AnalysisError, match="unknown delay group"):
            analyze_family(handle, fam)

    def test_per_module_scaling_scales_everything_here(self, handle):
        # every entry of a csa design belongs to the one leaf module,
        # so a per-module factor must equal a global one
        name = handle.plan.groups[0]
        per_module = analyze_family(
            handle,
            CornerSweep([Corner("s", modules=((name, 1.25),))]),
        )
        global_scale = analyze_family(
            handle, CornerSweep([Corner("s", scale=1.25)])
        )
        assert arrivals_of(per_module) == arrivals_of(global_scale)


# ------------------------------------------------------------------ the engine
class TestEngine:
    def test_needs_a_family(self, handle):
        with pytest.raises(AnalysisError, match="needs a ScenarioFamily"):
            analyze_family(handle, ScenarioSet([{"a0": 1.0}]))

    def test_unknown_arrival_input(self, handle):
        fam = CornerSweep([Corner("typ")], arrival={"zz_top": 1.0})
        with pytest.raises(AnalysisError, match="unknown input 'zz_top'"):
            analyze_family(handle, fam)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unit_corner_bit_identical_to_baseline(
        self, handle, backend, monkeypatch
    ):
        arrival = {"a0": 1.0, "b3": 2.5}
        fam = CornerSweep([Corner("typ", 1.0)], arrival=arrival)
        pin_executor(monkeypatch, backend)
        result = analyze_family(handle, fam)
        assert result.backend == backend
        base = handle.propagate([arrival], nets=handle.outputs)[0]
        assert arrivals_of(result) == [base]
        assert result.delay == max(base.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parametric_x0_bit_identical(self, handle, backend, monkeypatch):
        fam = ParametricSweep(
            "x", [0.0, 1.0], slope=0.5, sensitivity=0.1
        )
        pin_executor(monkeypatch, backend)
        result = analyze_family(handle, fam)
        assert result.backend == backend
        base = handle.propagate([{}], nets=handle.outputs)[0]
        assert dict(result.members[0].arrivals) == base
        # a positive slope strictly slows a non-trivial design
        assert result.members[1].delay > result.members[0].delay

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mc_zero_variance_bit_identical(
        self, handle, backend, monkeypatch
    ):
        fam = MonteCarlo(3, seed=11, sigma=0.0, sigma_rel=0.0)
        pin_executor(monkeypatch, backend)
        result = analyze_family(handle, fam)
        assert result.backend == backend
        base = handle.propagate([{}], nets=handle.outputs)[0]
        assert arrivals_of(result) == [base] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mc_fixed_seed_deterministic(self, handle, backend, monkeypatch):
        fam = MonteCarlo(8, seed=42, sigma=0.2)
        pin_executor(monkeypatch, backend)
        a = analyze_family(handle, fam)
        b = analyze_family(handle, fam)
        assert a.backend == backend
        assert a.delays() == b.delays()
        other = analyze_family(handle, MonteCarlo(8, seed=43, sigma=0.2))
        assert a.delays() != other.delays()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mc_chunking_does_not_change_samples(
        self, handle, backend, monkeypatch
    ):
        # per-member child seeds: chunk boundaries must be invisible
        fam = MonteCarlo(10, seed=5, sigma=0.15)
        pin_executor(monkeypatch, backend)
        big = analyze_family(handle, fam)
        monkeypatch.setattr("repro.kernel.execute.CHUNK", 3)
        small = analyze_family(handle, fam)
        assert big.backend == small.backend == backend
        assert big.delays() == small.delays()

    def test_mc_samples_depend_only_on_seed_and_index(
        self, handle, monkeypatch
    ):
        # The 4-member family and the chunks of 4 run on python, the
        # 16-member family on numpy (the sampler draws with numpy
        # either way when it is installed).  The samples and the
        # answers stay the same.
        def run(samples, executor):
            pin_executor(monkeypatch, executor)
            fam = MonteCarlo(samples, seed=7, sigma_rel=0.1)
            return analyze_family(handle, fam)

        four, sixteen = run(4, "python"), run(16, "numpy")
        monkeypatch.setattr("repro.kernel.execute.CHUNK", 4)
        chunked = run(16, "python")
        assert four.backend == chunked.backend == "python"
        assert sixteen.backend == ("numpy" if HAVE_NUMPY else "python")
        assert four.delays() == sixteen.delays()[:4]
        assert chunked.delays() == sixteen.delays()
        for result in (four, sixteen, chunked):
            for member in result.members:
                assert type(member.delay) is float
                assert all(type(t) is float for _, t in member.arrivals)

    def test_corner_sweep_matches_naive_loop(self, handle):
        # engine result == propagating each corner's scaled delays
        # one at a time through the raw delays= hook
        corners = [Corner("fast", 0.9), Corner("typ"), Corner("slow", 1.3)]
        result = analyze_family(handle, CornerSweep(corners))
        for member, corner in zip(result.members, corners):
            scaled = [
                d * f
                for d, f in zip(
                    handle.plan.ent_delay, corner.factors(handle.plan)
                )
            ]
            lone = handle.propagate(
                [{}], nets=handle.outputs, delays=scaled
            )[0]
            assert dict(member.arrivals) == lone

    def test_aggregates(self, handle):
        result = analyze_family(
            handle,
            CornerSweep([Corner("fast", 0.9), Corner("slow", 1.1)]),
        )
        assert isinstance(result, FamilyResult)
        assert result.count == 2
        assert result.member("slow").delay == result.delay
        assert sum(f for _, f in result.criticality) == pytest.approx(1.0)
        worst = dict(result.worst)
        for out in handle.outputs:
            assert worst[out] == max(
                dict(m.arrivals)[out] for m in result.members
            )
        stats = {s.name: s for s in result.corner_stats()}
        assert stats["slow"].count == 1
        assert stats["slow"].mean == result.member("slow").delay

    def test_detail_limit_drops_arrivals(self, handle):
        big = MonteCarlo(DETAIL_LIMIT + 1, seed=1)
        result = analyze_family(handle, big)
        assert result.count == DETAIL_LIMIT + 1
        assert all(m.arrivals == () for m in result.members)
        # the O(members) summary survives
        assert all(m.delay > 0.0 for m in result.members)

    def test_to_dict_is_json_ready(self, handle):
        result = analyze_family(
            handle, MonteCarlo(4, seed=2, sigma=0.1)
        )
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["count"] == 4
        assert doc["family"] == "monte-carlo"
        assert set(doc["histogram"]) >= {"edges", "counts", "mean"}
        assert len(doc["members"]) == 4

    def test_render_mentions_corners_and_histogram(self, handle):
        text = analyze_family(
            handle,
            MonteCarlo(3, seed=3, sigma=0.1, corners=[{"name": "slow"}]),
        ).render()
        assert "Scenario family 'monte-carlo'" in text
        assert "corner slow" in text
        assert "histogram:" in text

    def test_render_omits_time_and_executor(self, handle):
        # the report repeats byte for byte; to_dict keeps both fields
        result = analyze_family(handle, MonteCarlo(4, seed=2, sigma=0.1))
        other = dataclasses.replace(result, seconds=99.0, backend="other")
        assert other.render() == result.render()
        assert other.to_dict()["seconds"] == 99.0
        assert other.to_dict()["backend"] == "other"


# ----------------------------------------------------- hypothesis properties
class TestExactnessProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(0.0, 8.0, allow_nan=False),
        st.floats(0.0, 8.0, allow_nan=False),
    )
    def test_unit_scale_corner_equals_analyze(self, a, b):
        design = cascade_adder(4, 2)
        session = AnalysisSession(design)
        arrival = {"a0": a, "b1": b}
        fam = CornerSweep([Corner("typ", 1.0)], arrival=arrival)
        family = session.analyze_family(fam)
        single = session.hierarchical(arrival)
        assert dict(family.members[0].arrivals) == single.output_times
        assert family.delay == single.delay

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_zero_variance_mc_equals_analyze(self, seed):
        design = cascade_adder(4, 2)
        session = AnalysisSession(design)
        fam = MonteCarlo(2, seed=seed, sigma=0.0, sigma_rel=0.0)
        family = session.analyze_family(fam)
        single = session.hierarchical({})
        for member in family.members:
            assert dict(member.arrivals) == single.output_times

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_fixed_seed_mc_is_reproducible(self, seed):
        handle = AnalysisSession(cascade_adder(4, 2)).compile()
        fam = MonteCarlo(4, seed=seed, sigma=0.3)
        assert (
            analyze_family(handle, fam).delays()
            == analyze_family(handle, fam).delays()
        )


# ------------------------------------------------------------ session surface
class TestSessionSurface:
    def test_analyze_family_rejects_spec_dict(self, design):
        # JSON is read at the CLI and server boundaries (read_batch);
        # the session takes typed specs
        with pytest.raises(AnalysisError, match="needs a ScenarioFamily"):
            AnalysisSession(design).analyze_family(
                {"family": "corner", "corners": [{"name": "typ"}]}
            )

    def test_analyze_batch_rejects_families(self, design):
        with pytest.raises(AnalysisError, match="analyze_family"):
            AnalysisSession(design).analyze_batch(MonteCarlo(3, seed=1))

    def test_analyze_batch_accepts_specs_without_warning(self, design):
        session = AnalysisSession(design)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = session.analyze_batch(
                ScenarioSet([{"a0": 1.0}, {"b0": 2.0}])
            )
        assert len(batch.scenarios) == 2

    def test_bare_list_rejected(self, design):
        session = AnalysisSession(design)
        with pytest.raises(ReproError, match="ScenarioSet"):
            session.analyze_batch([{"a0": 1.0}])


class TestReadBatch:
    """``read_batch``: the one reader of ``--scenarios`` files and
    ``POST /batch`` bodies, with one scenario grammar at every level."""

    def test_spec_objects_checked_against_inputs(self, design):
        inputs = design.inputs
        assert read_batch({"scenarios": [{"a0": 1.0}]}, inputs) == [
            {"a0": 1.0}
        ]
        assert read_batch({"arrival": {"a0": 1.0}}, inputs) == [
            {"a0": 1.0}
        ]
        with pytest.raises(ReproError, match="unknown input 'zz'"):
            read_batch({"scenarios": [{"zz": 1.0}]}, inputs, "t")
        with pytest.raises(ReproError, match="unknown input 'zz'"):
            read_batch({"arrival": {"zz": 1.0}}, inputs, "t")

    def test_every_scenario_form_at_every_level(self, design):
        inputs = design.inputs
        aligned = [0.0] * len(inputs)
        aligned[inputs.index("c_in")] = 2.0
        forms = [{"c_in": 2.0}, {"arrival": {"c_in": 2.0}, "name": "late"},
                 aligned]
        want = [{"c_in": 2.0}, {"c_in": 2.0}, dict(zip(inputs, aligned))]
        assert read_batch(forms, inputs) == want
        assert read_batch({"scenarios": forms}, inputs) == want

    def test_families_pass_through(self, design):
        fam = read_batch(
            {"family": "corner", "corners": [{"name": "typ"}]},
            design.inputs,
        )
        assert fam == CornerSweep([Corner("typ")])

    @pytest.mark.parametrize(
        ("doc", "needle"),
        [
            ({"scenarios": False}, "'scenarios' must be a list"),
            ({"scenarios": {"c_in": 1.0}}, "'scenarios' must be a list"),
            ({"family": "corner", "corners": 0.5}, "'corners' must be a list"),
            ({"family": "mc", "samples": 2, "corners": {"name": "x"}},
             "'corners' must be a list"),
            ({"family": []}, "unknown family []"),
            ({"family": {"family": {}}}, "unknown family"),
            ({"family": "mc", "samples": float("inf")}, "not an integer"),
            ({"family": "parametric", "parameter": "x",
              "sweep": {"count": 2**63}}, "sweep count must be between"),
            ([{"c_in": 10**400}], "must be finite"),
            ({"c_in": 1.0}, "expected a JSON list"),
        ],
    )
    def test_malformed_documents_are_repro_errors(self, design, doc, needle):
        with pytest.raises(ReproError, match=re.escape(needle)):
            read_batch(doc, design.inputs, "t")


# ------------------------------------------------------------------ the server
@pytest.fixture(scope="module")
def app():
    app = TimingServerApp()
    app.registry.register_design(cascade_adder(4, 2))
    yield app
    app.close()


def call(app, path, payload):
    status, ctype, body = app.handle(
        "POST", path, json.dumps(payload).encode()
    )
    return status, json.loads(body)


class TestServerFamilies:
    def test_family_request(self, app):
        status, doc = call(
            app,
            "/batch",
            {
                "design": "csa4_2",
                "scenarios": {
                    "family": "monte-carlo",
                    "samples": 5,
                    "seed": 7,
                    "sigma": 0.1,
                    "corners": [{"name": "fast", "scale": 0.9},
                                {"name": "slow", "scale": 1.1}],
                },
            },
        )
        assert status == 200
        assert doc["count"] == 10
        assert doc["family"] == "monte-carlo"
        assert {c["name"] for c in doc["corners"]} == {"fast", "slow"}
        assert doc["name"] == "csa4_2"

    def test_family_spec_under_scenarios_key(self, app):
        status, doc = call(
            app,
            "/batch",
            {
                "design": "csa4_2",
                "scenarios": {
                    "family": "corner",
                    "corners": [{"name": "typ"}],
                },
            },
        )
        assert status == 200
        assert doc["family"] == "corner"

    def test_oversized_family_is_413(self, app, monkeypatch):
        def expand(_family):
            raise AssertionError("an oversized family was expanded")

        monkeypatch.setattr(MonteCarlo, "expand", expand)
        status, doc = call(
            app,
            "/batch",
            {
                "design": "csa4_2",
                "scenarios": {"family": "mc", "samples": 5000},
            },
        )
        assert status == 413
        assert doc["error"]["code"] == "too-many-scenarios"
        assert "max_scenarios limit of 4096" in doc["error"]["message"]

    def test_oversized_list_is_413(self, app):
        status, doc = call(
            app,
            "/batch",
            {"design": "csa4_2", "scenarios": [{}] * 4097},
        )
        assert status == 413
        assert doc["error"]["code"] == "too-many-scenarios"
        status, doc = call(
            app,
            "/batch",
            {"design": "csa4_2", "scenarios": [{}] * 4096},
        )
        assert status == 200 and doc["count"] == 4096

    def test_scenario_limit_read_at_call_time(self, app, monkeypatch):
        monkeypatch.setattr("repro.server.app.MAX_SCENARIOS", 50)
        status, doc = call(
            app, "/batch", {"design": "csa4_2", "scenarios": [{}] * 51}
        )
        assert status == 413
        assert "max_scenarios limit of 50" in doc["error"]["message"]

    def test_family_and_scenarios_together_is_400(self, app):
        status, doc = call(
            app,
            "/batch",
            {
                "design": "csa4_2",
                "scenarios": [{}],
                "family": {"family": "mc", "samples": 1},
            },
        )
        assert status == 400

    def test_family_key_is_400(self, app):
        status, doc = call(
            app,
            "/batch",
            {"design": "csa4_2", "family": {"family": "mc", "samples": 1}},
        )
        assert status == 400
        assert doc["error"]["code"] == "bad-request"
        assert "a family goes under 'scenarios'" in doc["error"]["message"]


# --------------------------------------------------------------------- the CLI
class TestFamilyCLI:
    @pytest.fixture()
    def verilog_file(self, tmp_path):
        f = tmp_path / "csa8_2.v"
        f.write_text(dumps_verilog(cascade_adder(8, 2, name="csa8_2")))
        return str(f)

    @pytest.fixture()
    def family_file(self, tmp_path):
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(
            {"family": "mc", "samples": 4, "seed": 1, "sigma": 0.05}
        ))
        return str(f)

    @staticmethod
    def assert_family_flag_refused(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --family")
        assert err.count("\n") == 1

    def test_demand_family_flag(self, verilog_file, family_file, capsys):
        # --family is gone: a --scenarios file holds a family spec
        self.assert_family_flag_refused(
            ["demand", verilog_file, "--family", family_file], capsys
        )

    def test_hier_report_family_flag(
        self, verilog_file, family_file, capsys
    ):
        self.assert_family_flag_refused(
            ["hier-report", verilog_file, "--family", family_file], capsys
        )

    def test_scenarios_file_may_hold_a_family(
        self, verilog_file, family_file, capsys
    ):
        assert (
            main(["demand", verilog_file, "--scenarios", family_file]) == 0
        )
        assert "Scenario family" in capsys.readouterr().out

    def test_family_report_repeats(self, verilog_file, tmp_path, capsys):
        f = tmp_path / "mc.json"
        f.write_text(json.dumps(
            {"family": "monte-carlo", "samples": 600, "seed": 7, "sigma": 0.1}
        ))
        argv = ["demand", verilog_file, "--scenarios", str(f)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_both_flags_exit_2(
        self, verilog_file, family_file, tmp_path, capsys
    ):
        scn = tmp_path / "s.json"
        scn.write_text("[{}]")
        self.assert_family_flag_refused(
            [
                "demand", verilog_file,
                "--scenarios", str(scn), "--family", family_file,
            ],
            capsys,
        )

    def test_family_arrival_flag_merges(
        self, verilog_file, tmp_path, capsys
    ):
        f = tmp_path / "corner.json"
        f.write_text(json.dumps(
            {"family": "corner", "corners": [{"name": "typ"}]}
        ))
        assert main([
            "demand", verilog_file, "--scenarios", str(f),
            "--arrival", "a0=50",
        ]) == 0
        plain = main(["demand", verilog_file, "--scenarios", str(f)])
        assert plain == 0
        late, base = capsys.readouterr().out.split("Scenario family")[1:]
        assert late != base

    def test_dict_scenarios_file_still_one_line_error(
        self, verilog_file, tmp_path, capsys
    ):
        # regression: a valid-JSON object that is not a spec must stay
        # a clean one-liner + exit 2, not a traceback
        scn = tmp_path / "bad.json"
        scn.write_text('{"a0": 1.0}')
        code = main(["demand", verilog_file, "--scenarios", str(scn)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "expected a JSON list" in err
        assert err.count("\n") == 1

    def test_legacy_list_does_not_warn(self, verilog_file, tmp_path):
        scn = tmp_path / "list.json"
        scn.write_text('[{"a0": 1.0}, {"b0": 2.0}]')
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert (
                main(["demand", verilog_file, "--scenarios", str(scn)])
                == 0
            )


class TestLoadScenarios:
    def test_spec_object_with_scenarios_key(self, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"scenarios": [{"a": 1.0}]}))
        assert load_scenarios(str(f), ["a", "b"]) == [{"a": 1.0}]

    def test_family_spec_returned_as_family(self, tmp_path):
        f = tmp_path / "fam.json"
        f.write_text(json.dumps({"family": "mc", "samples": 2}))
        loaded = load_scenarios(str(f), ["a"])
        assert isinstance(loaded, ScenarioFamily)

    def test_arrival_spec_expands(self, tmp_path):
        f = tmp_path / "one.json"
        f.write_text(json.dumps({"arrival": {"a": 2.0}}))
        assert load_scenarios(str(f), ["a"]) == [{"a": 2.0}]
