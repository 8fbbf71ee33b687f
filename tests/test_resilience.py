"""Fail-safe analysis engine: deadlines, fault tolerance, degradation.

Exercises :mod:`repro.resilience` directly (deadlines, fault plans, the
resilient executor, cache quarantine/locking) and end-to-end through the
analyzers and the CLI: every injected crash, timeout, or corruption must
degrade to a conservative answer — never to a traceback, never to an
optimistic one (Theorem 1).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import AnalysisOptions, AnalysisSession
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.cli import main
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer, topological_models
from repro.errors import ReproError
from repro.library.scheduler import characterize_modules
from repro.library.store import ModelLibrary
from repro.obs import RingBufferSink, Tracer
from repro.parsers.verilog import dumps_verilog
from repro.resilience import (
    HAVE_FCNTL,
    Deadline,
    DeadlineExceeded,
    DegradationLog,
    FaultPlan,
    FaultRule,
    FileLock,
    InjectedFault,
    execute_directive,
    parse_fault_spec,
    run_resilient,
)
from repro.resilience import faultinject
from repro.resilience.policy import backoff_delays
from tests.conftest import assert_characterized_at, reset_process_library

EXAMPLE = "examples/csa8_2.v"


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------------- policy
class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline(None, clock=FakeClock())
        assert not d.limited
        assert d.remaining() is None
        assert not d.expired()
        d.check()  # no raise

    def test_expiry_and_check(self):
        clock = FakeClock()
        d = Deadline(5.0, clock=clock)
        assert d.limited and not d.expired()
        clock.now = 4.9
        assert d.remaining() == pytest.approx(0.1)
        clock.now = 5.0
        assert d.expired()
        with pytest.raises(DeadlineExceeded):
            d.check("step 1")

    def test_clamp_tightens_task_timeout(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.clamp(None) == pytest.approx(10.0)
        assert d.clamp(3.0) == pytest.approx(3.0)
        clock.now = 9.0
        assert d.clamp(3.0) == pytest.approx(1.0)
        clock.now = 20.0  # past the deadline: floored, still positive
        assert d.clamp(3.0) == pytest.approx(1e-3)

    def test_unlimited_clamp_passes_through(self):
        d = Deadline(None, clock=FakeClock())
        assert d.clamp(None) is None
        assert d.clamp(2.5) == 2.5


class TestResiliencePolicy:
    def test_backoff_is_deterministic_and_capped(self):
        first = backoff_delays()
        second = backoff_delays()
        seq1 = [next(first) for _ in range(8)]
        seq2 = [next(second) for _ in range(8)]
        assert seq1 == seq2  # fixed seed, same schedule
        # 0.05 s doubling to a 2 s cap, up to 25% jitter from seed 0.
        assert [round(d, 6) for d in seq1] == [
            0.060555, 0.118949, 0.221029, 0.425892,
            0.902255, 1.761974, 2.0, 2.0,
        ]

    def test_options_validate_resilience_fields(self):
        with pytest.raises(ValueError):
            AnalysisOptions(deadline=0.0)
        with pytest.raises(ValueError):
            AnalysisOptions(retries=-1)


# ----------------------------------------------------------------- fault plan
@pytest.mark.faulty
class TestFaultPlan:
    def test_budget_decrements(self):
        plan = FaultPlan().add("scheduler.task", "exception", times=2)
        assert plan.take("scheduler.task") is not None
        assert plan.take("scheduler.task") is not None
        assert plan.take("scheduler.task") is None
        assert len(plan.fired) == 2

    def test_poison_rule_fires_forever(self):
        plan = FaultPlan().add("scheduler.task", "crash", times=-1)
        for _ in range(10):
            assert plan.take("scheduler.task") is not None

    def test_context_match(self):
        plan = FaultPlan().add("scheduler.task", times=5, module="blk2")
        assert plan.take("scheduler.task", module="blk1") is None
        assert plan.take("scheduler.task", module="blk2") is not None

    def test_execute_exception_and_interrupt(self):
        with pytest.raises(InjectedFault):
            execute_directive(("exception", 0.0, "boom"))
        with pytest.raises(KeyboardInterrupt):
            execute_directive(("interrupt", 0.0, "ctrl-c"))
        execute_directive(None)  # no-op

    def test_crash_in_main_process_raises_not_exits(self):
        # A crash directive executed outside a worker must never take
        # down the interpreter — the serial fallback depends on it.
        with pytest.raises(InjectedFault):
            execute_directive(("crash", 0.0, "die"))

    def test_parse_fault_spec(self):
        rule = parse_fault_spec("scheduler.task:crash:-1:module=blk2")
        assert rule.point == "scheduler.task"
        assert rule.kind == "crash"
        assert rule.times == -1
        assert rule.match == {"module": "blk2"}
        assert parse_fault_spec("demand.refine:exception").times == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultRule(point="no.such.point")
        # Fired only by the deleted serial and lazy Step-1 guards.
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan().add("hier.characterize")
        with pytest.raises(ReproError, match="unknown fault point"):
            parse_fault_spec("no.such.point:exception:-1")

    def test_points_are_the_docstring_table(self):
        table = re.findall(
            r"^``([a-z]+\.[a-z]+)``", faultinject.__doc__, re.M
        )
        assert tuple(table) == faultinject.POINTS
        assert len(faultinject.POINTS) == 8

    def test_parse_rejects_bad_specs(self):
        for spec in ("nope", "p:", "p:badkind", "p:crash:x", "p:crash:1:kv"):
            with pytest.raises(ReproError):
                parse_fault_spec(spec)


# ------------------------------------------------------------------- executor
def _double(payload, directive=None, tracer=None):
    execute_directive(directive)
    return payload * 2


@pytest.mark.faulty
class TestRunResilient:
    def test_serial_success(self):
        outcomes = run_resilient(
            _double, [1, 2, 3], options=AnalysisOptions()
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok for o in outcomes)

    def test_serial_injected_failure_degrades(self):
        plan = FaultPlan().add("scheduler.serial", "exception", times=1)
        dlog = DegradationLog()
        outcomes = run_resilient(
            _double,
            [1, 2],
            options=AnalysisOptions(fault_plan=plan),
            dlog=dlog,
        )
        assert [o.ok for o in outcomes] == [False, True]
        assert outcomes[0].failures == 1
        kinds = [d.kind for d in dlog]
        assert kinds == ["task-error"]

    def test_deadline_skips_remaining_serial_work(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now = 100.0  # already past the deadline
        dlog = DegradationLog()
        outcomes = run_resilient(
            _double, [1, 2], options=AnalysisOptions(),
            deadline=deadline, dlog=dlog,
        )
        assert all(not o.ok for o in outcomes)
        assert {d.kind for d in dlog} == {"deadline"}

    def test_interrupt_propagates(self):
        plan = FaultPlan().add("scheduler.serial", "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            run_resilient(
                _double, [1], options=AnalysisOptions(fault_plan=plan),
            )

    @pytest.mark.slow
    def test_worker_crash_recovers(self):
        # First two worker attempts die hard (BrokenProcessPool); the
        # run must still produce every result.
        plan = FaultPlan().add("scheduler.task", "crash", times=2)
        dlog = DegradationLog()
        outcomes = run_resilient(
            _double,
            [1, 2, 3],
            options=AnalysisOptions(jobs=2, fault_plan=plan),
            dlog=dlog,
            sleep=lambda _s: None,
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert any(d.kind == "worker-crash" for d in dlog)

    @pytest.mark.slow
    def test_poison_task_quarantined_then_serial(self):
        # One payload crashes every worker attempt; it must end up
        # quarantined and completed by the in-process fallback.
        plan = FaultPlan().add(
            "scheduler.task", "crash", times=-1, task="2"
        )
        dlog = DegradationLog()
        outcomes = run_resilient(
            _double,
            [1, 2, 3],
            options=AnalysisOptions(jobs=2, retries=3, fault_plan=plan),
            dlog=dlog,
            subject_of=lambda p: {"task": str(p)},
            sleep=lambda _s: None,
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        poisoned = outcomes[1]
        assert poisoned.quarantined
        assert poisoned.failures >= 3  # quarantined after 3 failures
        assert any(d.kind == "quarantine" for d in dlog)

    @pytest.mark.slow
    def test_task_timeout_degrades(self):
        plan = FaultPlan().add(
            "scheduler.task", "timeout", times=-1, seconds=1.5
        )
        dlog = DegradationLog()
        outcomes = run_resilient(
            _double,
            [1, 2],
            options=AnalysisOptions(
                jobs=2, fault_plan=plan, module_timeout=0.2, retries=0
            ),
            dlog=dlog,
            sleep=lambda _s: None,
        )
        # The serial fallback runs the task without the worker directive,
        # so results still arrive — but the timeout was recorded.
        assert [o.result for o in outcomes] == [2, 4]
        assert any(d.kind == "task-timeout" for d in dlog)


# ------------------------------------------------------------------ scheduler
@pytest.mark.faulty
class TestSchedulerDegradation:
    def test_total_failure_falls_back_to_topological(self, csa4_design):
        # Every attempt (there is no parallel phase at jobs=1) fails:
        # the module must come back with its topological model.
        plan = FaultPlan().add("scheduler.serial", "exception", times=-1)
        dlog = DegradationLog()
        library = ModelLibrary()  # memory-only
        results = characterize_modules(
            csa4_design.modules, AnalysisOptions(fault_plan=plan),
            library=library, dlog=dlog,
        )
        assert set(results) == set(csa4_design.modules)
        assert any(d.kind == "characterization-error" for d in dlog)
        # Fallback models must never poison the persistent library.
        assert library.stats.stores == 0

    def test_fallback_is_conservative(self, csa4_design):
        plan = FaultPlan().add("scheduler.serial", "exception", times=-1)
        degraded = HierarchicalAnalyzer(
            csa4_design,
            library=ModelLibrary(),
            options=AnalysisOptions(fault_plan=plan),
        ).analyze()
        exact = HierarchicalAnalyzer(csa4_design).analyze()
        assert degraded.degradations
        assert degraded.degraded
        for out, t in exact.output_times.items():
            assert degraded.output_times[out] >= t


@pytest.mark.faulty
class TestConeRunner:
    """Step 1 has one runner, over output cones: every caller gets the
    same workers, deadline, fault points and per-cone fallback."""

    @staticmethod
    def tuples(results):
        return {
            name: {out: model.tuples for out, model in models.items()}
            for name, models in results.items()
        }

    @pytest.mark.slow
    def test_one_module_design_reaches_workers(self):
        design = cascade_adder(8, 2)  # one module: csa_block2
        assert len(design.modules) == 1
        plan = FaultPlan().add("scheduler.task", "exception", times=1)
        dlog = DegradationLog()
        parallel = characterize_modules(
            design.modules, AnalysisOptions(jobs=2, fault_plan=plan),
            dlog=dlog,
        )
        assert plan.rules[0].times == 0  # a worker took the rule
        assert [d.kind for d in dlog] == ["task-error"]
        assert dlog.snapshot()[0].subject.startswith("csa_block2:")
        reset_process_library()  # else the serial run reads the memo
        serial = characterize_modules(design.modules)
        assert self.tuples(parallel) == self.tuples(serial)

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_models_identical_at_any_jobs(self, jobs):
        from repro.circuits.partition import cascade_bipartition
        from repro.circuits.random_logic import random_network

        for design in (
            cascade_adder(8, 2),
            cascade_bipartition(random_network(6, 24, seed=5, num_outputs=3)),
        ):
            serial = characterize_modules(design.modules)
            reset_process_library()  # else the parallel run reads the memo
            sink = RingBufferSink()
            parallel = characterize_modules(
                design.modules,
                AnalysisOptions(jobs=jobs, tracer=Tracer(sinks=[sink])),
            )
            assert self.tuples(parallel) == self.tuples(serial)
            assert_characterized_at(sink, jobs)

    def test_one_cone_fault_degrades_only_that_output(self, csa4_design):
        from repro.core.required import characterize_network

        network = csa4_design.modules["csa_block2"].network
        plan = FaultPlan().add(
            "scheduler.serial", "exception", times=-1,
            module="csa_block2", output="c_out",
        )
        library = ModelLibrary()
        dlog = DegradationLog()
        models = characterize_modules(
            csa4_design.modules, AnalysisOptions(fault_plan=plan),
            library=library, dlog=dlog,
        )["csa_block2"]
        exact = characterize_network(network)
        topological = topological_models(network)
        assert models["c_out"] == topological["c_out"] != exact["c_out"]
        for out in network.outputs:
            if out != "c_out":
                assert models[out] == exact[out]
        assert [(d.kind, d.subject) for d in dlog] == [
            ("task-error", "csa_block2:c_out"),
            ("characterization-error", "csa_block2:c_out"),
        ]
        # A partly topological module never reaches the library.
        assert library.stats.stores == 0

    def test_per_instance_honours_the_deadline(self):
        design = cascade_adder(8, 2)
        exact = AnalysisSession(design).per_instance()
        degraded = AnalysisSession(design, deadline=1e-9).per_instance()
        topological = AnalysisSession(
            design, functional=False
        ).hierarchical()
        assert exact.delay == 16.0
        assert degraded.delay == topological.delay == 26.0
        assert {d.kind for d in degraded.degradations} == {
            "deadline", "characterization-error",
        }
        assert {d.subject for d in degraded.degradations} == {
            f"{inst}:{out}"
            for inst in design.instances
            for out in design.modules["csa_block2"].outputs
        }

    def test_per_instance_honours_the_fault_plan(self):
        plan = FaultPlan().add("scheduler.serial", "exception", times=-1)
        result = AnalysisSession(
            cascade_adder(8, 2), fault_plan=plan
        ).per_instance()
        assert result.delay == 26.0
        assert {d.kind for d in result.degradations} == {
            "task-error", "characterization-error",
        }


# ---------------------------------------------------------------------- store
class TestStoreHardening:
    def test_corrupt_entry_quarantined(self, tmp_path, csa4_design):
        cache = tmp_path / "cache"
        library = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=library).analyze()
        entries = list(cache.glob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{ not json")
        fresh = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=fresh).analyze()
        assert fresh.stats.corrupt_entries == len(entries)
        assert fresh.stats.quarantined == len(entries)
        quarantined = list((cache / "quarantine").glob("*.json"))
        assert len(quarantined) == len(entries)
        # The bad bytes are preserved for post-mortem inspection.
        assert quarantined[0].read_text() == "{ not json"

    def test_schema_mismatch_quarantined(self, tmp_path, csa4_design):
        cache = tmp_path / "cache"
        library = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=library).analyze()
        entry = next(cache.glob("*.json"))
        document = json.loads(entry.read_text())
        document["version"] = 999
        entry.write_text(json.dumps(document))
        fresh = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=fresh).analyze()
        assert fresh.stats.schema_mismatches == 1
        assert fresh.stats.quarantined == 1
        assert (cache / "quarantine" / entry.name).exists()

    @pytest.mark.faulty
    def test_injected_read_corruption(self, tmp_path, csa4_design):
        cache = tmp_path / "cache"
        warm = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=warm).analyze()
        plan = FaultPlan().add("store.read", "corrupt", times=1)
        library = ModelLibrary(cache, fault_plan=plan)
        result = HierarchicalAnalyzer(
            csa4_design, library=library
        ).analyze()
        # The poisoned read degrades to re-characterization, not failure.
        assert result.output_times
        assert library.stats.corrupt_entries == 1

    @pytest.mark.faulty
    def test_injected_store_corruption_heals(self, tmp_path, csa4_design):
        cache = tmp_path / "cache"
        plan = FaultPlan().add("store.corrupt", "corrupt", times=1)
        library = ModelLibrary(cache, fault_plan=plan)
        HierarchicalAnalyzer(csa4_design, library=library).analyze()
        # The store was garbled after the write; the next run must
        # quarantine it, re-characterize, and heal the cache.
        second = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=second).analyze()
        assert second.stats.quarantined == 1
        assert second.stats.characterizations == 1
        third = ModelLibrary(cache)
        HierarchicalAnalyzer(csa4_design, library=third).analyze()
        assert third.stats.disk_hits >= 1
        assert third.stats.characterizations == 0

    def test_durability_and_locking_flags(self, tmp_path, csa4_design):
        library = ModelLibrary(
            tmp_path / "cache", locking=False, durable=False
        )
        HierarchicalAnalyzer(csa4_design, library=library).analyze()
        assert library.stats.stores >= 1


@pytest.mark.skipif(not HAVE_FCNTL, reason="fcntl not available")
class TestFileLock:
    def test_exclusive_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        assert not lock.held
        with lock.exclusive():
            assert lock.held
            with lock.shared():  # reentrant: depth counter, no deadlock
                assert lock.held
            assert lock.held
        assert not lock.held

    def test_disabled_lock_is_noop(self, tmp_path):
        lock = FileLock(tmp_path / ".lock", enabled=False)
        with lock.exclusive():
            assert not lock.held
        assert not (tmp_path / ".lock").exists()


# ------------------------------------------------------------------ analyzers
@pytest.mark.faulty
class TestAnalyzerDegradation:
    def test_hier_deadline_degrades_to_topological(self, csa4_design):
        exact = HierarchicalAnalyzer(csa4_design).analyze()
        reset_process_library()  # else the memo answers, exactly
        degraded = HierarchicalAnalyzer(
            csa4_design, options=AnalysisOptions(deadline=1e-9)
        ).analyze()
        assert any(d.kind == "deadline" for d in degraded.degradations)
        for out, t in exact.output_times.items():
            assert degraded.output_times[out] >= t

    def test_hier_characterize_fault_degrades(self, csa4_design):
        plan = FaultPlan().add("scheduler.serial", "exception", times=-1)
        degraded = HierarchicalAnalyzer(
            csa4_design, options=AnalysisOptions(fault_plan=plan)
        ).analyze()
        exact = HierarchicalAnalyzer(csa4_design).analyze()
        assert degraded.degradations
        for out, t in exact.output_times.items():
            assert degraded.output_times[out] >= t

    @pytest.mark.parametrize(
        "options",
        [
            lambda: AnalysisOptions(
                fault_plan=FaultPlan().add(
                    "scheduler.serial", "exception", times=-1
                )
            ),
            lambda: AnalysisOptions(deadline=1e-9),
        ],
        ids=["serial-fault", "deadline"],
    )
    def test_one_plan_one_answer(self, options):
        """Step 1 has one path: the same fault plan (or deadline) gives
        the same delay and the same degradation records whether or not
        a model library is attached."""

        def run(**kwargs):
            result = HierarchicalAnalyzer(
                cascade_adder(4, 2), options=options(), **kwargs
            ).analyze()
            return result.delay, [
                (d.kind, d.subject, d.detail, d.fallback)
                for d in result.degradations
            ]

        plain = run()
        assert plain == run(library=ModelLibrary())
        delay, records = plain
        assert delay == 14.0  # the topological bound; exact is 12.0
        # Step 1 runs per output cone: every cone degrades on its own.
        assert records[-1] == (
            "characterization-error",
            "csa_block2:c_out",
            "characterization failed 1 time(s)",
            "topological-model",
        )

    def test_demand_refine_fault_keeps_conservative(self, csa4_design):
        plan = FaultPlan().add("demand.refine", "exception", times=-1)
        degraded = DemandDrivenAnalyzer(
            csa4_design, options=AnalysisOptions(fault_plan=plan)
        ).analyze()
        exact = DemandDrivenAnalyzer(csa4_design).analyze()
        assert degraded.degradations
        assert degraded.delay >= exact.delay
        assert degraded.delay <= degraded.topological_delay
        # With every refinement failing, nothing improves.
        assert degraded.delay == degraded.topological_delay

    def test_demand_refine_budget(self, csa4_design):
        capped = DemandDrivenAnalyzer(
            csa4_design, options=AnalysisOptions(refine_budget=0)
        ).analyze()
        assert capped.delay == capped.topological_delay
        assert any(
            d.kind == "refinement-budget" for d in capped.degradations
        )
        uncapped = DemandDrivenAnalyzer(csa4_design).analyze()
        assert uncapped.delay <= capped.delay
        assert not uncapped.degradations

    def test_demand_deadline(self, csa4_design):
        degraded = DemandDrivenAnalyzer(
            csa4_design, options=AnalysisOptions(deadline=1e-9)
        ).analyze()
        assert any(d.kind == "deadline" for d in degraded.degradations)
        assert degraded.delay == degraded.topological_delay

    def test_degradations_serialize(self, csa4_design):
        plan = FaultPlan().add("demand.refine", "exception", times=1)
        result = DemandDrivenAnalyzer(
            csa4_design, options=AnalysisOptions(fault_plan=plan)
        ).analyze()
        payload = result.to_dict()
        assert payload["degradations"]
        assert {"kind", "subject", "detail", "fallback"} <= set(
            payload["degradations"][0]
        )

    def test_session_surfaces_degradations(self, csa4_design):
        plan = FaultPlan().add("demand.refine", "exception", times=1)
        session = AnalysisSession(
            csa4_design, options=AnalysisOptions(fault_plan=plan)
        )
        result = session.demand_driven()
        assert result.degradations


@pytest.mark.faulty
class TestCharacterizeDeadline:
    def test_session_deadline_gives_topological_models(self):
        network = carry_skip_block(4)
        dlog = DegradationLog()
        models = AnalysisSession(
            network, options=AnalysisOptions(deadline=1e-9)
        ).characterize(dlog=dlog)
        assert models == topological_models(network)
        assert {d.kind for d in dlog} == {"deadline", "characterization-error"}
        assert {d.subject for d in dlog} == {
            f"{network.name}:{output}" for output in network.outputs
        }

    def test_cli_reports_deadline_degradations(self, tmp_path, capsys):
        source = tmp_path / "csb4.v"
        source.write_text(dumps_verilog(carry_skip_block(4)))
        cache = tmp_path / "cache"
        rc = main([
            "characterize", str(source), "--deadline", "1e-9",
            "--cache-dir", str(cache), "-o", str(tmp_path / "lib.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 0
        deadline_lines = [
            line for line in err.splitlines()
            if line.strip().startswith("[deadline]")
        ]
        assert len(deadline_lines) == len(carry_skip_block(4).outputs)
        assert "(fallback: " in deadline_lines[0]
        # The partly topological library is never stored.
        assert "0 hits, 0 characterizations" in err
        assert not list(cache.glob("*.json"))


# ------------------------------------------------------------------------ CLI
class TestCLIFailSafe:
    def test_binary_input_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "junk.bench"
        bad.write_bytes(b"\x80\x81\xff binary garbage \x00")
        rc = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exits_2(self, capsys):
        rc = main(["report", "does/not/exist.bench"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    def test_bad_inject_spec_exits_2(self, capsys):
        rc = main(["hier-report", EXAMPLE, "--inject", "nonsense"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "fault spec" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demand", EXAMPLE, "--inject", "no.such.point:exception:-1"],
            [
                "hier-report", EXAMPLE,
                "--inject", "hier.characterize:exception",
            ],
            ["serve", "--port", "0", "--inject", "no.such.point:exception"],
        ],
        ids=["demand", "removed-point", "serve"],
    )
    def test_unknown_fault_point_exits_2(self, capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown fault point")
        assert len(err.strip().splitlines()) == 1

    def test_bad_deadline_exits_2(self, capsys):
        rc = main(["hier-report", EXAMPLE, "--deadline", "-1"])
        assert rc == 2

    @pytest.mark.faulty
    def test_injected_interrupt_exits_130(self, capsys):
        # At --jobs 2 the cones of the one module run in workers.
        rc = main([
            "hier-report", EXAMPLE, "--jobs", "2",
            "--inject", "scheduler.task:interrupt",
        ])
        err = capsys.readouterr().err
        assert rc == 130
        assert "interrupted" in err

    @pytest.mark.faulty
    def test_fault_injected_report_is_conservative(self, capsys):
        # The ISSUE acceptance scenario: a fault-injected hier-report
        # completes without a traceback, reports its degradations, and
        # its arrival times bound the fault-free run from above.
        def delays(argv):
            rc = main(argv)
            out = capsys.readouterr().out
            assert rc == 0
            times = {}
            for line in out.splitlines():
                parts = line.split()
                if len(parts) == 2 and parts[0].startswith(("s", "c")):
                    try:
                        times[parts[0]] = float(parts[1])
                    except ValueError:
                        pass
            return out, times

        clean_out, clean = delays(["hier-report", EXAMPLE, "--jobs", "2"])
        assert "degradations" not in clean_out
        reset_process_library()  # the faulted run characterizes again
        # Every worker attempt fails, then so does the first in-process
        # fallback: that cone keeps its topological model.
        fault_out, faulted = delays([
            "hier-report", EXAMPLE, "--jobs", "2",
            "--inject", "scheduler.task:exception:-1",
            "--inject", "scheduler.serial:exception:1",
        ])
        assert "conservative degradations" in fault_out
        assert clean and set(clean) == set(faulted)
        for out, t in clean.items():
            assert faulted[out] >= t
