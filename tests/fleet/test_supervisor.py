"""FleetSupervisor: N pipelines, one execution plane, crash-only one level up.

The load-bearing invariant: a pipeline run under the fleet — sharing a
pool, interleaved with siblings — journals the exact bytes it would
journal running alone as a standalone service.  Every fleet feature (stop
propagation, supervisor kill-points, overload budgets) is pinned against
that byte-identity or against the deterministic-shed contract.
"""

from __future__ import annotations

import pytest

from repro.core.records import DiagTrace
from repro.errors import FleetError, ServiceStopped
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    PipelineSpec,
    WorkerPool,
)
from repro.service import (
    FLEET_KILL_POINTS,
    CrashInjector,
    CrashPlan,
    DiagnosisService,
    ServiceConfig,
    SimulatedCrash,
)
from repro.util.timebase import MSEC
from tests.conftest import run_interrupt_chain

CHUNK_NS = 1 * MSEC
MARGIN_NS = 5 * MSEC


def fleet_config(tmp_path, **kwargs) -> FleetConfig:
    kwargs.setdefault("chunk_ns", CHUNK_NS)
    kwargs.setdefault("margin_ns", MARGIN_NS)
    kwargs.setdefault("durable", False)
    kwargs.setdefault("pool_workers", 2)
    kwargs.setdefault("task_timeout_s", 60.0)
    return FleetConfig(state_dir=tmp_path / "fleet", **kwargs)


def solo_journal(tmp_path, trace) -> bytes:
    """Journal bytes of a standalone PR-6 service run on the same trace."""
    cfg = ServiceConfig(
        state_dir=tmp_path / "solo",
        chunk_ns=CHUNK_NS,
        margin_ns=MARGIN_NS,
        durable=False,
    )
    DiagnosisService(trace, cfg).run()
    return (tmp_path / "solo" / "journal.jsonl").read_bytes()


def pipeline_journal(tmp_path, name) -> bytes:
    return (
        tmp_path / "fleet" / "pipelines" / name / "journal.jsonl"
    ).read_bytes()


class TestFleetEquivalence:
    def test_pipelines_byte_identical_to_standalone_service(
        self, tmp_path, interrupt_chain_trace
    ):
        solo = solo_journal(tmp_path, interrupt_chain_trace)
        specs = [
            PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
            for i in range(3)
        ]
        report = FleetSupervisor(specs, fleet_config(tmp_path)).run()
        assert sorted(report.pipelines) == ["site-0", "site-1", "site-2"]
        for spec in specs:
            assert pipeline_journal(tmp_path, spec.name) == solo
        # One trace crossing /dev/shm served every pipeline's every chunk.
        assert report.pool_stats["trace_shares"] == 1
        assert report.pool_stats["trace_reuses"] >= 2
        assert report.pool_stats["failures"] == 0
        assert report.scheduler_stats["admitted"] > 0
        assert report.scheduler_stats["peak_inflight"] >= 1

    def test_rollup_merges_all_pipelines(self, tmp_path, interrupt_chain_trace):
        specs = [
            PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
            for i in range(3)
        ]
        report = FleetSupervisor(specs, fleet_config(tmp_path)).run()
        one = report.pipelines["site-0"].tally
        assert report.rollup.victims == 3 * one.victims
        assert report.rollup.total_score == pytest.approx(3 * one.total_score)
        kind, location, entry = report.rollup.top(1)[0]
        assert entry.sites == 3
        assert f"[{kind}] {location}, 3/3 sites" in report.rollup.format()

    def test_inline_mode_without_pool(self, tmp_path, interrupt_chain_trace):
        solo = solo_journal(tmp_path, interrupt_chain_trace)
        specs = [
            PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
            for i in range(2)
        ]
        report = FleetSupervisor(
            specs, fleet_config(tmp_path, pool_workers=0)
        ).run()
        assert report.pool_stats == {}
        # Without a pool nothing can make a chunk wait.
        assert report.scheduler_stats["waited"] == 0
        for spec in specs:
            assert pipeline_journal(tmp_path, spec.name) == solo

    def test_shared_pool_reused_across_runs(self, tmp_path, interrupt_chain_trace):
        """An injected pool outlives the supervisor (bench warm-up mode)."""
        with WorkerPool(2) as pool:
            for round_dir in ("a", "b"):
                specs = [
                    PipelineSpec(name="site-0", source=interrupt_chain_trace)
                ]
                FleetSupervisor(
                    specs,
                    fleet_config(tmp_path / round_dir),
                    executor=pool,
                ).run()
            assert not pool.closed
            assert pool.stats.trace_shares == 1

    def test_rejects_duplicate_names_and_empty_fleet(
        self, tmp_path, interrupt_chain_trace
    ):
        cfg = fleet_config(tmp_path)
        with pytest.raises(FleetError):
            FleetSupervisor([], cfg)
        with pytest.raises(FleetError):
            FleetSupervisor(
                [
                    PipelineSpec(name="x", source=interrupt_chain_trace),
                    PipelineSpec(name="x", source=interrupt_chain_trace),
                ],
                cfg,
            )


class TestOverloadBudget:
    def test_budget_applies_only_when_oversubscribed(self, tmp_path):
        cfg = fleet_config(
            tmp_path, pool_workers=2, overload_victim_budget=5
        )
        trace = DiagTrace.from_sim_result(run_interrupt_chain())
        over = FleetSupervisor(
            [PipelineSpec(name=f"s{i}", source=trace) for i in range(3)], cfg
        )
        under = FleetSupervisor(
            [PipelineSpec(name=f"s{i}", source=trace) for i in range(2)], cfg
        )
        assert over._pipeline_config(over.pipelines[0]).max_victims_per_chunk == 5
        assert (
            under._pipeline_config(under.pipelines[0]).max_victims_per_chunk
            is None
        )

    def test_oversubscribed_fleet_sheds_deterministically(
        self, tmp_path, interrupt_chain_trace
    ):
        cfg = fleet_config(
            tmp_path, pool_workers=1, overload_victim_budget=5
        )
        specs = [
            PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
            for i in range(2)
        ]
        report = FleetSupervisor(specs, cfg).run()
        for name, pipeline_report in report.pipelines.items():
            assert pipeline_report.stats.victims_shed > 0
        # Both pipelines shed the same victims: budget is config-derived,
        # not load-derived, so their journals are still identical.
        assert pipeline_journal(tmp_path, "site-0") == pipeline_journal(
            tmp_path, "site-1"
        )


class TestCrashRecovery:
    def test_pipeline_crash_stops_siblings_then_reraises(
        self, tmp_path, interrupt_chain_trace
    ):
        solo = solo_journal(tmp_path, interrupt_chain_trace)
        cfg = fleet_config(tmp_path)

        def specs(arm: bool):
            return [
                PipelineSpec(
                    name=f"site-{i}",
                    source=interrupt_chain_trace,
                    faults=(
                        CrashInjector(CrashPlan("after-journal", 1))
                        if arm and i == 0
                        else None
                    ),
                )
                for i in range(3)
            ]

        with pytest.raises(SimulatedCrash):
            FleetSupervisor(specs(True), cfg).run()
        # Every sibling journal is a clean prefix of the full run.
        for i in range(3):
            partial = pipeline_journal(tmp_path, f"site-{i}")
            assert solo.startswith(partial)
        # Restart: everyone resumes from checkpoints and converges.
        report = FleetSupervisor(specs(False), cfg).run()
        for i in range(3):
            assert pipeline_journal(tmp_path, f"site-{i}") == solo
        assert report.rollup.victims == 3 * report.pipelines["site-0"].tally.victims

    @pytest.mark.parametrize("point", FLEET_KILL_POINTS)
    def test_supervisor_kill_points_recover_byte_identical(
        self, tmp_path, interrupt_chain_trace, point
    ):
        solo = solo_journal(tmp_path, interrupt_chain_trace)
        cfg = fleet_config(tmp_path)
        chunk = 1 if point == "pipeline-launch" else 0

        def specs():
            return [
                PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
                for i in range(2)
            ]

        with pytest.raises(SimulatedCrash):
            FleetSupervisor(
                specs(), cfg, faults=CrashInjector(CrashPlan(point, chunk))
            ).run()
        report = FleetSupervisor(specs(), cfg).run()
        for i in range(2):
            assert pipeline_journal(tmp_path, f"site-{i}") == solo
        assert report.rollup.pipelines == ["site-0", "site-1"]

    def test_stop_check_raises_between_chunks(
        self, tmp_path, interrupt_chain_trace
    ):
        calls = []

        def stop_after_two():
            calls.append(None)
            return len(calls) > 2

        service = DiagnosisService(
            interrupt_chain_trace,
            ServiceConfig(
                state_dir=tmp_path / "state",
                chunk_ns=CHUNK_NS,
                margin_ns=MARGIN_NS,
                durable=False,
            ),
            stop_check=stop_after_two,
            pipeline="site-x",
        )
        with pytest.raises(ServiceStopped) as info:
            service.run()
        assert info.value.pipeline == "site-x"
        # Whatever was journalled is a clean prefix: a later run resumes.
        report = DiagnosisService(
            interrupt_chain_trace,
            ServiceConfig(
                state_dir=tmp_path / "state",
                chunk_ns=CHUNK_NS,
                margin_ns=MARGIN_NS,
                durable=False,
            ),
        ).run()
        assert report.stats.resumes == 1
