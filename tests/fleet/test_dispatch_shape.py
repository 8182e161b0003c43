"""Guard: one dispatch shape — a chunk is one pool task.

A batch of victims is diagnosed either serially in the caller or, when a
fleet hands in its pool, as one task on one warm worker.  Nothing picks a
shard count and nothing but the pool's FIFO checkout can make a chunk
wait, so the knobs that used to tune either are gone from every layer,
and a fleet run sends exactly one task per chunk that has victims while
journalling the bytes a standalone serial service journals.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import repro.core
import repro.core.diagnosis
import repro.fleet
import repro.fleet.supervisor
from repro.core.diagnosis import CacheStats, MicroscopeEngine
from repro.core.streaming import StreamingDiagnosis
from repro.fleet import FleetConfig, FleetSupervisor, PipelineSpec, WorkerPool
from repro.service import DiagnosisService, ServiceConfig
from repro.util.timebase import MSEC

REMOVED_OPTIONS = {
    "workers",
    "concurrent_pipelines",
    "max_inflight_chunks",
    "max_concurrent_chunks",
}

CHUNK_NS = 1 * MSEC
MARGIN_NS = 5 * MSEC


def parameters(fn) -> set:
    return set(inspect.signature(fn).parameters)


def test_no_layer_exposes_a_shard_or_scheduling_knob():
    assert parameters(MicroscopeEngine.diagnose_all) == {
        "self",
        "victims",
        "task_timeout_s",
        "executor",
    }
    assert not REMOVED_OPTIONS & parameters(StreamingDiagnosis.__init__)
    assert not REMOVED_OPTIONS & {f.name for f in fields(ServiceConfig)}
    assert not REMOVED_OPTIONS & {f.name for f in fields(FleetConfig)}
    assert parameters(WorkerPool.submit) == {"self", "task"}
    assert parameters(WorkerPool.diagnose) == {
        "self",
        "engine",
        "victims",
        "task_timeout_s",
    }
    assert not {
        "auto_serial_decisions",
        "auto_parallel_decisions",
    } & {f.name for f in fields(CacheStats)}
    for module in (repro.core, repro.core.diagnosis):
        assert not hasattr(module, "resolve_auto_workers")
        assert not hasattr(module, "AUTO_MIN_VICTIMS")
    for module in (repro.fleet, repro.fleet.supervisor):
        assert not hasattr(module, "FairScheduler")
    assert "resolve_auto_workers" not in repro.core.__all__
    assert "FairScheduler" not in repro.fleet.__all__


def test_fleet_sends_one_task_per_chunk_with_victims(
    tmp_path, interrupt_chain_trace
):
    solo = DiagnosisService(
        interrupt_chain_trace,
        ServiceConfig(
            state_dir=tmp_path / "solo",
            chunk_ns=CHUNK_NS,
            margin_ns=MARGIN_NS,
            durable=False,
        ),
    )
    solo.run()
    chunks_with_victims = sum(
        1 for _index, body in solo.journal.records() if body.get("victims")
    )
    assert chunks_with_victims > 1
    specs = [
        PipelineSpec(name=f"site-{i}", source=interrupt_chain_trace)
        for i in range(2)
    ]
    config = FleetConfig(
        state_dir=tmp_path / "fleet",
        pool_workers=2,
        chunk_ns=CHUNK_NS,
        margin_ns=MARGIN_NS,
        durable=False,
    )
    with WorkerPool(2) as pool:
        report = FleetSupervisor(specs, config, executor=pool).run()
        assert pool.stats.tasks == 2 * chunks_with_victims
        assert pool.stats.failures == 0
    # Each pipeline holds at most one worker at a time, so two pipelines
    # over two workers never wait in checkout.
    assert report.scheduler_stats["waited"] == 0
    assert report.scheduler_stats["admitted"] == 2 * solo.stats.chunks_done
    expected = solo.journal.read_bytes()
    for spec in specs:
        journal = tmp_path / "fleet" / "pipelines" / spec.name / "journal.jsonl"
        assert journal.read_bytes() == expected
