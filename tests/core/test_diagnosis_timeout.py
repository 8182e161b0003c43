"""Watchdogged pooled diagnosis: hung workers are killed, not waited on.

``diagnose_all(task_timeout_s=T, executor=pool)`` promises that a wedged
worker process (infinite loop, deadlock) cannot hang the caller: the
batch is one task, its deadline fires, its worker is killed and
replaced, and the batch is retried serially in the caller — with the
incident surfaced in ``cache_stats.worker_timeouts``.  The hang is
simulated by monkeypatching the worker entry point before the pool forks,
so the children inherit the wedged function while the parent keeps the
real one for serial retry.
"""

from __future__ import annotations

import time

import pytest

import repro.core.diagnosis as diagnosis_mod
from repro.core.diagnosis import MicroscopeEngine
from repro.core.victims import VictimSelector
from repro.fleet import WorkerPool
from tests.core.test_streaming_fastpath import canonical_bytes


@pytest.fixture()
def victims(interrupt_chain_trace):
    return VictimSelector(interrupt_chain_trace).hop_latency_victims(pct=99.0)[:24]


def _wedged_worker(victims):  # pragma: no cover - runs in a child we kill
    while True:
        time.sleep(0.2)


def _slow_worker(victims):  # pragma: no cover - runs in a child we kill
    time.sleep(0.2)
    return diagnosis_mod._parallel_worker_diagnose_real(victims)


class TestHungWorkerWatchdog:
    def test_timeout_kills_pool_and_retries_serially(
        self, interrupt_chain_trace, victims, monkeypatch
    ):
        reference = MicroscopeEngine(interrupt_chain_trace).diagnose_all(victims)
        monkeypatch.setattr(
            diagnosis_mod, "_parallel_worker_diagnose", _wedged_worker
        )
        engine = MicroscopeEngine(interrupt_chain_trace)
        with WorkerPool(2) as pool:  # forks after the patch: workers wedge
            start = time.monotonic()
            results = engine.diagnose_all(
                victims, task_timeout_s=0.5, executor=pool
            )
            elapsed = time.monotonic() - start
            assert pool.stats.timeouts == 1
            assert pool.stats.respawns == 1
        # The whole call returns promptly: deadline + serial retry, not the
        # infinite hang the workers are stuck in.
        assert elapsed < 30.0
        assert canonical_bytes(results) == canonical_bytes(reference)
        stats = engine.cache_stats
        assert stats.worker_timeouts == 1
        assert stats.worker_failures == 1

    def test_no_timeout_configured_means_no_watchdog_counter(
        self, interrupt_chain_trace, victims
    ):
        engine = MicroscopeEngine(interrupt_chain_trace)
        with WorkerPool(2) as pool:
            engine.diagnose_all(victims, executor=pool)
        assert engine.cache_stats.worker_timeouts == 0

    def test_generous_timeout_unaffected(
        self, interrupt_chain_trace, victims
    ):
        reference = MicroscopeEngine(interrupt_chain_trace).diagnose_all(victims)
        engine = MicroscopeEngine(interrupt_chain_trace)
        with WorkerPool(2) as pool:
            results = engine.diagnose_all(
                victims, task_timeout_s=120.0, executor=pool
            )
        assert canonical_bytes(results) == canonical_bytes(reference)
        assert engine.cache_stats.worker_timeouts == 0

    def test_timeout_applies_per_task_not_total(
        self, interrupt_chain_trace, victims, monkeypatch
    ):
        """A worker that is merely slow (but within the per-task deadline)
        completes normally — the watchdog measures the task, not the
        caller's wait."""
        monkeypatch.setattr(
            diagnosis_mod,
            "_parallel_worker_diagnose_real",
            diagnosis_mod._parallel_worker_diagnose,
            raising=False,
        )
        monkeypatch.setattr(
            diagnosis_mod, "_parallel_worker_diagnose", _slow_worker
        )
        reference = MicroscopeEngine(interrupt_chain_trace).diagnose_all(victims)
        engine = MicroscopeEngine(interrupt_chain_trace)
        with WorkerPool(2) as pool:
            results = engine.diagnose_all(
                victims, task_timeout_s=60.0, executor=pool
            )
        assert canonical_bytes(results) == canonical_bytes(reference)
        assert engine.cache_stats.worker_timeouts == 0
