"""WorkerPool: warm workers, registered traces, failure containment.

Pins the fleet execution plane's contracts: a batch is one task on one
worker and comes back bit-identical to serial, workers and trace segments
are reused across calls (that is the optimization), dead or wedged
workers are replaced and their batch diagnosed serially, and no worker
process or ``/dev/shm`` segment survives ``close()`` — on any unwind
path, ``SimulatedCrash`` included.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro.core.diagnosis as diagnosis_mod
from repro.core import columnar
from repro.core.diagnosis import MicroscopeEngine
from repro.errors import FleetError
from repro.fleet import WorkerPool
from repro.service.crashsim import SimulatedCrash
from tests.core.test_fastpath import canonical_bytes
from tests.fleet.conftest import shm_segments

pytestmark = pytest.mark.skipif(
    not columnar.shm_available(), reason="no shared memory on this platform"
)

#: A well-formed task no worker will ever run (the pool under test is
#: closed): segments that need not exist.
NOOP_TASK = ("shm", "psm_none", "psm_none", ())


class TestPooledDispatch:
    def test_pooled_matches_serial_bit_for_bit(self, chain):
        trace, victims = chain
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        with WorkerPool(2) as pool:
            engine = MicroscopeEngine(trace)
            pooled = engine.diagnose_all(victims, executor=pool)
            assert engine.last_dispatch["mode"] == "shm"
            # The whole batch is one task on one worker.
            assert pool.stats.tasks == 1
        assert canonical_bytes(pooled) == canonical_bytes(serial)

    def test_empty_batch_submits_nothing(self, chain):
        trace, _victims = chain
        with WorkerPool(1) as pool:
            engine = MicroscopeEngine(trace)
            assert pool.diagnose(engine, []) == []
            assert engine.diagnose_all([], executor=pool) == []
            assert pool.stats.tasks == 0
            assert pool.stats.trace_shares == 0

    def test_workers_stay_warm_across_calls(self, chain):
        trace, victims = chain
        with WorkerPool(2) as pool:
            pids_before = sorted(w.proc.pid for w in pool._workers)
            engine = MicroscopeEngine(trace)
            first = engine.diagnose_all(victims, executor=pool)
            second = engine.diagnose_all(victims, executor=pool)
            pids_after = sorted(w.proc.pid for w in pool._workers)
            # Same processes served both calls: nothing was spawned.
            assert pids_after == pids_before
            assert pool.stats.respawns == 0
            # The trace crossed /dev/shm once; the second call reused it.
            assert pool.stats.trace_shares == 1
            assert pool.stats.trace_reuses >= 1
        assert canonical_bytes(first) == canonical_bytes(second)


class TestCrossPipelineDispatch:
    def test_concurrent_multi_shard_pipelines_no_deadlock(self, chain):
        """Three pipelines sharing a one-worker pool: each call holds no
        worker while it waits for one, so dispatch cannot hold-and-wait
        into a standstill, and every pipeline's output stays
        bit-identical to serial."""
        trace, victims = chain
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        results: dict = {}
        errors: list = []

        def run_pipeline(i: int, pool: WorkerPool) -> None:
            try:
                engine = MicroscopeEngine(trace)
                results[i] = engine.diagnose_all(victims, executor=pool)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        with WorkerPool(1) as pool:
            threads = [
                threading.Thread(
                    target=run_pipeline, args=(i, pool), daemon=True
                )
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(
                t.is_alive() for t in threads
            ), "cross-pipeline pooled dispatch deadlocked"
            assert pool.stats.tasks == 3
        assert not errors
        for i in range(3):
            assert canonical_bytes(results[i]) == canonical_bytes(serial)

    def test_checkout_wait_is_counted(self, chain):
        """A call that finds every worker busy blocks in FIFO checkout and
        is counted in ``checkout_waits``, then runs once one frees up."""
        trace, victims = chain
        results: list = []
        with WorkerPool(1) as pool:
            held = pool._free.get()  # a sibling pipeline's task
            engine = MicroscopeEngine(trace)
            thread = threading.Thread(
                target=lambda: results.append(
                    engine.diagnose_all(victims, executor=pool)
                ),
                daemon=True,
            )
            thread.start()
            deadline = time.monotonic() + 60.0
            while pool.stats.checkout_waits == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.stats.checkout_waits == 1
            assert not results
            pool._free.put(held)
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert pool.stats.tasks == 1
        assert canonical_bytes(results[0]) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )


class TestShareFailure:
    def test_unshareable_victims_run_serially_in_thread(self, chain, monkeypatch):
        """``/dev/shm`` exhausted mid-call: with no victim block there is
        nothing to hand a worker, so the batch takes the in-thread serial
        path a lost task takes — same bytes, nothing submitted, nothing
        leaked (the leak guard checks segments and children)."""
        trace, victims = chain

        def exhausted(_victims, _cols):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(columnar, "share_victims", exhausted)
        with WorkerPool(2) as pool:
            engine = MicroscopeEngine(trace)
            result = engine.diagnose_all(victims, executor=pool)
            assert engine.last_dispatch["mode"] == "serial"
            assert engine.last_dispatch["payload_bytes_per_task"] is None
            assert pool.stats.tasks == 0
            assert engine.cache_stats.worker_failures == 0
        assert canonical_bytes(result) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )


class TestTraceRegistry:
    def test_segment_reused_until_trace_mutates(self, chain):
        trace, _victims = chain
        with WorkerPool(1) as pool:
            name1 = pool.register_trace(trace)
            name2 = pool.register_trace(trace)
            assert name1 == name2
            trace._mutations += 1
            name3 = pool.register_trace(trace)
            assert name3 != name1
            # The retired generation was unlinked immediately.
            assert name1.lstrip("/") not in shm_segments()

    def test_registry_lru_evicts_and_unlinks(self, chain):
        trace, _victims = chain
        from repro.core.records import DiagTrace
        from tests.conftest import run_interrupt_chain

        other = DiagTrace.from_sim_result(run_interrupt_chain(seed=1))
        with WorkerPool(1, max_traces=1) as pool:
            name1 = pool.register_trace(trace)
            name2 = pool.register_trace(other)
            assert name2 != name1
            assert name1.lstrip("/") not in shm_segments()

    def test_eviction_defers_unlink_while_inflight(self, chain):
        """An evicted segment still named by an in-flight task must not
        be unlinked until the last harvest drops its reference — and its
        share telemetry must fold into the pool totals, not vanish."""
        trace, _victims = chain
        from repro.core.records import DiagTrace
        from tests.conftest import run_interrupt_chain

        other = DiagTrace.from_sim_result(run_interrupt_chain(seed=1))
        with WorkerPool(1, max_traces=1) as pool:
            name1 = pool.register_trace(trace)
            pool._incref_segment(name1)  # an in-flight shm task names it
            name2 = pool.register_trace(other)  # LRU-evicts name1
            assert name2 != name1
            assert name1.lstrip("/") in shm_segments()
            assert pool.stats.trace_shares == 2
            pool._decref_segment(name1)  # last referencing task harvested
            assert name1.lstrip("/") not in shm_segments()
            assert pool.stats.trace_shares == 2

    def test_mutation_defers_unlink_while_inflight(self, chain):
        trace, _victims = chain
        with WorkerPool(1) as pool:
            name1 = pool.register_trace(trace)
            pool._incref_segment(name1)
            trace._mutations += 1
            name2 = pool.register_trace(trace)
            assert name2 != name1
            # The retired generation survives until its reference drops.
            assert name1.lstrip("/") in shm_segments()
            pool._decref_segment(name1)
            assert name1.lstrip("/") not in shm_segments()
            assert name2.lstrip("/") in shm_segments()
        assert shm_segments() == set()

    def test_register_on_closed_pool_raises(self, chain):
        trace, _victims = chain
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(FleetError):
            pool.register_trace(trace)


class TestFailureContainment:
    def test_respawns_use_spawn_start_method(self, chain):
        # Mid-run respawns happen from a multithreaded parent, where fork
        # can deadlock the child on an inherited lock.
        with WorkerPool(1) as pool:
            assert pool._respawn_context.get_start_method() == "spawn"

    def test_dead_worker_respawned_and_shard_retried(self, chain, monkeypatch):
        trace, victims = chain
        monkeypatch.setattr(
            diagnosis_mod,
            "_parallel_worker_diagnose",
            lambda _victims: os._exit(3),
        )
        # The pool forks AFTER the patch, so workers inherit the crash.
        with WorkerPool(1) as pool:
            engine = MicroscopeEngine(trace)
            result = engine.diagnose_all(victims, executor=pool)
            assert engine.cache_stats.worker_failures >= 1
            assert pool.stats.failures >= 1
            assert pool.stats.respawns >= 1
        # The parent's serial retry used the real engine: results intact.
        assert canonical_bytes(result) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )

    def test_wedged_worker_killed_on_deadline(self, chain, monkeypatch):
        trace, victims = chain
        monkeypatch.setattr(
            diagnosis_mod,
            "_parallel_worker_diagnose",
            lambda _victims: time.sleep(300),
        )
        with WorkerPool(1) as pool:
            engine = MicroscopeEngine(trace)
            start = time.monotonic()
            result = engine.diagnose_all(
                victims, task_timeout_s=0.5, executor=pool
            )
            assert time.monotonic() - start < 60.0
            assert engine.cache_stats.worker_timeouts == 1
            assert pool.stats.timeouts == 1
            assert pool.stats.respawns >= 1
        assert canonical_bytes(result) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )

    def test_worker_error_reply_falls_back_serially(self, chain, monkeypatch):
        trace, victims = chain

        def explode(_victims):
            raise RuntimeError("boom")

        monkeypatch.setattr(diagnosis_mod, "_parallel_worker_diagnose", explode)
        with WorkerPool(1) as pool:
            engine = MicroscopeEngine(trace)
            result = engine.diagnose_all(victims, executor=pool)
            assert engine.cache_stats.worker_failures >= 1
            # An in-worker exception is answered, not fatal: same worker.
            assert pool.stats.respawns == 0
        assert canonical_bytes(result) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )


class TestCleanupContract:
    def test_close_is_idempotent_and_final(self, chain):
        trace, victims = chain
        pool = WorkerPool(2)
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims, executor=pool)
        procs = [w.proc for w in pool._workers]
        pool.close()
        pool.close()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(FleetError):
            pool.submit(NOOP_TASK)

    def test_simulated_crash_mid_dispatch_leaves_no_segments(
        self, chain, monkeypatch
    ):
        """A BaseException unwinding between share and
        harvest must not leak the per-call victim block, and the pool's
        registered trace segment must die with ``close()``."""
        trace, victims = chain
        pool = WorkerPool(1)
        try:
            engine = MicroscopeEngine(trace)

            def crash(_task):
                raise SimulatedCrash("chunk-start", 0)

            monkeypatch.setattr(pool, "submit", crash)
            with pytest.raises(SimulatedCrash):
                engine.diagnose_all(victims, executor=pool)
            # The victim block is already gone; only the registered trace
            # segment remains, owned by the still-open pool.
            assert len(shm_segments()) == 1
        finally:
            pool.close()
        assert shm_segments() == set()
