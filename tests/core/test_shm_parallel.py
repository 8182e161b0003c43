"""Shared-memory dispatch: zero-copy traces across the process boundary.

Parallel ``diagnose_all`` ships the trace once as a named shared-memory
block; workers attach by name, so the per-task dispatch payload is a
handle plus a victim range.  These tests pin the dispatch contract from
DESIGN.md for the pool ``workers=N`` opens for the call: attach
round-trips are exact, parallel output stays bit-identical, payloads stay
tiny, and *no* ``/dev/shm`` segment or worker process survives any exit
path — success, worker crash, or a :class:`SimulatedCrash` unwinding
mid-dispatch (``tests/conftest.py``'s leak guard asserts it after every
test here).
"""

from __future__ import annotations

import os
import pickle

import pytest

import repro.core.diagnosis as diagnosis_mod
from repro.core.columnar import (
    attach_trace,
    attach_victims,
    share_trace,
    share_victims,
    shm_available,
)
from repro.core.diagnosis import MicroscopeEngine, resolve_auto_workers
from repro.core.records import DiagTrace
from repro.core.victims import VictimSelector
from repro.fleet import WorkerPool
from repro.service.crashsim import SimulatedCrash
from tests.conftest import run_interrupt_chain
from tests.core.test_fastpath import canonical_bytes

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared memory on this platform"
)

#: Acceptance criterion from the issue: dispatch payloads under 10 KB.
PAYLOAD_CEILING = 10 * 1024


@pytest.fixture(scope="module")
def chain():
    trace = DiagTrace.from_sim_result(run_interrupt_chain())
    victims = VictimSelector(trace).hop_latency_victims(pct=98.0)
    assert victims
    return trace, victims


class TestShareAttachRoundTrip:
    def test_attached_trace_matches_original(self, chain):
        trace, victims = chain
        cols = trace.columns()
        assert cols is not None
        shm = share_trace(trace)
        try:
            attached, worker_shm = attach_trace(shm.name)
            try:
                acols = attached.columns()
                assert acols.nf_names == cols.nf_names
                assert list(attached.nfs) == list(trace.nfs)
                assert acols.pkt_pid.tolist() == cols.pkt_pid.tolist()
                assert acols.hop_arrival.tolist() == cols.hop_arrival.tolist()
                # Zero-copy: the attached arrays live inside the block.
                assert acols.hop_arrival.base is not None
                # Diagnosis through the attachment is bit-identical.
                sample = victims[:20]
                ours = MicroscopeEngine(attached).diagnose_all(sample)
                theirs = MicroscopeEngine(trace).diagnose_all(sample)
                assert canonical_bytes(ours) == canonical_bytes(theirs)
            finally:
                worker_shm.close()
        finally:
            shm.close()
            shm.unlink()

    def test_victim_block_round_trips_slices(self, chain):
        trace, victims = chain
        cols = trace.columns()
        shm = share_victims(victims, cols)
        try:
            lo, hi = 3, min(17, len(victims))
            got = attach_victims(shm.name, cols.nf_names, lo, hi)
            assert got == list(victims[lo:hi])
            # Scalars decode to plain Python types (json/pickle friendly).
            assert all(type(v.pid) is int for v in got)
            assert all(type(v.metric) is float for v in got)
        finally:
            shm.close()
            shm.unlink()

    def test_attached_trace_objects_materialize_lazily(self, chain):
        trace, _victims = chain
        shm = share_trace(trace)
        try:
            attached, worker_shm = attach_trace(shm.name)
            try:
                pid = next(iter(trace.packets))
                ours = attached.packets[pid]
                theirs = trace.packets[pid]
                assert ours.hops == theirs.hops
                assert ours.emitted_ns == theirs.emitted_ns
                assert ours.flow == theirs.flow
            finally:
                worker_shm.close()
        finally:
            shm.close()
            shm.unlink()


class TestShmParallelDispatch:
    def test_parallel_uses_shm_and_matches_serial(self, chain):
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        parallel = engine.diagnose_all(victims, workers=2)
        assert engine.last_dispatch["mode"] == "shm"
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        assert canonical_bytes(parallel) == canonical_bytes(serial)

    def test_dispatch_payload_under_ceiling(self, chain):
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims, workers=4)
        payload = engine.last_dispatch["payload_bytes_per_task"]
        assert payload is not None
        assert payload < PAYLOAD_CEILING

    def test_payload_independent_of_victim_count(self, chain):
        # The point of shm dispatch: payloads are handles + ranges, so
        # they must not scale with the victim population.
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims[:2], workers=2)
        small = engine.last_dispatch["payload_bytes_per_task"]
        engine.diagnose_all(victims, workers=2)
        # The two range integers may pickle a few bytes wider; nothing
        # per-victim may ride along.
        assert engine.last_dispatch["payload_bytes_per_task"] <= small + 8

    def test_pickled_trace_never_ships_columns(self, chain):
        # A pickled (or deep-copied) trace must not double-ship the data:
        # __getstate__ strips the columnar twin.
        trace, _victims = chain
        assert trace.columns() is not None
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._columns_cache is None
        assert clone.columns() is not None  # rebuilds on demand


class TestShmCleanupOnFailure:
    """No /dev/shm segment or worker outlives diagnose_all on any path
    (the leak guard asserts the invariant after every test here)."""

    def test_cleanup_after_worker_crash(self, chain, monkeypatch):
        def exploding_init(*_args, **_kwargs):
            os._exit(13)

        monkeypatch.setattr(diagnosis_mod, "_parallel_worker_init", exploding_init)
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        recovered = engine.diagnose_all(victims, workers=2)
        assert engine.cache_stats.worker_failures > 0
        assert canonical_bytes(recovered) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )

    def test_cleanup_when_dispatch_raises_simulated_crash(self, chain, monkeypatch):
        # A SimulatedCrash (BaseException) unwinding out of the submit
        # loop must still unlink the victim block (diagnose's finally) and
        # the trace segment, and reap the workers (the scoped pool's exit).
        def crash(self, task, timeout=None):
            raise SimulatedCrash("pre-diagnose", 0)

        monkeypatch.setattr(WorkerPool, "submit", crash)
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        with pytest.raises(SimulatedCrash):
            engine.diagnose_all(victims, workers=2)


class TestAutoWorkers:
    def test_resolver_thresholds(self):
        assert resolve_auto_workers(0, cpus=8) is None
        assert resolve_auto_workers(1023, cpus=8) is None
        assert resolve_auto_workers(1024, cpus=8) == 4
        assert resolve_auto_workers(10_000, cpus=2) == 2
        assert resolve_auto_workers(10_000, cpus=1) is None
        assert resolve_auto_workers(10_000, cpus=16) == 4

    def test_resolver_divides_cpus_among_pipelines(self):
        # N pipelines share the host: each auto decision sees its share,
        # so a fleet cannot oversubscribe the machine N-fold.
        assert resolve_auto_workers(10_000, cpus=8, concurrent_pipelines=1) == 4
        assert resolve_auto_workers(10_000, cpus=8, concurrent_pipelines=2) == 4
        assert resolve_auto_workers(10_000, cpus=8, concurrent_pipelines=4) == 2
        assert resolve_auto_workers(10_000, cpus=8, concurrent_pipelines=8) is None
        assert resolve_auto_workers(10_000, cpus=16, concurrent_pipelines=4) == 4

    def test_auto_serial_decision_recorded(self, chain):
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        few = victims[: min(8, len(victims))]
        auto = engine.diagnose_all(few, workers="auto")
        assert engine.cache_stats.auto_serial_decisions + (
            engine.cache_stats.auto_parallel_decisions
        ) == 1
        assert canonical_bytes(auto) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(few)
        )

    def test_auto_parallel_decision_recorded(self, chain, monkeypatch):
        monkeypatch.setattr(
            diagnosis_mod, "resolve_auto_workers", lambda n, **_kwargs: 2
        )
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        auto = engine.diagnose_all(victims, workers="auto")
        assert engine.cache_stats.auto_parallel_decisions == 1
        assert engine.cache_stats.auto_serial_decisions == 0
        assert canonical_bytes(auto) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )
