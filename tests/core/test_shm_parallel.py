"""Shared-memory dispatch: zero-copy traces across the process boundary.

Pooled ``diagnose_all`` ships the trace once as a named shared-memory
block; workers attach by name, so the per-task dispatch payload is two
block names.  These tests pin the dispatch contract from DESIGN.md for a
pool handed in as ``executor``: attach round-trips are exact, pooled
output stays bit-identical, payloads stay tiny, and *no* ``/dev/shm``
segment or worker process survives any exit path — success, worker
crash, or a :class:`SimulatedCrash` unwinding mid-dispatch
(``tests/conftest.py``'s leak guard asserts it after every test here).
"""

from __future__ import annotations

import os
import pickle

import numpy as np

import pytest

import repro.core.diagnosis as diagnosis_mod
from repro.core.columnar import (
    attach_trace,
    attach_victims,
    share_trace,
    share_victims,
    shm_available,
)
from repro.core.diagnosis import MicroscopeEngine
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
        lo, hi = 3, min(17, len(victims))
        shm = share_victims(victims[lo:hi], cols)
        try:
            got = attach_victims(shm.name, cols.nf_names)
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
        with WorkerPool(2) as pool:
            parallel = engine.diagnose_all(victims, executor=pool)
        assert engine.last_dispatch["mode"] == "shm"
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        assert canonical_bytes(parallel) == canonical_bytes(serial)

    def test_dispatch_payload_under_ceiling(self, chain):
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        with WorkerPool(2) as pool:
            engine.diagnose_all(victims, executor=pool)
        payload = engine.last_dispatch["payload_bytes_per_task"]
        assert payload is not None
        assert payload < PAYLOAD_CEILING

    def test_payload_independent_of_victim_count(self, chain):
        # The point of shm dispatch: payloads are block names, so they
        # must not scale with the victim population.
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        with WorkerPool(2) as pool:
            engine.diagnose_all(victims[:2], executor=pool)
            small = engine.last_dispatch["payload_bytes_per_task"]
            engine.diagnose_all(victims, executor=pool)
        # Nothing per-victim rides along.
        assert engine.last_dispatch["payload_bytes_per_task"] == small

    def test_pickled_trace_ships_one_representation(self, chain):
        # A pickled (or deep-copied) trace ships its columns once: no
        # object graph and none of the per-process views ride along.
        trace, _victims = chain
        assert trace.nfs and trace.packets  # views built on the original
        blob = pickle.dumps(trace)
        assert len(blob) < trace.columns().nbytes + 64 * 1024
        clone = pickle.loads(blob)
        assert clone._views is None
        for key, array in trace.columns()._arrays().items():
            assert np.array_equal(clone.columns()._arrays()[key], array), key


class TestShmCleanupOnFailure:
    """No /dev/shm segment or worker outlives the pool on any path (the
    leak guard asserts the invariant after every test here)."""

    def test_cleanup_after_worker_crash(self, chain, monkeypatch):
        def exploding_init(*_args, **_kwargs):
            os._exit(13)

        monkeypatch.setattr(diagnosis_mod, "_parallel_worker_init", exploding_init)
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        with WorkerPool(2) as pool:  # forks after the patch: workers crash
            recovered = engine.diagnose_all(victims, executor=pool)
        assert engine.cache_stats.worker_failures > 0
        assert canonical_bytes(recovered) == canonical_bytes(
            MicroscopeEngine(trace).diagnose_all(victims)
        )

    def test_cleanup_when_dispatch_raises_simulated_crash(self, chain, monkeypatch):
        # A SimulatedCrash (BaseException) unwinding out of submit must
        # still unlink the victim block (diagnose's finally) and the trace
        # segment, and reap the workers (the pool's exit).
        def crash(self, task):
            raise SimulatedCrash("pre-diagnose", 0)

        monkeypatch.setattr(WorkerPool, "submit", crash)
        trace, victims = chain
        engine = MicroscopeEngine(trace)
        with pytest.raises(SimulatedCrash):
            with WorkerPool(2) as pool:
                engine.diagnose_all(victims, executor=pool)
