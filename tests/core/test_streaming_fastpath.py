"""Streaming fast-path correctness: cross-chunk engine reuse must be exact.

ISSUE 2 pins three contracts on the incremental streaming engine:

* equivalence — ``StreamingDiagnosis.run()`` with the carried engine is
  bit-identical to batch ``diagnose_all`` (for *any* chunk size/margin)
  and to an engine rebuilt at every chunk (the restore path),
* chunk-boundary correctness — victims whose queuing periods straddle a
  chunk boundary are diagnosed against their full period, and a
  margin-too-small configuration is detected and reported,
* carry/evict accounting — the cross-chunk counters balance and eviction
  never changes results.
"""

from __future__ import annotations

import json

import pytest

from repro.core.diagnosis import (
    MicroscopeEngine,
    _diagnosis_from_wire,
    _diagnosis_to_wire,
)
from repro.core.records import DiagTrace, PacketHop, PacketView
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import Victim, VictimSelector
from repro.fleet import WorkerPool
from repro.nfv.packet import FiveTuple
from repro.util.timebase import MSEC, USEC
from tests.core.test_streaming import rebuilt_chunks
from tests.oracles.engine import OracleEngine, streaming_through
from tests.oracles.trace import NFView


def canonical_bytes(diagnoses) -> bytes:
    """Identity-insensitive byte serialization of the culprit output."""
    payload = [
        [
            [c.kind, c.location, c.score, list(c.culprit_pids), c.victim_pid,
             c.victim_nf, c.depth, c.culprit_time_ns]
            for c in d.culprits
        ]
        for d in diagnoses
    ]
    return json.dumps(payload, sort_keys=True).encode()


@pytest.fixture(scope="module")
def batch_reference(interrupt_chain_trace):
    trace = interrupt_chain_trace
    victims = sorted(
        VictimSelector(trace).hop_latency_victims(pct=99.0)
        + VictimSelector(trace).drop_victims(),
        key=lambda v: v.arrival_ns,
    )
    return MicroscopeEngine(trace).diagnose_all(victims)


class TestReuseEquivalence:
    @pytest.mark.parametrize(
        "chunk_ns,margin_ns",
        [
            (1 * MSEC, 5 * MSEC),
            (MSEC // 4, 0),  # no lookback at all: reuse must still be exact
            (MSEC // 3, 100 * USEC),
            (10 * MSEC, 1 * MSEC),  # single chunk
        ],
    )
    def test_bit_identical_to_batch_any_chunking(
        self, interrupt_chain_trace, batch_reference, chunk_ns, margin_ns
    ):
        streamed = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=chunk_ns, margin_ns=margin_ns),
            victim_pct=99.0,
        ).run()
        assert canonical_bytes(streamed) == canonical_bytes(batch_reference)

    def test_bit_identical_to_rebuild_with_sufficient_margin(
        self, interrupt_chain_trace, batch_reference
    ):
        chunks = rebuilt_chunks(
            StreamingDiagnosis(
                interrupt_chain_trace,
                StreamingConfig(chunk_ns=1 * MSEC, margin_ns=5 * MSEC),
                victim_pct=99.0,
            )
        )
        rebuilt = [d for chunk in chunks for d in chunk.diagnoses]
        assert canonical_bytes(rebuilt) == canonical_bytes(batch_reference)

    def test_reuse_with_workers_identical(
        self, interrupt_chain_trace, batch_reference
    ):
        with WorkerPool(2) as pool:
            streamed = StreamingDiagnosis(
                interrupt_chain_trace,
                StreamingConfig(chunk_ns=2 * MSEC, margin_ns=MSEC),
                victim_pct=99.0,
                executor=pool,
            ).run()
        assert canonical_bytes(streamed) == canonical_bytes(batch_reference)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_backends_identical_through_streaming(
        self, interrupt_chain_trace, batch_reference, backend
    ):
        """The pure-Python oracle engine and the production (numpy) one
        stream to the same bytes as production batch diagnosis."""
        engine_class = {"python": OracleEngine, "numpy": MicroscopeEngine}[backend]
        with streaming_through(engine_class):
            streamed = StreamingDiagnosis(
                interrupt_chain_trace,
                StreamingConfig(chunk_ns=1 * MSEC, margin_ns=MSEC),
                victim_pct=99.0,
            ).run()
        assert canonical_bytes(streamed) == canonical_bytes(batch_reference)


class TestLateDrop:
    def test_drop_after_last_departure_is_streamed(self):
        """A queue that overflows while the trace is cut off with its
        contents undeparted: the drop lies chunks past the final
        departure.  Streaming must run as far as the last victim, not the
        last departure, or streamed != batch."""
        flow = FiveTuple.of("10.0.0.1", "20.0.0.1", 1111, 80)
        served = PacketView(
            pid=0,
            flow=flow,
            source="src",
            emitted_ns=50,
            hops=[PacketHop(nf="nf", arrival_ns=100, read_ns=110, depart_ns=200)],
            exited_ns=200,
        )
        dropped = PacketView(
            pid=1,
            flow=flow,
            source="src",
            emitted_ns=5_400,
            dropped_at="nf",
            dropped_ns=5_500,
        )
        trace = DiagTrace(
            packets={0: served, 1: dropped},
            nfs={
                "nf": NFView(
                    name="nf",
                    peak_rate_pps=1e6,
                    arrivals=[(100, 0)],
                    reads=[(110, 0)],
                    departs=[(200, 0)],
                    drops=[(5_500, 1)],
                )
            },
            upstreams={"nf": {"src"}},
            sources={"src"},
        )
        drop = Victim(pid=1, nf="nf", kind="drop", arrival_ns=5_500, metric=0.0)
        assert VictimSelector(trace).drop_victims() == [drop]
        batch = MicroscopeEngine(trace).diagnose_all([drop])
        streaming = StreamingDiagnosis(
            trace,
            StreamingConfig(chunk_ns=1_000, margin_ns=0),
            victim_threshold_ns=1_000,  # no latency victims: the drop alone
        )
        assert streaming.n_chunks() == 6
        streamed = streaming.run()
        assert [d.victim for d in streamed] == [drop]
        assert canonical_bytes(streamed) == canonical_bytes(batch)


class TestChunkBoundaries:
    def test_straddling_periods_are_complete(self, interrupt_chain_trace):
        """Victims whose queuing period starts before their chunk see the
        full period in reuse mode — the buildup from the interrupt (at
        0.5 ms) must be visible to victims in later chunks."""
        trace = interrupt_chain_trace
        chunk_ns = MSEC // 4
        streaming = StreamingDiagnosis(
            trace,
            StreamingConfig(chunk_ns=chunk_ns, margin_ns=0),
            victim_pct=99.0,
        )
        straddlers = 0
        for chunk in streaming.chunks():
            for d in chunk.diagnoses:
                if d.period is None:
                    continue
                if d.period.start_ns < chunk.start_ns:
                    straddlers += 1
                    # The full-period invariant: the period matches what a
                    # batch engine derives for the same victim.
                    batch_period = (
                        MicroscopeEngine(trace)
                        .analyzer(d.victim.nf)
                        .period_for_arrival(d.victim.pid, d.victim.arrival_ns)
                    )
                    assert d.period == batch_period
        assert straddlers > 0, "workload must exercise straddling periods"

    def test_margin_too_small_detected_in_reuse_mode(self, interrupt_chain_trace):
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=MSEC // 4, margin_ns=0),
            victim_pct=99.0,
        )
        chunks = list(streaming.chunks())
        assert sum(c.margin_exceeded for c in chunks) > 0

    def test_margin_too_small_detected_in_rebuild_mode(self, interrupt_chain_trace):
        """An engine rebuilt at every chunk flags exactly what the carried
        one does: the predicate reads exact periods either way."""
        config = StreamingConfig(chunk_ns=MSEC // 4, margin_ns=0)
        rebuilt = rebuilt_chunks(
            StreamingDiagnosis(interrupt_chain_trace, config, victim_pct=99.0)
        )
        carried = StreamingDiagnosis(
            interrupt_chain_trace, config, victim_pct=99.0
        ).chunks()
        flagged = [c.margin_exceeded for c in rebuilt]
        assert sum(flagged) > 0
        assert flagged == [c.margin_exceeded for c in carried]

    def test_sufficient_margin_not_flagged(self, interrupt_chain_trace):
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=1 * MSEC, margin_ns=5 * MSEC),
            victim_pct=99.0,
        )
        chunks = list(streaming.chunks())
        assert sum(c.margin_exceeded for c in chunks) == 0


class TestCarryEvictCounters:
    def test_counters_balance(self, interrupt_chain_trace):
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=MSEC // 2, margin_ns=MSEC),
            victim_pct=99.0,
        )
        chunks = list(streaming.chunks())
        stats = streaming.engine.cache_stats
        assert stats.carried_entries == sum(c.carried_entries for c in chunks)
        assert stats.evicted_entries == sum(c.evicted_entries for c in chunks)
        assert stats.cross_chunk_hits == sum(c.cross_chunk_hits for c in chunks)
        # Cross-chunk hits only exist where the memo layers hit at all.
        assert stats.cross_chunk_hits <= stats.hits

    def test_cross_chunk_reuse_happens(self, interrupt_chain_trace):
        """Consecutive chunks share queue buildups on this workload, so a
        retaining margin must produce cross-chunk memo hits."""
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(
                chunk_ns=MSEC // 4, margin_ns=5 * MSEC
            ),
            victim_pct=99.0,
        )
        list(streaming.chunks())
        assert streaming.engine.cache_stats.cross_chunk_hits > 0

    def test_zero_margin_evicts(self, interrupt_chain_trace):
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=MSEC // 2, margin_ns=0),
            victim_pct=99.0,
        )
        list(streaming.chunks())
        assert streaming.engine.cache_stats.evicted_entries > 0

    def test_eviction_is_result_invariant(self, interrupt_chain_trace, batch_reference):
        """An aggressive eviction policy (zero margin) recomputes instead
        of reusing, but never changes the output."""
        evicting = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=MSEC // 2, margin_ns=0),
            victim_pct=99.0,
        )
        retaining = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(
                chunk_ns=MSEC // 2, margin_ns=10 * MSEC
            ),
            victim_pct=99.0,
        )
        assert (
            canonical_bytes(evicting.run())
            == canonical_bytes(retaining.run())
            == canonical_bytes(batch_reference)
        )

    def test_rebuild_mode_reports_zero_counters(self, interrupt_chain_trace):
        """An engine rebuilt at a chunk (the restore path) carried nothing
        into it, and its counters say so."""
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=1 * MSEC, margin_ns=MSEC),
            victim_pct=99.0,
        )
        for chunk in rebuilt_chunks(streaming):
            assert chunk.carried_entries == 0
            assert chunk.evicted_entries == 0
            assert chunk.cross_chunk_hits == 0

    def test_advance_chunk_eviction_counts(self, interrupt_chain_trace):
        """Direct engine-level invariant: after evicting everything, the
        memo layers are empty and the counters add up."""
        trace = interrupt_chain_trace
        victims = VictimSelector(trace).hop_latency_victims(pct=99.0)
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims)
        populated = engine.cache_stats
        assert populated.misses > 0
        horizon = max(v.arrival_ns for v in victims) + MSEC
        engine.advance_chunk(evict_before_ns=horizon)
        stats = engine.cache_stats
        assert stats.carried_entries == 0
        assert stats.evicted_entries > 0
        assert not engine._local_cache and not engine._decomps
        for analyzer in engine._analyzers.values():
            assert not analyzer._preset_cache


class TestWireFormat:
    def test_round_trip_is_field_exact(self, interrupt_chain_trace):
        trace = interrupt_chain_trace
        victims = VictimSelector(trace).hop_latency_victims(pct=99.0)
        engine = MicroscopeEngine(trace)
        for victim in victims[:25]:
            diagnosis = engine.diagnose(victim)
            rebuilt = _diagnosis_from_wire(victim, _diagnosis_to_wire(diagnosis))
            assert rebuilt.victim == diagnosis.victim
            assert rebuilt.culprits == diagnosis.culprits
            assert rebuilt.period == diagnosis.period
            assert rebuilt.local == diagnosis.local
            assert rebuilt.attributions == diagnosis.attributions
            assert rebuilt.recursion_depth == diagnosis.recursion_depth

    def test_wire_is_primitive_tuples(self, interrupt_chain_trace):
        """The wire payload must stay pickle-cheap: tuples, str, int, float."""
        trace = interrupt_chain_trace
        victims = VictimSelector(trace).hop_latency_victims(pct=99.0)
        engine = MicroscopeEngine(trace)
        wire = _diagnosis_to_wire(engine.diagnose(victims[0]))

        def assert_primitive(obj):
            if isinstance(obj, tuple):
                for item in obj:
                    assert_primitive(item)
            else:
                assert obj is None or isinstance(obj, (str, int, float)), type(obj)

        assert_primitive(wire)


class TestChunkAddressingAPI:
    """The service-facing chunk API: open()/diagnose_chunk() must compose
    to exactly what chunks() yields, from any starting chunk — the
    invariant checkpoint-restore stands on."""

    CFG = None  # set in setup to share across tests

    def _streaming(self, trace, **overrides):
        kwargs = dict(chunk_ns=MSEC // 2, margin_ns=MSEC)
        kwargs.update(overrides)
        return StreamingDiagnosis(
            trace, StreamingConfig(**kwargs), victim_pct=99.0
        )

    def test_open_at_zero_equals_chunks_iterator(self, interrupt_chain_trace):
        a = self._streaming(interrupt_chain_trace)
        b = self._streaming(interrupt_chain_trace)
        via_iter = list(a.chunks())
        b.open(0)
        via_api = [b.diagnose_chunk(i) for i in range(b.n_chunks())]
        assert len(via_iter) == len(via_api)
        for x, y in zip(via_iter, via_api):
            assert (x.start_ns, x.end_ns) == (y.start_ns, y.end_ns)
            assert canonical_bytes(x.diagnoses) == canonical_bytes(y.diagnoses)

    @pytest.mark.parametrize("start_chunk", [1, 3, 7])
    def test_open_mid_stream_matches_uninterrupted_tail(
        self, interrupt_chain_trace, start_chunk
    ):
        """A fresh engine opened at chunk k (the resume path) produces
        chunk results bit-identical to an uninterrupted run's tail —
        memoization is result-invariant, so the empty memo never shows."""
        full = self._streaming(interrupt_chain_trace)
        reference = list(full.chunks())
        start_chunk = min(start_chunk, len(reference) - 1)
        resumed = self._streaming(interrupt_chain_trace)
        resumed.open(start_chunk)
        for index in range(start_chunk, resumed.n_chunks()):
            chunk = resumed.diagnose_chunk(index)
            assert canonical_bytes(chunk.diagnoses) == canonical_bytes(
                reference[index].diagnoses
            )
        assert resumed.engine.chunk_generation == full.engine.chunk_generation

    def test_rediagnosing_current_chunk_is_idempotent(self, interrupt_chain_trace):
        """The service's retry path: re-running the chunk the engine is
        positioned at must not advance anything and must return the same
        diagnoses."""
        streaming = self._streaming(interrupt_chain_trace)
        streaming.open(0)
        streaming.diagnose_chunk(0)
        first = streaming.diagnose_chunk(1)
        again = streaming.diagnose_chunk(1)
        assert canonical_bytes(first.diagnoses) == canonical_bytes(again.diagnoses)
        assert streaming.engine.chunk_generation == 1

    def test_victim_override_restricts_diagnosis(self, interrupt_chain_trace):
        """The load-shedding hook: an explicit victim subset is diagnosed
        as-is, nothing more."""
        streaming = self._streaming(interrupt_chain_trace)
        streaming.open(0)
        chunks_with_victims = [
            i
            for i in range(streaming.n_chunks())
            if len(streaming.victims_for_chunk(i)) >= 2
        ]
        assert chunks_with_victims, "workload must have a multi-victim chunk"
        target = chunks_with_victims[0]
        subset = streaming.victims_for_chunk(target)[:1]
        for index in range(target):
            streaming.diagnose_chunk(index)
        result = streaming.diagnose_chunk(target, victims=subset)
        assert [d.victim for d in result.diagnoses] == subset

    def test_non_sequential_chunk_rejected(self, interrupt_chain_trace):
        from repro.errors import DiagnosisError

        streaming = self._streaming(interrupt_chain_trace)
        streaming.open(0)
        streaming.diagnose_chunk(0)
        with pytest.raises(DiagnosisError, match="non-sequential"):
            streaming.diagnose_chunk(2)

    def test_diagnose_before_open_rejected(self, interrupt_chain_trace):
        from repro.errors import DiagnosisError

        streaming = self._streaming(interrupt_chain_trace)
        with pytest.raises(DiagnosisError, match="open"):
            streaming.diagnose_chunk(0)

    def test_generation_restore_rejects_rewind(self, interrupt_chain_trace):
        from repro.errors import DiagnosisError

        engine = MicroscopeEngine(interrupt_chain_trace)
        engine.restore_generation(5)
        assert engine.chunk_generation == 5
        with pytest.raises(DiagnosisError, match="rewind|backward|behind"):
            engine.restore_generation(3)

    def test_chunk_bounds_partition_the_trace(self, interrupt_chain_trace):
        streaming = self._streaming(interrupt_chain_trace)
        bounds = [streaming.chunk_bounds(i) for i in range(streaming.n_chunks())]
        for (s0, e0), (s1, _e1) in zip(bounds, bounds[1:]):
            assert e0 == s1
        all_victims = streaming._all_victims
        per_chunk = [
            v
            for i in range(streaming.n_chunks())
            for v in streaming.victims_for_chunk(i)
        ]
        assert per_chunk == all_victims


class TestQueuingBackends:
    def test_unknown_backend_rejected(self, interrupt_chain_trace):
        """No engine, however reached, takes a ``backend`` any more."""
        with pytest.raises(TypeError):
            MicroscopeEngine(interrupt_chain_trace, backend="python")
        streaming = StreamingDiagnosis(
            interrupt_chain_trace, StreamingConfig(), backend="python"
        )
        with pytest.raises(TypeError):
            streaming.open(0)
