import dataclasses

import pytest

from repro.core.diagnosis import MicroscopeEngine
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import VictimSelector
from repro.errors import DiagnosisError
from repro.util.timebase import MSEC


def carried_chunks(streaming):
    """One engine carried across every chunk (what ``chunks()`` does)."""
    return list(streaming.chunks())


def rebuilt_chunks(streaming):
    """A fresh engine opened at every chunk — the checkpoint-restore path
    taken at each boundary, so nothing is ever carried."""
    results = []
    for index in range(streaming.n_chunks()):
        streaming.open(index)
        results.append(streaming.diagnose_chunk(index))
    return results


class TestConfig:
    def test_validation(self):
        with pytest.raises(DiagnosisError):
            StreamingConfig(chunk_ns=0)
        with pytest.raises(DiagnosisError):
            StreamingConfig(margin_ns=-1)

    def test_reuse_is_default(self, interrupt_chain_trace):
        """Carrying one engine is the only mode: no field selects another,
        and ``chunks()`` diagnoses every chunk against the same engine."""
        fields = [f.name for f in dataclasses.fields(StreamingConfig)]
        assert fields == ["chunk_ns", "margin_ns"]
        streaming = StreamingDiagnosis(
            interrupt_chain_trace, StreamingConfig(chunk_ns=1 * MSEC, margin_ns=0)
        )
        engines = [streaming.engine for _chunk in streaming.chunks()]
        assert len(engines) > 1 and all(e is engines[0] for e in engines)


@pytest.mark.parametrize(
    "chunks_of", [carried_chunks, rebuilt_chunks], ids=["reuse", "rebuild"]
)
class TestStreamingEquivalence:
    def test_matches_batch_with_sufficient_margin(
        self, interrupt_chain_trace, chunks_of
    ):
        trace = interrupt_chain_trace
        streaming = StreamingDiagnosis(
            trace,
            StreamingConfig(chunk_ns=1 * MSEC, margin_ns=5 * MSEC),
            victim_pct=99.0,
        )
        streamed = [d for chunk in chunks_of(streaming) for d in chunk.diagnoses]

        victims = sorted(
            VictimSelector(trace).hop_latency_victims(pct=99.0)
            + VictimSelector(trace).drop_victims(),
            key=lambda v: v.arrival_ns,
        )
        engine = MicroscopeEngine(trace)
        batch = engine.diagnose_all(victims)

        assert len(streamed) == len(batch)
        for s, b in zip(streamed, batch):
            assert s.victim == b.victim
            assert s.culprits == b.culprits

    def test_chunks_cover_run(self, interrupt_chain_trace, chunks_of):
        streaming = StreamingDiagnosis(
            interrupt_chain_trace,
            StreamingConfig(chunk_ns=2 * MSEC, margin_ns=2 * MSEC),
        )
        chunks = chunks_of(streaming)
        assert chunks
        victims_total = sum(len(c.victims) for c in chunks)
        assert victims_total == len(streaming._all_victims)


class TestRebuildMarginSemantics:
    def test_standing_queue_survives_tiny_margin(self, interrupt_chain_trace):
        """An engine rebuilt at a chunk that opens mid-buildup still sees
        the whole queue it inherited, even with zero lookback: it indexes
        the full trace, never a window of it, so every diagnosis equals
        the generous-margin run's.  The margin only shows in what gets
        flagged."""
        trace = interrupt_chain_trace
        # Chunks shorter than the post-interrupt drain, so victims'
        # queuing periods start before their chunk.
        full = StreamingDiagnosis(
            trace, StreamingConfig(chunk_ns=MSEC // 4, margin_ns=5 * MSEC)
        ).run()
        clipped_chunks = rebuilt_chunks(
            StreamingDiagnosis(
                trace, StreamingConfig(chunk_ns=MSEC // 4, margin_ns=0)
            )
        )
        clipped = [d for c in clipped_chunks for d in c.diagnoses]
        assert [d.culprits for d in clipped] == [d.culprits for d in full]
        assert any(
            d.period is not None and d.period.start_ns < c.start_ns
            for c in clipped_chunks
            for d in c.diagnoses
        ), "workload must exercise periods that start before their chunk"
        # Periods reaching behind the window boundary are still flagged.
        assert sum(c.margin_exceeded for c in clipped_chunks) > 0
