"""Unclocked ingest (``IngestConfig.clock=None``) does not depend on batching.

``IncrementalTrace`` has one merge: stream heads in a heap keyed
``(time, stream, seq)`` on the repaired clock, the identity when no clock
model runs.  Each chunk is diagnosed against the health state frozen at
its seal cut.  Both make the builder a pure function of the per-stream
record sequences it receives, whatever the pull size or buffer capacity:

* the journal of a lossy live run is the same under two feed
  configurations, and the same as the clocked run's (clean clocks repair
  nothing);
* under record drops, duplicates, sheds and a dead stream, a run that
  receives the same per-stream records at another pull size and buffer
  capacity seals the same chunks with the same health snapshots and
  ``ingest_stats``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ingest import (
    DeadStreamTransport,
    FeedConfig,
    FlakyTransport,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
    TelemetryRecord,
)
from repro.nfv.tap import LiveRecordTap
from repro.service import DiagnosisService, LiveTraceSource, ServiceConfig
from repro.util.timebase import MSEC, USEC
from tests.conftest import make_chain_topology, run_interrupt_chain
from tests.ingest.test_clock_ingest import CFG
from tests.ingest.test_clocked_merge import IDLE_PUMPS, chain_records
from tests.ingest.test_live_columns import assert_same_columns

STREAMS = ("nat1", "src-main", "src-probe", "vpn1")
CHUNK_NS = 250 * USEC
MARGIN_NS = 1 * MSEC
#: A drawn dead stream goes silent (without EOS) from here on: late
#: enough in the 3 ms run that chunks seal before the barrier stops.
DEAD_AFTER_NS = 2 * MSEC


# -- the journal ------------------------------------------------------------------


@pytest.fixture(scope="module")
def lossy_records() -> List[TelemetryRecord]:
    """12 ms of the interrupt chain with every 40th emit record removed:
    sequence gaps, and chain breaks for the hops of the lost packets."""
    tap = LiveRecordTap()
    run_interrupt_chain(duration_ns=12 * MSEC, extra_hooks=[tap])
    emits = [record for record in tap.records if record.kind == "emit"]
    lost = {id(record) for record in emits[::40]}
    return [record for record in tap.records if id(record) not in lost]


def journal(records, tmp_path, feed_config: FeedConfig, clock=None) -> bytes:
    feed = TelemetryFeed(SimTransport(records), feed_config)
    builder = IncrementalTrace.for_topology(
        make_chain_topology(),
        IngestConfig(chunk_ns=1 * MSEC, seal_margin_ns=5 * MSEC, clock=clock),
    )
    service = DiagnosisService(
        LiveTraceSource(feed, builder),
        ServiceConfig(
            state_dir=tmp_path,
            chunk_ns=1 * MSEC,
            margin_ns=5 * MSEC,
            victim_threshold_ns=300 * USEC,
            durable=False,
        ),
    )
    service.run()
    assert builder.telemetry is not None  # the loss is visible
    return service.journal.read_bytes()


class TestJournal:
    def test_unclocked_journal_ignores_pull_batching(self, lossy_records, tmp_path):
        """Chunks read their seal-cut health, not live health that already
        holds losses past the chunk's barrier, and a chain-break gap is
        stamped at the rejected record's own time, not at how far its
        stream had been drained."""
        wide = journal(lossy_records, tmp_path / "wide", FeedConfig())
        small = journal(
            lossy_records,
            tmp_path / "small",
            FeedConfig(buffer_capacity=64, max_pull=17),
        )
        clocked = journal(lossy_records, tmp_path / "clocked", FeedConfig(), clock=CFG)
        assert wide == small
        assert wide == clocked


# -- the builder ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """Damage on the first run; pull size and buffer capacity of both."""

    first: Tuple[int, int]
    second: Tuple[int, int]
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    flaky_seed: int = 0
    #: The first run's transport cannot backpressure: the feed sheds.
    shed: bool = False
    #: Silence this stream (no EOS) past ``DEAD_AFTER_NS``.  There is no
    #: straggler timeout, so the barrier waits for it and both runs
    #: stall: they must stall in the same state.
    dead_stream: Optional[str] = None


def sealed_view(builder: IncrementalTrace, index: int) -> Tuple[bytes, ...]:
    """Everything chunk ``index`` can be diagnosed from: the trace's
    records timed below its seal barrier."""
    cols = builder.columns()
    barrier = builder._seal_barrier_ns(index)
    emitted = cols.pkt_emitted < barrier
    hop_pid = np.repeat(cols.pkt_pid, np.diff(cols.hop_start))
    hop = cols.hop_depart < barrier
    view = [
        cols.pkt_pid[emitted],
        cols.pkt_emitted[emitted],
        cols.pkt_flow[emitted],
        np.where(cols.pkt_exited < barrier, cols.pkt_exited, -1)[emitted],
        np.where(cols.pkt_dropped_ns < barrier, cols.pkt_dropped_ns, -1)[emitted],
        hop_pid[hop],
        cols.hop_nf[hop],
        cols.hop_arrival[hop],
        cols.hop_read[hop],
        cols.hop_depart[hop],
    ]
    for stream in cols.streams:
        early = stream.drop_t < barrier
        view += [stream.drop_t[early], stream.drop_pid[early]]
    return tuple(array.tobytes() for array in view)


def pump(transport, pulls: Tuple[int, int]):
    """Pump to completion (or to a stall); return the builder, every
    chunk's view when it first sealed, and the per-stream records that
    reached the builder (pulled and not shed)."""
    max_pull, capacity = pulls
    feed = TelemetryFeed(
        transport, FeedConfig(max_pull=max_pull, buffer_capacity=capacity)
    )
    popped: Dict[str, List[TelemetryRecord]] = defaultdict(list)
    for name, buffer in feed.buffers.items():

        def recording_pop(pop=buffer.pop, into=popped[name]):
            record = pop()
            into.append(record)
            return record

        buffer.pop = recording_pop
    builder = IncrementalTrace.for_topology(
        make_chain_topology(),
        IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=MARGIN_NS),
    )
    sealed: List[Tuple[bytes, ...]] = []
    idle = 0
    while not builder.complete and idle < IDLE_PUMPS:
        progress = feed.pump()
        applied = builder.ingest(feed)
        for index in range(len(sealed), builder.sealed_chunks()):
            sealed.append(sealed_view(builder, index))
        idle = 0 if progress or applied else idle + 1
    received = {
        name: popped[name] + buffer.snapshot()[0]
        for name, buffer in feed.buffers.items()
    }
    return builder, sealed, received


def run_twice(case: Case):
    transport = SimTransport(chain_records(), can_backpressure=not case.shed)
    if case.drop_prob or case.dup_prob:
        transport = FlakyTransport(
            transport,
            drop_prob=case.drop_prob,
            dup_prob=case.dup_prob,
            seed=case.flaky_seed,
        )
    if case.dead_stream is not None:
        transport = DeadStreamTransport(transport, case.dead_stream, DEAD_AFTER_NS)
    first = pump(transport, case.first)
    received = first[2]
    replay = SimTransport(
        [record for name in sorted(received) for record in received[name]],
        streams=sorted(received),
    )
    if case.dead_stream is not None:
        replay = DeadStreamTransport(replay, case.dead_stream, DEAD_AFTER_NS)
    second = pump(replay, case.second)
    return first, second


pulls = st.tuples(
    st.integers(min_value=3, max_value=600), st.integers(min_value=8, max_value=4096)
)


@st.composite
def cases(draw) -> Case:
    return Case(
        first=draw(pulls),
        second=draw(pulls),
        drop_prob=draw(st.sampled_from((0.0, 0.0, 0.02, 0.1))),
        dup_prob=draw(st.sampled_from((0.0, 0.0, 0.05))),
        flaky_seed=draw(st.integers(min_value=0, max_value=2**16)),
        shed=draw(st.booleans()),
        dead_stream=draw(st.sampled_from((None, None) + STREAMS)),
    )


class TestBuilder:
    @settings(max_examples=50, deadline=None)
    @given(case=cases())
    @example(case=Case(first=(512, 4096), second=(7, 64), drop_prob=0.1))
    @example(case=Case(first=(512, 4096), second=(17, 64), dup_prob=0.05, flaky_seed=3))
    @example(case=Case(first=(600, 16), second=(31, 4096), shed=True, drop_prob=0.02))
    @example(case=Case(first=(64, 4096), second=(5, 32), dead_stream="vpn1"))
    def test_sealed_chunks_health_and_stats(self, case):
        (first, first_sealed, _), (second, second_sealed, _) = run_twice(case)
        assert first.complete == second.complete == (case.dead_stream is None)
        assert first_sealed == second_sealed
        assert first._chunk_health == second._chunk_health
        assert first.health == second.health
        assert first.ingest_stats() == second.ingest_stats()
        assert_same_columns(first.columns(), second.columns())

    def test_examples_reach_the_degraded_paths(self):
        """Loss, duplicates and sheds all happen, and the dead stream
        holds the barrier."""
        (lossy, _, _), _ = run_twice(
            Case(first=(512, 4096), second=(7, 64), drop_prob=0.1)
        )
        assert {gap.kind for gap in lossy.health.gaps} >= {"loss", "chain-break"}
        assert any(snapshot is not None for snapshot in lossy._chunk_health.values())
        (dups, _, _), _ = run_twice(
            Case(first=(512, 4096), second=(17, 64), dup_prob=0.05, flaky_seed=3)
        )
        assert dups.duplicates > 0
        transport = SimTransport(chain_records(), can_backpressure=False)
        shedding = TelemetryFeed(
            transport, FeedConfig(max_pull=600, buffer_capacity=16)
        )
        builder = IncrementalTrace.for_topology(
            make_chain_topology(),
            IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=MARGIN_NS),
        )
        while not builder.complete:
            shedding.pump()
            builder.ingest(shedding)
        assert shedding.stats.sheds > 0
        (dead, sealed, _), _ = run_twice(
            Case(first=(64, 4096), second=(5, 32), dead_stream="vpn1")
        )
        assert not dead.complete
        assert 0 < len(sealed) < dead.n_chunks()
