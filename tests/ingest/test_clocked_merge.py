"""The heap-keyed clocked merge against the per-record-scan oracle.

``IncrementalTrace._drain`` keeps eligible stream heads in a heap and
re-keys only the stream it just popped; ``tests/oracles/ingest.py``
keeps the drain it replaced, which rescans and re-keys every head for
every record and rebuilds repaired records with ``dataclasses.replace``.
The property below drives both through the same transport — clock chaos
from every schedule family, record drops and duplicates, sheds on a
transport that cannot backpressure, a dead stream behind a straggler
timeout — at arbitrary pull sizes and buffer capacities, and holds them
to the same builder state — columns, array for array — after every pump.

The counting guards pin *why* the production merge is cheaper without a
timer: one repaired key per popped record (plus a few per stream per
``ingest()``), and no record rebuilt during clocked ingest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

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
from repro.ingest.feed import IngestBuffer
from repro.nfv.tap import LiveRecordTap
from repro.time import ClockChaos, ClockChaosTransport, ClockSchedule
from repro.time.model import StreamClockModel
from repro.util.timebase import MSEC, USEC
from tests.conftest import make_chain_topology, run_interrupt_chain
from tests.ingest.test_clock_ingest import CFG
from tests.ingest.test_live_columns import assert_same_columns
from tests.oracles.ingest import OracleIncrementalTrace

CHUNK_NS = 250 * USEC
MARGIN_NS = 1 * MSEC
STREAMS = ("nat1", "src-main", "src-probe", "vpn1")
#: Pumps with nothing pulled and nothing applied before a run counts as
#: stalled (stall detection needs three; quarantine follows at once).
IDLE_PUMPS = 20
#: A drawn dead stream goes silent (without EOS) from here on.
DEAD_AFTER_NS = 1 * MSEC


@lru_cache(maxsize=1)
def chain_records() -> Tuple[TelemetryRecord, ...]:
    """≈ 5.5k records: 3 ms of the interrupt chain at 480 kpps."""
    tap = LiveRecordTap()
    run_interrupt_chain(
        duration_ns=3 * MSEC,
        main_rate=400_000.0,
        probe_rate=80_000.0,
        extra_hooks=[tap],
    )
    return tuple(tap.records)


@dataclass(frozen=True)
class Case:
    """One transport + feed + barrier configuration."""

    schedules: Tuple[Tuple[str, ClockSchedule], ...]
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    flaky_seed: int = 0
    can_backpressure: bool = True
    max_pull: int = 512
    buffer_capacity: int = 4096
    straggler_timeout_ns: Optional[int] = None
    #: Silence this stream (no EOS) past ``DEAD_AFTER_NS``; only drawn
    #: with a timeout.
    dead_stream: Optional[str] = None


def build(cls, case: Case):
    """Pump to completion; return the builder and the per-pump trail."""
    transport = SimTransport(
        chain_records(), can_backpressure=case.can_backpressure
    )
    transport = ClockChaosTransport(transport, ClockChaos(dict(case.schedules)))
    if case.drop_prob or case.dup_prob:
        transport = FlakyTransport(
            transport,
            drop_prob=case.drop_prob,
            dup_prob=case.dup_prob,
            seed=case.flaky_seed,
        )
    if case.dead_stream is not None:
        transport = DeadStreamTransport(transport, case.dead_stream, DEAD_AFTER_NS)
    feed = TelemetryFeed(
        transport,
        FeedConfig(max_pull=case.max_pull, buffer_capacity=case.buffer_capacity),
    )
    builder = cls.for_topology(
        make_chain_topology(),
        IngestConfig(
            chunk_ns=CHUNK_NS,
            seal_margin_ns=MARGIN_NS,
            straggler_timeout_ns=case.straggler_timeout_ns,
            clock=CFG,
        ),
    )
    trail: List[Tuple[int, int]] = []
    idle = 0
    # A dead stream the timeout never catches up with holds the barrier
    # forever; both merges must then stall at the same state.
    while not builder.complete and idle < IDLE_PUMPS:
        progress = feed.pump()
        applied = builder.ingest(feed)
        trail.append((applied, builder.sealed_chunks()))
        idle = 0 if progress or applied else idle + 1
    return builder, trail


def assert_same_builder(new: IncrementalTrace, old: IncrementalTrace) -> None:
    assert_same_columns(new.columns(), old.columns())
    assert (new.telemetry is None) == (old.telemetry is None)
    assert new.health == old.health
    assert new._chunk_health == old._chunk_health
    assert new._next_health_chunk == old._next_health_chunk
    assert json.dumps(new.clock.to_payload(), sort_keys=True) == json.dumps(
        old.clock.to_payload(), sort_keys=True
    )
    assert new.ingest_stats() == old.ingest_stats()
    assert new._next_seq == old._next_seq
    assert new._last_time == old._last_time
    assert new._excluded == old._excluded
    assert new._max_depart_ns == old._max_depart_ns
    assert new.n_chunks() == old.n_chunks()


starts = st.integers(min_value=0, max_value=2500 * USEC)
magnitudes = st.integers(min_value=20 * USEC, max_value=1500 * USEC)
ppms = st.floats(min_value=50.0, max_value=5000.0)
signs = st.sampled_from((-1, 1))


@st.composite
def schedules(draw) -> ClockSchedule:
    """One warp from each family: step ±, drift ±, ramp ±, freeze."""
    kind = draw(st.sampled_from(("step", "drift", "ramp", "freeze")))
    if kind == "step":
        return ClockSchedule(
            kind="step", start_ns=draw(starts), step_ns=draw(signs) * draw(magnitudes)
        )
    if kind == "drift":
        return ClockSchedule(kind="drift", ppm=draw(signs) * draw(ppms))
    if kind == "ramp":
        return ClockSchedule(
            kind="ramp",
            start_ns=draw(starts),
            ppm=draw(signs) * draw(ppms),
            ramp_ns=draw(magnitudes),
        )
    return ClockSchedule(
        kind="freeze",
        start_ns=draw(starts),
        freeze_ns=draw(st.sampled_from((0, 200 * USEC, 600 * USEC))),
    )


@st.composite
def cases(draw) -> Case:
    chaos = draw(st.dictionaries(st.sampled_from(STREAMS), schedules(), max_size=2))
    timeout = draw(
        st.one_of(st.none(), st.integers(min_value=50 * USEC, max_value=2 * MSEC))
    )
    return Case(
        schedules=tuple(sorted(chaos.items())),
        drop_prob=draw(st.sampled_from((0.0, 0.0, 0.02, 0.1))),
        dup_prob=draw(st.sampled_from((0.0, 0.0, 0.05))),
        flaky_seed=draw(st.integers(min_value=0, max_value=2**16)),
        can_backpressure=draw(st.booleans()),
        max_pull=draw(st.integers(min_value=3, max_value=600)),
        buffer_capacity=draw(st.integers(min_value=8, max_value=4096)),
        straggler_timeout_ns=timeout,
        dead_stream=(
            None if timeout is None else draw(st.sampled_from((None,) + STREAMS))
        ),
    )


def family(kind: str, **kwargs) -> Case:
    schedule = {
        "step-back": ClockSchedule(kind="step", start_ns=2 * MSEC, step_ns=-500 * USEC),
        "step-forward": ClockSchedule(kind="step", start_ns=2 * MSEC, step_ns=500 * USEC),
        "drift": ClockSchedule(kind="drift", ppm=3000.0),
        "ramp": ClockSchedule(kind="ramp", start_ns=1 * MSEC, ppm=2500.0, ramp_ns=1 * MSEC),
        "freeze": ClockSchedule(kind="freeze", start_ns=1 * MSEC),
    }[kind]
    return Case(schedules=(("nat1", schedule),), **kwargs)


class TestHeapMergeMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(case=cases())
    @example(case=family("step-back", max_pull=7, buffer_capacity=64))
    @example(case=family("step-forward", drop_prob=0.1, dup_prob=0.05))
    @example(case=family("drift", max_pull=5, can_backpressure=False, buffer_capacity=16))
    @example(case=family("ramp", dup_prob=0.05, max_pull=31))
    @example(case=family("freeze", straggler_timeout_ns=200 * USEC, max_pull=9))
    @example(
        case=Case(
            schedules=(),
            straggler_timeout_ns=300 * USEC,
            dead_stream="vpn1",
            max_pull=11,
        )
    )
    def test_same_state_after_every_pump(self, case):
        new, new_trail = build(IncrementalTrace, case)
        old, old_trail = build(OracleIncrementalTrace, case)
        assert new_trail == old_trail
        assert_same_builder(new, old)

    def test_families_reach_the_fault_paths(self):
        """The explicit examples above are not vacuous: each family
        raises its typed fault, repairs timestamps or quarantines."""
        seen = {}
        for kind in ("step-back", "step-forward", "drift", "ramp", "freeze"):
            builder, _ = build(IncrementalTrace, family(kind))
            seen[kind] = {fault.kind for fault in builder.clock.faults}
            if kind in ("drift", "ramp"):
                assert builder.clock.repairs > 0, kind
        assert seen["step-back"] == {"step-back"}
        assert seen["step-forward"] == {"step-forward"}
        assert seen["drift"] == {"drift"}
        assert seen["freeze"] == {"freeze"}
        builder, _ = build(
            IncrementalTrace,
            Case(schedules=(), straggler_timeout_ns=300 * USEC, dead_stream="vpn1"),
        )
        assert builder.health.quarantined == {"vpn1"}


class TestOracleIsNotTheProductionMerge:
    def test_oracle_overrides_drain_and_admit(self):
        """The comparison above is not the production code against itself."""
        assert OracleIncrementalTrace._drain is not IncrementalTrace._drain
        assert OracleIncrementalTrace._admit is not IncrementalTrace._admit


class TestOneKeyPerRecord:
    """Counting guards, no timers."""

    def test_offset_queries_scale_with_records_popped(self, monkeypatch):
        calls = {"offset": 0, "pops": 0}
        offset_at = StreamClockModel.offset_at
        pop = IngestBuffer.pop

        def counting_offset(model, raw_ns):
            calls["offset"] += 1
            return offset_at(model, raw_ns)

        def counting_pop(buffer):
            calls["pops"] += 1
            return pop(buffer)

        monkeypatch.setattr(StreamClockModel, "offset_at", counting_offset)
        monkeypatch.setattr(IngestBuffer, "pop", counting_pop)
        case = family("drift", max_pull=64)
        feed = TelemetryFeed(
            ClockChaosTransport(
                SimTransport(chain_records()), ClockChaos(dict(case.schedules))
            ),
            FeedConfig(max_pull=case.max_pull),
        )
        builder = IncrementalTrace.for_topology(
            make_chain_topology(),
            IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=MARGIN_NS, clock=CFG),
        )
        streams = len(feed.buffers)
        popped = queried = 0
        while not builder.complete:
            feed.pump()
            calls["offset"] = calls["pops"] = 0
            builder.ingest(feed)
            # Horizon + tie limit read two keys per stream, the heap build
            # one; every popped record re-keys its own stream once.
            assert calls["offset"] <= calls["pops"] + 5 * streams, calls
            popped += calls["pops"]
            queried += calls["offset"]
        assert popped == len(chain_records())
        assert builder.clock.repairs > 0
        assert queried < 1.5 * popped

    def test_no_record_is_rebuilt_during_clocked_ingest(self, monkeypatch):
        """Neither ``dataclasses.replace`` nor any other route constructs a
        ``TelemetryRecord`` inside ``ingest()``: repaired times go to the
        trace as fields."""
        built = []
        post_init = TelemetryRecord.__post_init__
        replace = dataclasses.replace

        def counting_post_init(record):
            built.append(record)
            post_init(record)

        def counting_replace(obj, **changes):
            built.append(obj)
            return replace(obj, **changes)

        feed = TelemetryFeed(
            ClockChaosTransport(
                SimTransport(chain_records()),
                ClockChaos({"nat1": ClockSchedule(kind="drift", ppm=3000.0)}),
            ),
            FeedConfig(max_pull=64),
        )
        builder = IncrementalTrace.for_topology(
            make_chain_topology(),
            IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=MARGIN_NS, clock=CFG),
        )
        while not builder.complete:
            feed.pump()  # the chaos transport warps records here, legitimately
            with monkeypatch.context() as patch:
                patch.setattr(dataclasses, "replace", counting_replace)
                patch.setattr(TelemetryRecord, "__post_init__", counting_post_init)
                builder.ingest(feed)
        assert builder.clock.repairs > 0
        assert built == []
