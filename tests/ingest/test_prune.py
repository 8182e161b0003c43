"""``IncrementalTrace.prune_before`` against the walk-everything oracle.

The production prune only looks at packets emitted before the cut and at
the below-cut prefix of each NF's time-sorted event lists.  The oracle
here is the body it replaced — every packet, every entry of every list —
and the property test holds the two to the same return value and the
same trace state over arbitrary apply/prune interleavings, including the
shapes clock-fault transients produce (emits out of time order, hops out
of path order) and malformed ones (double drops, hops after exit).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.ingest import (
    IncrementalTrace,
    IngestConfig,
    TelemetryRecord,
    drop_record,
    emit_record,
    exit_record,
    hop_record,
)
from tests.conftest import make_chain_topology
from tests.ingest.test_incremental import assert_traces_identical

CHUNK_NS = 1000
SOURCES = ("src-main", "src-probe")
NFS = ("nat1", "vpn1")
FLOW = (1, 2, 3, 4, 6)

times = st.integers(min_value=0, max_value=6 * CHUNK_NS)
pids = st.integers(min_value=0, max_value=11)


def prune_before_oracle(trace: IncrementalTrace, cut_ns: int) -> Dict[str, int]:
    """``prune_before`` as it was before it learnt to skip: the oracle."""
    cut = trace.safe_cut(cut_ns)
    result = {"cut_ns": cut, "packets": 0, "gaps": 0}
    if cut <= 0:
        return result
    evicted: Set[int] = set()
    for pid, packet in trace.packets.items():
        if packet.exited_ns < 0 and packet.dropped_at is None:
            continue
        last = max(
            packet.emitted_ns,
            packet.exited_ns,
            packet.dropped_ns,
            max((hop.depart_ns for hop in packet.hops), default=0),
        )
        if last < cut:
            evicted.add(pid)
    for pid in evicted:
        del trace.packets[pid]
    if evicted:
        for view in trace.nfs.values():
            view.arrivals[:] = [e for e in view.arrivals if e[1] not in evicted]
            view.reads[:] = [e for e in view.reads if e[1] not in evicted]
            view.departs[:] = [e for e in view.departs if e[1] not in evicted]
            view.drops[:] = [e for e in view.drops if e[1] not in evicted]
    kept_gaps = [gap for gap in trace.health.gaps if gap.end_ns >= cut]
    result["gaps"] = len(trace.health.gaps) - len(kept_gaps)
    result["packets"] = len(evicted)
    trace.packets_evicted += len(evicted)
    if result["gaps"]:
        trace.health.gaps[:] = kept_gaps
        trace.gaps_evicted += result["gaps"]
    for index in [k for k in trace._chunk_health if k < cut // trace.config.chunk_ns]:
        del trace._chunk_health[index]
    return result


def assert_same_state(new: IncrementalTrace, old: IncrementalTrace) -> None:
    """Everything a prune may touch, dict and list order included."""
    assert_traces_identical(new, old)
    assert new.health.gaps == old.health.gaps
    assert new._chunk_health == old._chunk_health
    assert new.ingest_stats() == old.ingest_stats()


@st.composite
def records(draw) -> TelemetryRecord:
    """One record of any kind; nothing ties it to what came before, so
    sequences of these reach every state ``_apply`` can be put in."""
    kind = draw(st.sampled_from(("emit", "emit", "hop", "hop", "hop", "drop", "exit")))
    pid = draw(pids)
    if kind == "emit":
        return emit_record(draw(st.sampled_from(SOURCES)), 0, draw(times), pid, FLOW)
    nf = draw(st.sampled_from(NFS))
    if kind == "hop":
        arrival, read, depart = sorted(draw(st.tuples(times, times, times)))
        return hop_record(nf, 0, pid, arrival, read, depart)
    if kind == "drop":
        return drop_record(nf, 0, draw(times), pid)
    return exit_record(nf, 0, draw(times), pid)


def fresh_trace() -> IncrementalTrace:
    return IncrementalTrace.for_topology(
        make_chain_topology(), IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=CHUNK_NS)
    )


def apply_all(trace: IncrementalTrace, batch: List[TelemetryRecord]) -> None:
    for record in batch:
        trace._apply(record)


class TestPruneMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(st.lists(records(), max_size=40), times), min_size=1, max_size=4
        ),
        health_chunks=st.sets(st.integers(min_value=0, max_value=8)),
    )
    def test_same_result_and_state(self, rounds, health_chunks):
        new, old = fresh_trace(), fresh_trace()
        for trace in (new, old):
            trace._chunk_health = {index: None for index in health_chunks}
        for batch, cut in rounds:
            apply_all(new, batch)
            apply_all(old, batch)
            assert new.prune_before(cut) == prune_before_oracle(old, cut)
            assert_same_state(new, old)

    def test_stale_first_drop_beyond_the_cut_goes_with_its_packet(self):
        """A packet dropped twice keeps both drop entries, and only the
        second shows in ``dropped_ns``; the first may sit past the cut."""
        new = fresh_trace()
        apply_all(
            new,
            [
                emit_record("src-main", 0, 10, 1, FLOW),
                drop_record("vpn1", 0, 5000, 1),
                drop_record("nat1", 0, 20, 1),
            ],
        )
        old = copy.deepcopy(new)
        assert new.prune_before(1000) == prune_before_oracle(old, 1000)
        assert new.prune_before(1000)["packets"] == 0
        assert_same_state(new, old)
        assert new.nfs["vpn1"].drops == []

    def test_late_emit_ahead_of_an_early_one(self):
        """Dict order is apply order, not time order: the walk must not
        stop at the first packet emitted past the cut."""
        new = fresh_trace()
        apply_all(
            new,
            [
                emit_record("src-main", 0, 3000, 1, FLOW),
                emit_record("src-probe", 0, 10, 2, FLOW),
                exit_record("vpn1", 0, 20, 2),
            ],
        )
        assert new.prune_before(1000) == {"cut_ns": 1000, "packets": 1, "gaps": 0}
        assert list(new.packets) == [1]

    def test_in_flight_and_straddling_packets_stay(self):
        new = fresh_trace()
        apply_all(
            new,
            [
                emit_record("src-main", 0, 10, 1, FLOW),  # in flight
                emit_record("src-main", 0, 20, 2, FLOW),  # departs past the cut
                hop_record("nat1", 0, 2, 30, 40, 1500),
                exit_record("nat1", 0, 1500, 2),
                emit_record("src-main", 0, 30, 3, FLOW),  # wholly behind it
                hop_record("nat1", 0, 3, 40, 40, 50),
                exit_record("nat1", 0, 50, 3),
            ],
        )
        old = copy.deepcopy(new)
        assert new.prune_before(1000) == prune_before_oracle(old, 1000)
        assert list(new.packets) == [1, 2]
        assert new.nfs["nat1"].arrivals == [(30, 2)]
        assert_same_state(new, old)
