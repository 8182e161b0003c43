"""Incremental ``TraceColumns`` snapshots of a growing, pruned trace.

``DiagTrace.columns()`` on an ``IncrementalTrace`` carries the untouched
row prefix of the previous snapshot over, masks evicted rows and flattens
only what changed.  ``TraceColumns.from_trace`` — the offline constructor
— is the oracle: after every ``columns()`` call, whatever mix of applies
and prunes came before, each array must match it in dtype and content.
Any mutation the tracker was not told about must fall back to it.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.columnar import TraceColumns
from repro.ingest import (
    FeedConfig,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
    capture_source_state,
    emit_record,
    exit_record,
    hop_record,
)
from repro.nfv.tap import LiveRecordTap
from repro.service import LiveTraceSource
from repro.util.timebase import MSEC
from tests.conftest import make_chain_topology, run_recurring_stall_chain
from tests.ingest.test_prune import (
    FLOW,
    assert_same_state,
    fresh_trace,
    prune_before_oracle,
    records,
    times,
)

pytestmark = pytest.mark.skipif(
    fresh_trace().columns() is None, reason="columnar trace backend is off"
)


def assert_columns_match_oracle(trace: IncrementalTrace, cols: TraceColumns) -> None:
    for view in trace.nfs.values():
        # The caches the queuing analyzer reads, against the lists they
        # stand for (``from_trace`` would trust an equal-length cache).
        for cached, stream, side in (
            (view._arrival_times, view.arrivals, 0),
            (view._arrival_pids, view.arrivals, 1),
            (view._read_times, view.reads, 0),
            (view._read_pids, view.reads, 1),
        ):
            expected = np.fromiter((e[side] for e in stream), np.int64, len(stream))
            assert cached.dtype == expected.dtype
            assert np.array_equal(cached, expected)
    twin = copy.deepcopy(trace)
    for view in twin.nfs.values():
        view._arrival_times = view._arrival_pids = None
        view._read_times = view._read_pids = None
    oracle = TraceColumns.from_trace(twin)
    assert cols.nf_names == oracle.nf_names
    assert cols.source_names == oracle.source_names
    assert cols.peak_rates == oracle.peak_rates
    expected_arrays = oracle._arrays()
    arrays = cols._arrays()
    assert list(arrays) == list(expected_arrays)
    for key, expected in expected_arrays.items():
        assert arrays[key].dtype == expected.dtype, key
        assert arrays[key].shape == expected.shape, key
        assert np.array_equal(arrays[key], expected), key
    assert np.array_equal(cols._pid_sorted, oracle._pid_sorted)
    assert np.array_equal(cols._pid_order, oracle._pid_order)
    assert (cols.pid_bits, cols.enc_ok) == (oracle.pid_bits, oracle.enc_ok)


class LiveColumnsMachine(RuleBasedStateMachine):
    """Applies, prunes and snapshots in any order; see the module docstring.

    Records are independent draws, so the machine reaches hops applied
    downstream-first, emits out of time order (both happen under
    ``ClockChaos``), double drops, hops after exit, re-emitted evicted
    pids and rejected records that only leave health gaps.
    """

    def __init__(self) -> None:
        super().__init__()
        self.trace = fresh_trace()
        self.next_pid = 100

    @rule(batch=st.lists(records(), min_size=1, max_size=12))
    def apply(self, batch) -> None:
        for record in batch:
            self.trace._apply(record)

    @rule(start=times, exits=st.booleans())
    def journey(self, start, exits) -> None:
        """A well-formed packet, so prunes have something to evict."""
        pid, self.next_pid = self.next_pid, self.next_pid + 1
        self.trace._apply(emit_record("src-main", 0, start, pid, FLOW))
        self.trace._apply(hop_record("nat1", 0, pid, start + 1, start + 2, start + 3))
        self.trace._apply(hop_record("vpn1", 0, pid, start + 4, start + 4, start + 9))
        if exits:
            self.trace._apply(exit_record("vpn1", 0, start + 9, pid))

    @rule(cut=times)
    def prune(self, cut) -> None:
        twin = copy.deepcopy(self.trace)
        assert self.trace.prune_before(cut) == prune_before_oracle(twin, cut)
        assert_same_state(self.trace, twin)

    @rule(bare_mark=st.booleans())
    def untracked_mutation(self, bare_mark) -> None:
        if bare_mark:
            self.trace._mark_mutated()
        else:
            self.trace._mutations += 1

    @rule()
    def snapshot(self) -> None:
        cols = self.trace.columns()
        assert_columns_match_oracle(self.trace, cols)
        assert self.trace.columns() is cols, "unchanged trace, same snapshot"

    @invariant()
    def tracking_is_bounded(self) -> None:
        trace, delta = self.trace, self.trace._delta
        if delta is not None:
            assert delta.attributed >= len(delta.touched)
            assert trace._columns_built_at + delta.attributed <= trace._mutations


LiveColumnsMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestLiveColumnsMachine = LiveColumnsMachine.TestCase


def settled_trace() -> IncrementalTrace:
    """A small trace with a snapshot taken and one tracked apply since."""
    trace = fresh_trace()
    for pid in range(4):
        trace._apply(emit_record("src-main", 0, 10 * pid, pid, FLOW))
        trace._apply(hop_record("nat1", 0, pid, 10 * pid + 1, 10 * pid + 2, 10 * pid + 3))
    trace.columns()
    trace._apply(exit_record("nat1", 0, 33, 3))
    return trace


class TestUnknownMutationsRebuildInFull:
    """Each route by which the tracker can miss a mutation ends in
    ``from_trace``, visible as zero rows reused for that build."""

    def rebuilt_in_full(self, trace: IncrementalTrace) -> bool:
        reused = trace.columns_rows_reused
        cols = trace.columns()
        assert_columns_match_oracle(trace, cols)
        return trace.columns_rows_reused == reused

    def test_tracked_applies_reuse_rows(self):
        trace = settled_trace()
        assert not self.rebuilt_in_full(trace)
        assert trace.columns_rows_reused == 3  # rows 0-2; the exit touched row 3

    def test_direct_counter_bump(self):
        trace = settled_trace()
        trace._mutations += 1  # what tests/fleet/test_pool.py does
        assert self.rebuilt_in_full(trace)
        trace._apply(exit_record("nat1", 0, 23, 2))
        assert not self.rebuilt_in_full(trace), "tracking resumes after a build"

    def test_bare_mark(self):
        trace = settled_trace()
        trace._mark_mutated()  # what restore_builder_state does
        assert trace._delta is None
        assert self.rebuilt_in_full(trace)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_carry_no_derived_state(self, clone):
        trace = settled_trace()
        twin = clone(trace)
        assert twin._columns_cache is None and twin._delta is None
        assert (twin.columns_rows_reused, twin.columns_rows_flattened) == (0, 0)
        assert trace._delta.touched == {3}, "the original keeps tracking"
        assert self.rebuilt_in_full(twin)
        assert not self.rebuilt_in_full(trace)

    def test_restore_source_state(self):
        tap = LiveRecordTap()
        run_recurring_stall_chain(duration_ns=4 * MSEC, extra_hooks=[tap])

        def source() -> LiveTraceSource:
            config = IngestConfig(chunk_ns=1 * MSEC, seal_margin_ns=1 * MSEC)
            return LiveTraceSource(
                TelemetryFeed(SimTransport(tap.records), FeedConfig(max_pull=64)),
                IncrementalTrace.for_topology(make_chain_topology(), config),
            )

        first = source()
        while first.sealed_through() < 2:
            first.pump()
        state = capture_source_state(first)
        restored = source()
        restored.trace.columns()  # a snapshot of the empty trace to grow from
        restored.restore_state(state)
        assert restored.trace._delta is None
        assert self.rebuilt_in_full(restored.trace)
        restored.pump()
        assert not self.rebuilt_in_full(restored.trace)


def test_small_pump_live_run_reuses_most_rows():
    """The wall-clock-free perf guard: over 40 sealed chunks fed in small
    pumps and pruned behind a retention window, at least four in five
    packet rows of every snapshot come from the previous one."""
    chunk_ns, margin_ns, retain = 1 * MSEC, 5 * MSEC, 7
    tap = LiveRecordTap()
    run_recurring_stall_chain(
        duration_ns=48 * MSEC, main_rate=250_000.0, probe_rate=50_000.0,
        extra_hooks=[tap],
    )
    feed = TelemetryFeed(SimTransport(tap.records), FeedConfig(max_pull=8))
    trace = IncrementalTrace.for_topology(
        make_chain_topology(), IngestConfig(chunk_ns=chunk_ns, seal_margin_ns=margin_ns)
    )
    trace.columns()
    chunks = 0
    while chunks < 40:
        assert feed.pump() or not trace.complete
        trace.ingest(feed)
        while chunks < min(40, trace.sealed_chunks()):
            trace.prune_before((chunks - retain) * chunk_ns)
            cols = trace.columns()
            chunks += 1
            if chunks % 10 == 0:
                assert_columns_match_oracle(trace, cols)
    assert trace.packets_evicted > 0
    total = trace.columns_rows_reused + trace.columns_rows_flattened
    assert trace.columns_rows_reused / total >= 0.8
