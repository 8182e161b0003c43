"""The array chain walk and the propose-and-verify matcher against their
references.

``TraceReconstructor`` walks every chain back over int-array matchings and
writes hop rows straight into the columns of a ``ReconstructedPackets``
view.  The per-record exit loop and the object ``_chain_back`` it replaced
live in ``tests/oracles/reconstruct.py`` (``chaining_through``); packets,
``stats``, ``health`` and the adopted ``DiagTrace`` columns must equal
theirs on the Fig. 9 fixture, a Fig. 10-chain run and collector-chaos
input, strict and tolerant.  The matcher verifies whole blocks of merged
items and steps through the greedy only at rejected ones; on long clean
runs with planted rejections it must return what the scan matcher returns.
Wall-clock-free guards pin the cost: a clean dump takes no per-item step
and builds no packet or hop object, and a lossy one steps only at the
items verification rejects.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from benchmarks.test_fig09_reconstruction import FLOW_A, FLOW_B, run_and_reconstruct
from repro.collector import save_collected
from repro.collector.chaos import ChaosConfig, inject_chaos
from repro.collector.reconstruct import (
    Assignment,
    EdgeSpec,
    ReconstructedHop,
    ReconstructedPacket,
    ReconstructedPackets,
    TraceReconstructor,
    _StreamMatcher,
)
from repro.collector.runtime import BatchStream, NFRecords
from repro.core.records import DiagTrace
from repro.errors import TraceError
from repro.experiments.harness import run_injected_experiment
from repro.service.source import trace_from_directory
from repro.util.timebase import MSEC
from tests.collector.test_decoder_parity import counting_inits
from tests.ingest.test_live_columns import assert_same_columns
from tests.oracles import trace as oracle_trace
from tests.oracles.reconstruct import OracleStreamMatcher, chaining_through

FIG09_META = dict(
    peak_rates={"up1": 2e6, "up2": 2e6, "down": 2.5e6},
    upstreams={"up1": {"srcA"}, "up2": {"srcB"}, "down": {"up1", "up2"}},
    sources={"srcA", "srcB"},
)


def fig10_run(**plan):
    """A Fig. 10-chain run with the collector attached: ``(data, edges,
    meta)``.  ``plan`` picks the injected problems."""
    run = run_injected_experiment(
        rate_pps=600_000.0,
        duration_ns=8 * MSEC,
        seed=3,
        with_collector=True,
        plan_kwargs=dict(horizon_ns=2 * MSEC, warmup_ns=2 * MSEC, **plan),
    )
    topology = run.chain.topology
    edges = [
        EdgeSpec(src, dst, topology.delay_ns(src, dst))
        for src in sorted(topology.nodes())
        for dst in sorted(topology.successors(src))
    ]
    meta = dict(
        peak_rates=dict(topology.peak_rates_pps()),
        upstreams={name: topology.predecessors(name) for name in topology.nfs},
        sources=set(topology.sources),
        nf_types=topology.nf_types(),
    )
    return run.collector.data, edges, meta


@pytest.fixture(scope="module")
def fig09():
    _result, reconstructor, _packets = run_and_reconstruct()
    return reconstructor.data, reconstructor.edges, FIG09_META


@pytest.fixture(scope="module")
def chain():
    """One burst, one interrupt and one bug trigger."""
    return fig10_run(n_bursts=1, n_interrupts=1, n_bug_triggers=1)


@pytest.fixture(scope="module")
def quiet_chain():
    """One interrupt only: no NF drops or consumes a packet."""
    return fig10_run(n_bursts=0, n_interrupts=1, n_bug_triggers=0)


def with_nf(data, name, records):
    return type(data)(
        nfs={**data.nfs, name: records},
        sources=data.sources,
        exits=data.exits,
        max_batch=data.max_batch,
    )


def reversed_nf(data, name):
    """``data`` with every stream of ``name`` in reverse batch order (far
    past the quarantine threshold)."""
    records = data.nfs[name]
    return with_nf(
        data,
        name,
        NFRecords(
            rx=list(reversed(records.rx)),
            tx={peer: list(reversed(b)) for peer, b in records.tx.items()},
        ),
    )


def assert_same_chaining(data, edges, meta, tolerant):
    ours = TraceReconstructor(data, edges, tolerant=tolerant)
    packets = ours.reconstruct()
    with chaining_through():
        theirs = TraceReconstructor(data, edges, tolerant=tolerant)
        expected = theirs.reconstruct()
    assert isinstance(packets, ReconstructedPackets)
    assert type(expected) is list
    assert packets == expected
    assert ours.stats == theirs.stats
    assert ours.health == theirs.health
    kwargs = dict(meta, tolerant=tolerant)
    assert_same_columns(
        DiagTrace.from_reconstruction(packets, **kwargs).columns(),
        oracle_trace.ObjectTrace.from_reconstruction(expected, **kwargs).columns(),
    )
    return ours, packets


class TestChainParity:
    @pytest.mark.parametrize("tolerant", [False, True])
    def test_fig09_ipid_collisions(self, fig09, tolerant):
        _ours, packets = assert_same_chaining(*fig09, tolerant)
        assert len(packets) > 1000

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_fig10_chain(self, chain, tolerant):
        ours, _packets = assert_same_chaining(*chain, tolerant)
        # Clean collection breaks no chain, however long the burst's
        # queue-overflow drop runs; the break path is pinned on the
        # collector-chaos inputs below.
        assert ours.stats.chains_built
        assert ours.stats.chains_broken == ours.stats.unmatched_rx == 0

    @pytest.mark.parametrize("tolerant", [False, True])
    @pytest.mark.parametrize(
        "config",
        [
            ChaosConfig(drop_rate=0.10, seed=0),
            ChaosConfig(drop_rate=0.10, affect_edges=False, seed=1),
            ChaosConfig(truncate_rate=0.10, duplicate_rate=0.02, seed=2),
            ChaosConfig(reorder_rate=0.05, garbage_rate=0.01, seed=3),
        ],
        ids=["loss", "loss-interior", "truncation", "reorder-garbage"],
    )
    def test_collector_chaos(self, chain, config, tolerant):
        data, edges, meta = chain
        chaotic = inject_chaos(data, config).data
        ours, _packets = assert_same_chaining(chaotic, edges, meta, tolerant)
        assert ours.stats.chains_broken > 0
        if tolerant:
            assert any(g.kind == "chain-break" for g in ours.health.gaps)

    def test_quarantined_nf(self, chain):
        data, edges, meta = chain
        ours, _packets = assert_same_chaining(
            reversed_nf(data, "vpn1"), edges, meta, tolerant=True
        )
        assert "vpn1" in ours.health.quarantined


class TestPacketsView:
    def hand_built(self):
        hop, packet = ReconstructedHop, ReconstructedPacket
        return [
            packet(FLOW_A, "srcA", 0, [hop("up1", 5, 6, 9), hop("down", 12, 12, 20)], 20),
            packet(FLOW_B, "srcB", 3, [hop("ghost", 4, 4, 5), hop("down", 7, 9, 11)], 11),
            packet(FLOW_A, "srcZ", 1, [hop("up1", 2, 5, 6)], dropped_at="up1"),
            packet(FLOW_B, "srcB", 2, []),
        ]

    def test_reads_as_the_list_it_was_built_from(self):
        packets = self.hand_built()
        view = ReconstructedPackets.of(packets)
        assert ReconstructedPackets.of(view) is view
        assert isinstance(view, list)
        assert view == packets and packets == view
        assert not view != packets
        assert view != packets[:-1]
        assert len(view) == 4 and bool(view) and not ReconstructedPackets.of([])
        assert view[1] == packets[1] and view[-1] == packets[-1]
        assert view[1:3] == packets[1:3] and view[::-2] == packets[::-2]
        assert list(view) == packets and list(reversed(view)) == packets[::-1]
        assert packets[2] in view and view[0] is not view[0]
        with pytest.raises(IndexError):
            view[4]
        for use in (
            lambda v: v.append(packets[0]), lambda v: v.sort(), lambda v: v.copy(),
            lambda v: v + [], lambda v: [] + v, lambda v: v.count(packets[0]),
        ):
            with pytest.raises(TypeError, match="list"):
                use(view)
        assert len(view) == 4

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_adopted_like_the_object_list(self, tolerant):
        packets = self.hand_built()
        meta = dict(FIG09_META, tolerant=tolerant)
        if not tolerant:
            with pytest.raises(TraceError, match="'ghost'"):
                DiagTrace.from_reconstruction(ReconstructedPackets.of(packets), **meta)
            return
        assert_same_columns(
            DiagTrace.from_reconstruction(ReconstructedPackets.of(packets), **meta).columns(),
            oracle_trace.ObjectTrace.from_reconstruction(packets, **meta).columns(),
        )


class TestRepeatedPasses:
    """A second ``reconstruct()`` on the same instance is a fresh pass:
    the same packets, stats and health, not doubled counters or a lost
    quarantine."""

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_two_calls_agree(self, chain, tolerant):
        data, edges, _meta = chain
        if tolerant:
            data = reversed_nf(data, "vpn1")
        reconstructor = TraceReconstructor(data, edges, tolerant=tolerant)
        first = list(reconstructor.reconstruct())
        stats, health = reconstructor.stats, reconstructor.health
        assert reconstructor.data is data
        second = reconstructor.reconstruct()
        assert second == first
        assert reconstructor.stats == stats
        assert reconstructor.health == health
        if tolerant:
            assert "vpn1" in health.quarantined
            assert health.completeness["vpn1"] == 0.0


# -- propose and verify -----------------------------------------------------------


@st.composite
def planted_runs(draw):
    """A long clean interleaving of 1–3 streams with distinct ipids — each
    merged item reads its stream's head inside the window — plus up to
    three planted rejections: another stream's head with the pick's ipid
    at the pick's time, a lost stream item, a lost merged item, a merged
    item no stream holds, and two stream items swapped out of time order.
    Returns the matcher inputs and the first planted position."""
    n_streams = draw(st.integers(1, 3))
    n = draw(st.integers(40, 300))
    window = draw(st.sampled_from([0, 5, 50]))
    lo, hi = draw(st.sampled_from([(-window, 0), (0, window)]))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    stream_of = draw(st.lists(st.integers(0, n_streams - 1), min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    ipids = draw(st.lists(st.integers(0, 1 << 16), min_size=n + 3, max_size=n + 3, unique=True))
    lanes = [[] for _ in range(n_streams)]
    merged = []  # [time, ipid, stream item or None]
    t = 0
    for i in range(n):
        t += steps[i]
        item = [t, ipids[i], stream_of[i]]
        lanes[stream_of[i]].append(item)
        merged.append([t - offsets[i], ipids[i], item])
    kinds = ["rival", "lost-item", "lost-read", "unmatched", "swap"]
    plants = draw(
        st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, n - 1)), max_size=3)
    )
    fresh = iter(ipids[n:])
    for kind, j in sorted(plants, key=lambda plant: -plant[1]):
        if j >= len(merged):  # a "lost-read" at the same last position removed it
            continue
        read = merged[j]
        item = read[2]
        if kind == "rival" and item is not None and n_streams > 1:
            other = (item[2] + 1) % n_streams
            before = sum(1 for m in merged[:j] if m[2] is not None and m[2][2] == other)
            lanes[other].insert(before, [item[0], item[1], other])
        elif kind == "lost-item" and item is not None and item in lanes[item[2]]:
            lanes[item[2]].remove(item)
        elif kind == "lost-read":
            del merged[j]
        elif kind == "unmatched":
            merged.insert(j, [read[0], next(fresh), None])
        elif kind == "swap" and item is not None:
            lane = lanes[item[2]]
            at = next((k for k, x in enumerate(lane) if x is item), None)
            if at is not None and at + 1 < len(lane):
                lane[at][0], lane[at + 1][0] = lane[at + 1][0], lane[at][0]
    streams = {
        f"s{k}": ([x[0] for x in lane], [x[1] for x in lane])
        for k, lane in enumerate(lanes)
    }
    merged_stream = ([m[0] for m in merged], [m[1] for m in merged])
    lookahead = draw(st.sampled_from([0, 1, 4]))
    max_skip = draw(st.sampled_from([None, 0, 3, 64]))
    first_plant = min((j for _kind, j in plants), default=n)
    return (merged_stream, streams, lo, hi, lookahead, max_skip), first_plant


class TestProposeAndVerify:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planted_runs())
    @example(
        # Two stream heads with the pick's ipid at its time: the lookahead.
        (
            (([10, 11, 12], [1, 2, 3]),
             {"a": ([10, 11, 12], [1, 2, 3]), "b": ([10], [1])}, -5, 0, 4, 64),
            0,
        )
    )
    def test_same_as_the_scan_matcher(self, planted):
        inputs, first_plant = planted
        ours = _StreamMatcher(*inputs)
        theirs = OracleStreamMatcher(*inputs)
        assert ours.run() == theirs.run()
        assert ours.pointers == theirs.pointers
        assert ours.stats_ambiguous == theirs.stats_ambiguous
        assert ours.stats_unmatched == theirs.stats_unmatched
        assert ours.stats_bulk + ours.stats_stepped <= len(inputs[0][0])
        if first_plant > 0 and inputs[0][0]:
            # The clean prefix is verified in bulk, not stepped through.
            assert ours.stats_bulk > 0

    def test_assignment_reads_as_the_scan_list(self):
        expected = [("b", 0), None, ("a", 0), ("a", 1)]
        view = Assignment.of(expected, ["a", "b"])
        assert Assignment.of(view, ["a", "b"]) is view
        assert view == expected and expected == view
        assert view.lane.tolist() == [1, -1, 0, 0]
        assert view[2] == ("a", 0) and view[1] is None and view[-1] == ("a", 1)


# -- wall-clock-free guards ---------------------------------------------------------


@contextmanager
def recording_matchers():
    """Record, per matcher, every proposal's start and pointers, every
    rejection and every per-item step."""
    seen = []
    run, propose = _StreamMatcher.run, _StreamMatcher._propose
    verify_one, step = _StreamMatcher._verify_one, _StreamMatcher._step

    def entry(matcher):
        if not seen or seen[-1]["matcher"] is not matcher:
            seen.append(dict(matcher=matcher, proposals=[], rejected=0, steps=0))
        return seen[-1]

    def recording_run(self):
        entry(self)
        return run(self)

    def recording_propose(self, start, stop):
        record = entry(self)
        record["proposals"].append((start, dict(self.pointers)))
        accepted = propose(self, start, stop)
        record["rejected"] += start + accepted < stop
        return accepted

    def recording_verify_one(self, i):
        accepted = verify_one(self, i)
        entry(self)["rejected"] += not accepted
        return accepted

    def recording_step(self, i):
        entry(self)["steps"] += 1
        return step(self, i)

    with mock.patch.multiple(
        _StreamMatcher,
        run=recording_run,
        _propose=recording_propose,
        _verify_one=recording_verify_one,
        _step=recording_step,
    ):
        yield seen


class TestReconstructionCost:
    def test_clean_dump_takes_no_step_and_builds_no_object(self, tmp_path, quiet_chain):
        """The earlier matcher looked up candidates once per merged item and
        chained one hop object per hop, one packet object per packet."""
        data, edges, meta = quiet_chain
        save_collected(data, tmp_path, durable=False)
        lookups = [0]
        candidates = _StreamMatcher._candidates

        def counting(self, *args):
            lookups[0] += 1
            return candidates(self, *args)

        with counting_inits(ReconstructedHop) as hops, counting_inits(
            ReconstructedPacket
        ) as packets, mock.patch.object(_StreamMatcher, "_candidates", counting):
            trace = trace_from_directory(tmp_path, edges, **meta)
        assert trace.columns().n_hops > 10_000
        assert lookups[0] == 0
        assert hops[0] == packets[0] == 0

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_each_list_stream_is_converted_once(self, chain, tolerant):
        """The earlier pass converted a TX list once as its downstream
        NF's writer and once as its own TX stream, and tolerant mode's
        validation a third time."""
        data, edges, _meta = chain
        lists = {
            id(stream): stream
            for records in data.nfs.values()
            for stream in (records.rx, *records.tx.values())
        }
        converted = Counter()
        of = BatchStream.of.__func__

        def counting_of(cls, batches):
            if lists.get(id(batches)) is batches:
                converted[id(batches)] += 1
            return of(cls, batches)

        reconstructor = TraceReconstructor(data, edges, tolerant=tolerant)
        with mock.patch.object(BatchStream, "of", classmethod(counting_of)):
            reconstructor.reconstruct()
        assert set(converted) == set(lists)
        assert set(converted.values()) == {1}

    def test_lossy_input_steps_only_at_rejected_items(self, chain):
        data, edges, _meta = chain
        chaotic = inject_chaos(data, ChaosConfig(drop_rate=0.05, seed=4)).data
        with recording_matchers() as seen:
            TraceReconstructor(chaotic, edges, tolerant=True).reconstruct()
        assert sum(record["steps"] for record in seen) > 0
        resumed = 0
        for record in seen:
            matcher = record["matcher"]
            assert record["steps"] <= record["rejected"]
            assert matcher.stats_stepped == record["steps"]
            starts = [start for start, _pointers in record["proposals"]]
            assert starts == sorted(set(starts))
            for start, pointers in record["proposals"]:
                # Each proposal starts from the pointers the items before it
                # left, not from the start of the stream.
                lanes = matcher.assignment.lane[:start]
                indexes = matcher.assignment.index[:start]
                assert pointers == {
                    key: int(indexes[lanes == lane].max(initial=-1)) + 1
                    for lane, key in enumerate(matcher.keys)
                }
                resumed += start > 0 and any(pointers.values())
        assert resumed > 0
