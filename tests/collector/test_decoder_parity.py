"""The columnar loader against the object decoders it replaced.

A dump decodes straight into :class:`BatchStream` columns and flows are
counted over int codes.  The per-record decoders, the object loader and
the reconstructor's record-by-record stream handling live in
``tests/oracles/collector.py``; the tuple-loop ``flow_counts`` in
``tests/oracles/trace.py``.  Decoding must give the same records on every
valid encoding, and a whole post-mortem — load, reconstruction, relations
(scores by ``float.hex``) and ranked entities — must equal the one run
through the oracles, strict and tolerant.  Two wall-clock-free guards pin
the cost: loading and reconstructing a dump builds no ``BatchRecord``, and
decoding exit records builds one ``FiveTuple`` per distinct flow.
"""

from contextlib import contextmanager
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.test_fig09_reconstruction import run_and_reconstruct
from repro.collector.compression import (
    decode_batch_stream,
    decode_batches,
    decode_exit_records,
    encode_batches,
    encode_exit_records,
)
from repro.collector.persistence import load_collected, save_collected
from repro.collector.reconstruct import EdgeSpec, TraceReconstructor
from repro.collector.runtime import (
    BatchRecord,
    BatchStream,
    CollectedData,
    ExitRecord,
    NFRecords,
)
from repro.core.diagnosis import MicroscopeEngine
from repro.core.records import DiagTrace
from repro.core.report import causal_relations, ranked_entities
from repro.core.victims import VictimSelector
from repro.experiments.harness import run_injected_experiment
from repro.nfv.packet import FiveTuple
from repro.util.timebase import MSEC
from tests.collector.test_matcher_parity import reconstruction_state
from tests.oracles import collector as oracle
from tests.oracles.trace import counting_through

# -- random encodings ----------------------------------------------------------

#: Deltas of every varint length the dumper writes: one byte, two, three,
#: and large ones near the 63-bit bound.
deltas = st.one_of(
    st.integers(0, 127),
    st.integers(128, 16_383),
    st.integers(16_384, 2_097_151),
    st.integers(0, 1 << 40),
)


@st.composite
def batch_lists(draw):
    """Time-sorted batches: 0-size batches, multi-byte deltas, up to 32
    IPIDs each."""
    steps = draw(st.lists(deltas, max_size=40))
    times = list(accumulate(steps))
    return [
        BatchRecord(t, tuple(draw(st.lists(st.integers(0, 0xFFFF), max_size=32))))
        for t in times
    ]


flows = st.builds(
    FiveTuple,
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 255),
)


@st.composite
def exit_lists(draw):
    steps = draw(st.lists(deltas, max_size=30))
    pool = draw(st.lists(flows, min_size=1, max_size=4))
    names = st.sampled_from(["", "vpn1", "fw-é", "x" * 200])
    return [
        ExitRecord(
            t, draw(st.integers(0, 0xFFFF)), draw(st.sampled_from(pool)), draw(names)
        )
        for t in accumulate(steps)
    ]


class TestDecoderParity:
    @given(batch_lists())
    @settings(max_examples=300, deadline=None)
    def test_batch_stream_equals_object_decoder(self, batches):
        buf = encode_batches(batches)
        expected = oracle.decode_batches(buf)
        stream = decode_batch_stream(buf)
        assert stream == expected == batches
        assert list(stream) == expected
        assert [stream[i] for i in range(len(stream))] == expected
        assert decode_batches(buf) == expected
        assert stream.packets(7) == oracle.batch_stream_reference(expected, 7)
        assert BatchStream.of(expected) == stream

    @given(exit_lists())
    @settings(max_examples=200, deadline=None)
    def test_exit_records_equal_object_decoder(self, exits):
        buf = encode_exit_records(exits)
        assert decode_exit_records(buf) == oracle.decode_exit_records(buf) == exits

    @given(batch_lists())
    @settings(max_examples=100, deadline=None)
    def test_sorted_by_time_is_the_stable_record_sort(self, batches):
        shuffled = batches[::2][::-1] + batches[1::2]
        assert BatchStream.of(shuffled).sorted_by_time() == sorted(
            shuffled, key=lambda b: b.time_ns
        )


# -- whole pipelines -----------------------------------------------------------


def chain_run():
    """The offline post-mortem in miniature: Fig. 10 chain with one burst,
    interrupt and bug trigger, collector attached."""
    run = run_injected_experiment(
        rate_pps=600_000.0,
        duration_ns=8 * MSEC,
        seed=3,
        with_collector=True,
        plan_kwargs=dict(
            n_bursts=1, n_interrupts=1, n_bug_triggers=1,
            horizon_ns=2 * MSEC, warmup_ns=2 * MSEC,
        ),
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
def chain():
    return chain_run()


@pytest.fixture(scope="module")
def fig09():
    _result, reconstructor, _packets = run_and_reconstruct()
    meta = dict(
        peak_rates={"up1": 2e6, "up2": 2e6, "down": 2.5e6},
        upstreams={"up1": {"srcA"}, "up2": {"srcB"}, "down": {"up1", "up2"}},
        sources={"srcA", "srcB"},
    )
    return reconstructor.data, reconstructor.edges, meta


def postmortem(data, edges, meta, tolerant):
    """Reconstruction state, health, relations and ranked entities."""
    reconstructor = TraceReconstructor(data, edges, tolerant=tolerant)
    packets = reconstructor.reconstruct()
    trace = DiagTrace.from_reconstruction(packets, **meta)
    selector = VictimSelector(trace)
    victims = selector.hop_latency_victims(pct=99.0) + selector.drop_victims()
    diagnoses = MicroscopeEngine(trace).diagnose_all(victims)
    relations = [
        (r.culprit_flow, r.culprit_location, r.victim_flow, r.victim_location,
         r.score.hex(), r.gap_ns, r.culprit_kind)
        for r in causal_relations(diagnoses, trace)
    ]
    ranked = [
        [(entity, score.hex()) for entity, score in ranked_entities(d, trace)]
        for d in diagnoses
    ]
    return (
        reconstruction_state(reconstructor, packets),
        reconstructor.health,
        relations,
        ranked,
    )


@contextmanager
def through_oracles():
    with oracle.reconstructing_through(), counting_through():
        yield


def assert_same_postmortem(ours_data, their_data, edges, meta, tolerant=False):
    ours = postmortem(ours_data, edges, meta, tolerant)
    with through_oracles():
        theirs = postmortem(their_data, edges, meta, tolerant)
    assert ours == theirs
    return ours


def with_nf(data, name, records):
    return CollectedData(
        nfs={**data.nfs, name: records},
        sources=data.sources,
        exits=data.exits,
        max_batch=data.max_batch,
    )


class TestPipelineParity:
    @pytest.mark.parametrize("fixture", ["fig09", "chain"])
    @pytest.mark.parametrize("tolerant", [False, True])
    def test_loaded_dump(self, request, tmp_path, fixture, tolerant):
        data, edges, meta = request.getfixturevalue(fixture)
        save_collected(data, tmp_path, durable=False)
        ours = load_collected(tmp_path)
        theirs = oracle.load_collected_reference(tmp_path)
        assert all(isinstance(r.rx, BatchStream) for r in ours.nfs.values())
        assert ours.exits == theirs.exits and ours.sources == theirs.sources
        state, _health, relations, ranked = assert_same_postmortem(
            ours, theirs, edges, meta, tolerant
        )
        assert state[0] and relations and any(ranked)

    def test_in_memory_lists(self, chain):
        data, edges, meta = chain
        assert_same_postmortem(data, data, edges, meta)

    def test_tolerant_reordered_and_quarantined_streams(self, tmp_path, chain):
        data, edges, meta = chain
        save_collected(data, tmp_path, durable=False)
        loaded = load_collected(tmp_path)
        # Mild disorder at nat1 (repaired), full reversal at vpn1
        # (quarantined); each pipeline gets its own representation.
        damaged = {}
        for label, source in (("ours", loaded), ("theirs", data)):
            rx = list(source.nfs["nat1"].rx)
            rx[3], rx[4] = rx[4], rx[3]
            rx[10], rx[12] = rx[12], rx[10]
            vpn = source.nfs["vpn1"]
            reversed_vpn = NFRecords(
                rx=list(reversed(vpn.rx)),
                tx={peer: list(reversed(b)) for peer, b in vpn.tx.items()},
            )
            nat = NFRecords(rx=rx, tx=source.nfs["nat1"].tx)
            if label == "ours":
                nat = NFRecords(rx=BatchStream.of(rx), tx=nat.tx)
                reversed_vpn = NFRecords(
                    rx=BatchStream.of(reversed_vpn.rx),
                    tx={p: BatchStream.of(b) for p, b in reversed_vpn.tx.items()},
                )
            damaged[label] = with_nf(with_nf(source, "nat1", nat), "vpn1", reversed_vpn)
        _state, health, _relations, _ranked = assert_same_postmortem(
            damaged["ours"], damaged["theirs"], edges, meta, tolerant=True
        )
        assert "vpn1" in health.quarantined
        assert any(g.kind == "reorder" and g.nf == "nat1" for g in health.gaps)


# -- wall-clock-free guards -----------------------------------------------------


@contextmanager
def counting_inits(cls, method="__init__"):
    """Count calls of ``cls.<method>`` inside the block."""
    original = getattr(cls, method)
    calls = [0]

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    with mock.patch.object(cls, method, counting):
        yield calls


class TestDecodeCost:
    def test_load_and_reconstruct_build_no_batch_record(self, tmp_path, chain):
        data, edges, _meta = chain
        save_collected(data, tmp_path, durable=False)
        n_batches = sum(
            len(r.rx) + sum(map(len, r.tx.values())) for r in data.nfs.values()
        )
        with counting_inits(BatchRecord) as built:
            loaded = load_collected(tmp_path)
            packets = TraceReconstructor(loaded, edges).reconstruct()
            tolerant = TraceReconstructor(loaded, edges, tolerant=True)
            assert tolerant.reconstruct() == packets
        assert packets and built[0] == 0
        # The object loader builds one record per batch.
        with counting_inits(BatchRecord) as built:
            oracle.load_collected_reference(tmp_path)
        assert built[0] == n_batches > 0

    def test_exit_decode_builds_one_five_tuple_per_flow(self, chain):
        data, _edges, _meta = chain
        buf = encode_exit_records(data.exits)
        distinct = len({record.flow for record in data.exits})
        assert len(data.exits) > distinct
        with counting_inits(FiveTuple, "__post_init__") as built:
            assert decode_exit_records(buf) == data.exits
        assert built[0] <= distinct
        with counting_inits(FiveTuple, "__post_init__") as built:
            oracle.decode_exit_records(buf)
        assert built[0] == len(data.exits)
