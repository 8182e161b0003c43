"""Oracle parity: the columnar trace layout is a bit-identical twin.

Production diagnosis runs on the vectorized columnar core; the
pure-Python object walk it replaced is the oracle (``tests/oracles/``).
These property tests pin the contract from DESIGN.md: for *any* trace —
randomly generated hop timelines, drops, looping paths, streaming
chunkings, and chaos-degraded telemetry — both select the same victims
and produce byte-identical diagnosis output, confidence included.

Traces are hand-built (not simulated) so hypothesis can explore shapes
the simulator never emits: zero-hop packets, ties, revisited NFs,
packets that vanish mid-path.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.columnar import TraceColumns
from repro.core.diagnosis import MicroscopeEngine
from repro.core.records import DiagTrace, NFView, PacketHop, PacketView
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import VictimSelector
from repro.nfv.packet import FiveTuple
from tests.core.test_fastpath import canonical_bytes
from tests.oracles import victims as oracle_victims
from tests.oracles.engine import OracleEngine, streaming_through

FLOWS = [
    FiveTuple.of("10.0.0.1", "20.0.0.1", 1111, 80),
    FiveTuple.of("10.0.0.2", "20.0.0.2", 2222, 443),
]

NF_NAMES = ["nf0", "nf1", "nf2", "nf3"]


# -- random trace construction -------------------------------------------------

hop_delta = st.tuples(
    st.integers(min_value=0, max_value=60),   # inter-hop gap
    st.integers(min_value=0, max_value=400),  # queue wait
    st.integers(min_value=1, max_value=80),   # service time
)

packet_spec = st.fixed_dictionaries(
    {
        "flow": st.sampled_from(range(len(FLOWS))),
        "emit": st.integers(min_value=0, max_value=5_000),
        "deltas": st.lists(hop_delta, min_size=0, max_size=6),
        # fate of the packet after its completed hops:
        #   exit - leaves the chain normally
        #   drop - dropped at the next NF on its path (if one exists)
        #   lost - telemetry simply ends (no exit, no drop record)
        "fate": st.sampled_from(["exit", "exit", "exit", "drop", "lost"]),
        "revisit": st.booleans(),  # loop back to the first NF at the end
    }
)

trace_spec = st.fixed_dictionaries(
    {
        "n_nfs": st.integers(min_value=2, max_value=4),
        "peaks": st.lists(
            st.sampled_from([50_000.0, 200_000.0, 1_000_000.0]),
            min_size=4,
            max_size=4,
        ),
        "packets": st.lists(packet_spec, min_size=0, max_size=30),
    }
)


def build_trace(spec: dict) -> DiagTrace:
    """Deterministically materialize a DiagTrace from a drawn spec."""
    names = NF_NAMES[: spec["n_nfs"]]
    nfs: Dict[str, NFView] = {
        name: NFView(name=name, peak_rate_pps=spec["peaks"][i])
        for i, name in enumerate(names)
    }
    upstreams: Dict[str, Set[str]] = {
        name: ({names[i - 1]} if i else {"src"}) for i, name in enumerate(names)
    }
    packets: Dict[int, PacketView] = {}
    for pid, pkt in enumerate(spec["packets"]):
        path = list(names)
        if pkt["revisit"]:
            path.append(names[0])  # looping service chain
        hops: List[PacketHop] = []
        t = pkt["emit"]
        deltas = pkt["deltas"][: len(path)]
        for nf, (gap, wait, service) in zip(path, deltas):
            arrival = t + gap
            read = arrival + wait
            depart = read + service
            nfs[nf].arrivals.append((arrival, pid))
            nfs[nf].reads.append((read, pid))
            nfs[nf].departs.append((depart, pid))
            hops.append(
                PacketHop(nf=nf, arrival_ns=arrival, read_ns=read, depart_ns=depart)
            )
            t = depart
        dropped_at: Optional[str] = None
        dropped_ns = -1
        exited_ns = -1
        if pkt["fate"] == "drop" and len(hops) < len(path):
            dropped_at = path[len(hops)]
            dropped_ns = t + 1
            nfs[dropped_at].drops.append((dropped_ns, pid))
        elif pkt["fate"] == "exit":
            exited_ns = t if hops else pkt["emit"]
        packets[pid] = PacketView(
            pid=pid,
            flow=FLOWS[pkt["flow"]],
            source="src",
            emitted_ns=pkt["emit"],
            hops=hops,
            dropped_at=dropped_at,
            dropped_ns=dropped_ns,
            exited_ns=exited_ns,
        )
    return DiagTrace(
        packets=packets,
        nfs=nfs,
        upstreams=upstreams,
        sources={"src"},
        nf_types={name: "nat" for name in names},
    )


def select_victims(trace: DiagTrace, threshold_ns: int, oracle: bool):
    if oracle:
        over = functools.partial(oracle_victims.hop_latency_victims_over, trace)
        drops = oracle_victims.drop_victims(trace)
    else:
        over = VictimSelector(trace).hop_latency_victims_over
        drops = VictimSelector(trace).drop_victims()
    victims = [v for nf in trace.nfs for v in over(threshold_ns, nf=nf)]
    return victims + drops


def victim_key(v):
    return (v.kind, v.nf, v.pid, v.arrival_ns)


def diagnose_through(oracle: bool, spec: dict, threshold_ns: int):
    """Fresh trace, victim selection and batch diagnosis through the
    production path or through the oracles."""
    trace = build_trace(spec)
    victims = select_victims(trace, threshold_ns, oracle)
    engine = (OracleEngine if oracle else MicroscopeEngine)(trace)
    diagnoses = engine.diagnose_all(victims)
    return (
        [victim_key(v) for v in victims],
        canonical_bytes(diagnoses),
        [d.confidence for d in diagnoses],
    )


# -- properties ----------------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=trace_spec, threshold=st.integers(min_value=1, max_value=500))
def test_backends_bit_identical_on_random_traces(spec, threshold):
    """Victims, diagnosis bytes, and confidences match the oracles'."""
    columnar = diagnose_through(False, spec, threshold)
    oracle = diagnose_through(True, spec, threshold)
    assert columnar == oracle


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=trace_spec,
    threshold=st.integers(min_value=1, max_value=300),
    chunk_ns=st.integers(min_value=100, max_value=4_000),
    margin_ns=st.integers(min_value=0, max_value=2_000),
)
def test_streaming_chunks_bit_identical_across_backends(
    spec, threshold, chunk_ns, margin_ns
):
    """Chunked (streaming) diagnosis is chunk-for-chunk identical too."""

    def streamed():
        config = StreamingConfig(chunk_ns=chunk_ns, margin_ns=margin_ns)
        chunks = StreamingDiagnosis(build_trace(spec), config).chunks()
        return [(c.start_ns, c.end_ns, canonical_bytes(c.diagnoses)) for c in chunks]

    columnar = streamed()
    with streaming_through(OracleEngine):
        oracle = streamed()
    assert columnar == oracle


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=trace_spec)
def test_columns_round_trip_matches_object_streams(spec):
    """The columnar build reproduces every per-NF stream and hop exactly."""
    trace = build_trace(spec)
    cols = trace.columns()
    assert isinstance(cols, TraceColumns)
    for name, view in trace.nfs.items():
        code = cols.nf_code[name]
        ncols = cols.streams[code]
        assert list(zip(ncols.arr_t.tolist(), ncols.arr_pid.tolist())) == (
            view.arrivals
        )
        assert list(zip(ncols.read_t.tolist(), ncols.read_pid.tolist())) == (
            view.reads
        )
        assert list(zip(ncols.dep_t.tolist(), ncols.dep_pid.tolist())) == (
            view.departs
        )
        assert list(zip(ncols.drop_t.tolist(), ncols.drop_pid.tolist())) == (
            view.drops
        )
    # Hop tables match packet journeys, packet-major in dict order.
    pids = list(trace.packets)
    assert cols.pkt_pid.tolist() == pids
    for row, pid in enumerate(pids):
        packet = trace.packets[pid]
        start, end = int(cols.hop_start[row]), int(cols.hop_start[row + 1])
        assert end - start == len(packet.hops)
        for k, hop in enumerate(packet.hops):
            j = start + k
            assert cols.nf_names[cols.hop_nf[j]] == hop.nf
            assert int(cols.hop_arrival[j]) == hop.arrival_ns
            assert int(cols.hop_read[j]) == hop.read_ns
            assert int(cols.hop_depart[j]) == hop.depart_ns


class TestChaosParity:
    """Degraded telemetry (10% record loss) goes through the tolerant
    reconstruction path; the columnar core must still be bit-identical to
    the oracles, confidence discounts included."""

    @pytest.fixture(scope="class")
    def chaos_ingredients(self):
        from tests.integration.test_degraded_telemetry import build_soak_scenario

        return build_soak_scenario()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_ten_percent_loss_bit_identical(self, chaos_ingredients, seed):
        from repro.collector.chaos import ChaosConfig
        from tests.core.test_oracle_parity import batch_and_streamed, fingerprint
        from tests.integration.test_degraded_telemetry import run_pipeline

        topo, data, edges = chaos_ingredients
        out = run_pipeline(
            topo,
            data,
            edges,
            chaos=ChaosConfig(drop_rate=0.10, seed=seed),
            tolerant=True,
        )
        # The chunking run_pipeline streams with.
        config = StreamingConfig(chunk_ns=2_000_000, margin_ns=2_000_000)
        columnar, oracle = (
            batch_and_streamed(engine_class, out["trace"], out["victims"], config)
            for engine_class in (MicroscopeEngine, OracleEngine)
        )
        assert columnar == oracle
        assert columnar[0] == fingerprint(out["diagnoses"])
        assert out["diagnoses"], "expected surviving diagnoses"
