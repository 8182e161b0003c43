"""Component micro-benchmarks: simulator, diagnosis, aggregation throughput.

These are classic pytest-benchmark timings (multiple rounds) rather than
figure reproductions: they track the substrate's performance so workload
scaling stays honest.
"""

import pytest

from repro.aggregation.autofocus import MultiAutoFocus
from repro.aggregation.hierarchy import PortNode, PrefixNode
from repro.core.diagnosis import MicroscopeEngine
from repro.core.queuing import QueuingAnalyzer
from repro.core.records import DiagTrace
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import VictimSelector
from repro.fleet import WorkerPool
from repro.nfv import Simulator, TrafficSource, Vpn, Topology, constant_target
from repro.nfv.packet import FiveTuple, Packet
from repro.util.rng import generator
from repro.util.timebase import MSEC
from tests.conftest import run_interrupt_chain


def test_simulator_throughput(benchmark):
    """Packets simulated per second of wall time through a single NF."""

    def build_and_run():
        topo = Topology()
        topo.add_nf(Vpn("v", router=lambda p: None))
        topo.add_source("src")
        topo.connect("src", "v")
        flow = FiveTuple.of("1.1.1.1", "2.2.2.2", 1, 2)
        schedule = [
            (i * 1_000, Packet(pid=i, flow=flow, ipid=i % 65_536))
            for i in range(5_000)
        ]
        src = TrafficSource("src", schedule, constant_target("v"))
        return Simulator(topo, [src]).run()

    result = benchmark(build_and_run)
    assert len(result.completed_packets()) == 5_000


@pytest.fixture(scope="module")
def chain_trace():
    return DiagTrace.from_sim_result(run_interrupt_chain())


@pytest.fixture(scope="module")
def heavy_chain():
    """A longer interrupt-chain run: >= 200 victims at the VPN.

    This is the ISSUE-1 acceptance workload for the diagnosis fast path
    (indexing + memoization + parallel diagnose_all); ``record_bench.py``
    runs the same scenario when emitting ``BENCH_diagnosis.json``.
    """
    trace = DiagTrace.from_sim_result(run_interrupt_chain(duration_ns=20 * MSEC))
    victims = VictimSelector(trace).hop_latency_victims(pct=99.0, nf="vpn1")
    assert len(victims) >= 200
    return trace, victims


def test_queuing_analyzer_build(benchmark, chain_trace):
    """The vectorized index build (the ISSUE-2 vectorization target)."""
    view = chain_trace.nfs["vpn1"]
    analyzer = benchmark(lambda: QueuingAnalyzer(view))
    assert analyzer.view is view


def test_streaming_chunked(benchmark, chain_trace):
    """Chunked diagnosis wall time, one engine carried across chunks."""
    config = StreamingConfig(chunk_ns=MSEC, margin_ns=2 * MSEC)

    def run():
        return StreamingDiagnosis(chain_trace, config, victim_pct=99.0).run()

    diags = benchmark.pedantic(run, rounds=1, iterations=1)
    assert diags


def test_streaming_reuse_matches_batch(chain_trace):
    """Not a timing: the carried engine must reproduce batch output."""
    streaming = StreamingDiagnosis(
        chain_trace,
        StreamingConfig(chunk_ns=MSEC, margin_ns=2 * MSEC),
        victim_pct=99.0,
    )
    streamed = streaming.run()
    batch = MicroscopeEngine(chain_trace).diagnose_all(streaming._all_victims)
    assert [d.culprits for d in streamed] == [d.culprits for d in batch]
    assert streaming.engine.cache_stats.cross_chunk_hits >= 0


def test_diagnosis_per_victim(benchmark, chain_trace):
    engine = MicroscopeEngine(chain_trace)
    victims = VictimSelector(chain_trace).hop_latency_victims(pct=99.0, nf="vpn1")
    victim = victims[len(victims) // 2]

    def diagnose():
        return engine.diagnose(victim)

    diagnosis = benchmark(diagnose)
    assert diagnosis.culprits


def test_diagnose_all_serial_unmemoized(benchmark, heavy_chain):
    """The memo-free reference: a fresh engine per round, no cache reuse."""
    trace, victims = heavy_chain
    diags = benchmark(
        lambda: MicroscopeEngine(trace, memoize=False).diagnose_all(victims)
    )
    assert len(diags) == len(victims)


def test_diagnose_all_memoized_cold(benchmark, heavy_chain):
    """Fast path from a cold cache: engine construction included per round."""
    trace, victims = heavy_chain
    diags = benchmark(lambda: MicroscopeEngine(trace).diagnose_all(victims))
    assert len(diags) == len(victims)


def test_diagnose_all_memoized_warm(benchmark, heavy_chain):
    """Fast path with pre-warmed period/decomposition caches."""
    trace, victims = heavy_chain
    engine = MicroscopeEngine(trace)
    engine.diagnose_all(victims)  # warm every memo layer
    diags = benchmark(lambda: engine.diagnose_all(victims))
    assert len(diags) == len(victims)
    assert engine.cache_stats.hits > 0


def test_diagnose_all_parallel_workers(benchmark, heavy_chain):
    """Pooled dispatch: the batch is one task on one warm worker."""
    trace, victims = heavy_chain
    with WorkerPool(2) as pool:
        diags = benchmark.pedantic(
            lambda: MicroscopeEngine(trace).diagnose_all(victims, executor=pool),
            rounds=1,
            iterations=1,
        )
    assert len(diags) == len(victims)


def test_diagnose_all_modes_identical(heavy_chain):
    """Not a timing: the three modes must emit identical culprit lists."""
    trace, victims = heavy_chain
    memo = MicroscopeEngine(trace).diagnose_all(victims)
    plain = MicroscopeEngine(trace, memoize=False).diagnose_all(victims)
    with WorkerPool(2) as pool:
        parallel = MicroscopeEngine(trace).diagnose_all(victims, executor=pool)
    assert [d.culprits for d in memo] == [d.culprits for d in plain]
    assert [d.culprits for d in memo] == [d.culprits for d in parallel]


def test_autofocus_throughput(benchmark):
    rng = generator(1)
    items = [
        (
            (int(rng.integers(0, 1 << 32)), int(rng.integers(0, 65_536))),
            float(rng.random()) + 0.01,
        )
        for _ in range(2_000)
    ]
    autofocus = MultiAutoFocus(
        to_leaf_nodes=lambda item: (PrefixNode.leaf(item[0]), PortNode.leaf(item[1])),
        threshold_fraction=0.02,
    )
    clusters = benchmark(lambda: autofocus.run(items))
    assert isinstance(clusters, list)
