"""Degraded-telemetry soak: the full pipeline under injected record loss.

Sweeps chaos loss rates over the intro-style scenario (a firewall bug
victimising the downstream VPN) and asserts the robustness contract:

* no loss rate crashes any stage (reconstruct -> diagnose_all ->
  streaming -> aggregation),
* diagnosis accuracy degrades monotonically (within noise) as loss grows,
* at 0% injected loss the tolerant pipeline is bit-identical to strict
  mode with confidence 1.0 everywhere,
* ``REPRO_CHAOS_LOSS`` drives the same sweep from CI with a fixed seed.

The scenario is tuned so queues build but never overflow: with zero
chaos the telemetry is perfectly complete, which is what makes the
equivalence pin exact.
"""

import os

import pytest

from repro.aggregation.patterns import PatternAggregator
from repro.collector.chaos import ChaosConfig, inject_chaos
from repro.collector.reconstruct import EdgeSpec, TraceReconstructor
from repro.collector.runtime import RuntimeCollector
from repro.core.diagnosis import MicroscopeEngine
from repro.core.records import DiagTrace
from repro.core.report import causal_relations, ranked_entities
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import VictimSelector
from repro.nfv import (
    BugSpec,
    Firewall,
    FirewallRule,
    FiveTuple,
    Simulator,
    Topology,
    TrafficSource,
    Vpn,
    constant_target,
)
from repro.traffic import IpidSpace, PidAllocator, constant_rate_flow, merge_schedules
from repro.util.rng import substream
from repro.util.timebase import MSEC, USEC
from tests.chaos_env import chaos_from_env
from tests.core.test_fastpath import canonical_bytes

pytestmark = pytest.mark.slow

MAIN = FiveTuple.of("10.1.0.1", "20.1.0.1", 1111, 443)
BUG = FiveTuple.of("100.0.0.1", "32.0.0.1", 2000, 6000)
LOSS_SWEEP = [0.0, 0.05, 0.10, 0.20, 0.30]
#: Accuracy is measured over a few dozen victims, so one flipped verdict
#: moves it by a few percent; this bounds "monotonic within noise".
NOISE = 0.15


def build_soak_scenario():
    """Intro-style bug scenario tuned to build queues without overflow."""
    topo = Topology()
    topo.add_nf(
        Firewall(
            "fw1",
            route_match=lambda p: "vpn1",
            route_default=lambda p: "vpn1",
            rules=[FirewallRule(dst_port=(443, 443), action="monitor")],
            cost_ns=700,
        )
    )
    topo.add_nf(Vpn("vpn1", router=lambda p: None, cost_ns=800))
    topo.add_source("src")
    topo.connect("src", "fw1")
    topo.connect("fw1", "vpn1")
    pids = PidAllocator()
    ipids = IpidSpace(substream(21, "soak"))
    duration = 8 * MSEC
    main = constant_rate_flow(MAIN, 1_000_000, duration, pids, ipids)
    triggers = []
    for k in range(3):
        at = (2 + 2 * k) * MSEC
        triggers.extend(
            (at + i * 5_000, pkt)
            for i, pkt in enumerate(
                p
                for _t, p in constant_rate_flow(BUG, 200_000, 400 * USEC, pids, ipids)
            )
        )
    schedule = merge_schedules(main, sorted(triggers))
    bug = BugSpec(nf="fw1", predicate=lambda f: f == BUG, slow_ns=8_000)
    collector = RuntimeCollector()
    Simulator(
        topo,
        [TrafficSource("src", schedule, constant_target("fw1"))],
        injectors=[bug],
        extra_hooks=[collector],
    ).run()
    edges = [EdgeSpec("src", "fw1", 500), EdgeSpec("fw1", "vpn1", 500)]
    return topo, collector.data, edges


@pytest.fixture(scope="module")
def soak_scenario():
    return build_soak_scenario()


def run_pipeline(topo, data, edges, chaos=None, tolerant=True):
    """reconstruct -> diagnose_all -> streaming -> aggregation, end to end."""
    if chaos is not None and chaos.active:
        data = inject_chaos(data, chaos).data
    reconstructor = TraceReconstructor(data, edges, tolerant=tolerant)
    packets = reconstructor.reconstruct()
    trace = DiagTrace.from_reconstruction(
        packets,
        peak_rates=topo.peak_rates_pps(),
        upstreams={name: topo.predecessors(name) for name in topo.nfs},
        sources=set(topo.sources),
        nf_types=topo.nf_types(),
        health=reconstructor.health if tolerant else None,
        tolerant=tolerant,
    )
    engine = MicroscopeEngine(trace)
    victims = [
        v
        for v in VictimSelector(trace).hop_latency_victims(pct=99.0, nf="vpn1")
        if trace.packets[v.pid].flow == MAIN
    ]
    diagnoses = engine.diagnose_all(victims)
    chunks = list(
        StreamingDiagnosis(
            trace, StreamingConfig(chunk_ns=2 * MSEC, margin_ns=2 * MSEC)
        ).chunks()
    )
    relations = causal_relations(diagnoses, trace)
    patterns = PatternAggregator(
        nf_types=trace.nf_types, threshold_fraction=0.01
    ).aggregate(relations)
    sample = diagnoses[:40]
    hits = sum(
        1
        for d in sample
        if (rk := ranked_entities(d, trace)) and rk[0][0] == ("nf", "fw1")
    )
    return {
        "trace": trace,
        "health": reconstructor.health,
        "stats": reconstructor.stats,
        "victims": victims,
        "diagnoses": diagnoses,
        "chunks": chunks,
        "patterns": patterns,
        "accuracy": hits / len(sample) if sample else None,
    }


class TestChaosSoak:
    def test_loss_sweep_never_crashes_and_degrades_monotonically(
        self, soak_scenario
    ):
        topo, data, edges = soak_scenario
        accuracies = {}
        chains = {}
        confidences = {}
        for rate in LOSS_SWEEP:
            out = run_pipeline(
                topo, data, edges, chaos=ChaosConfig(drop_rate=rate, seed=7)
            )
            accuracies[rate] = out["accuracy"]
            chains[rate] = out["stats"].chains_built
            diagnosed = [d for d in out["diagnoses"] if d.culprits]
            confidences[rate] = (
                sum(d.confidence for d in diagnosed) / len(diagnosed)
                if diagnosed
                else None
            )
        # Zero loss diagnoses the bug essentially perfectly.
        assert accuracies[0.0] is not None and accuracies[0.0] >= 0.9
        # Evidence (complete chains) strictly shrinks as loss grows.
        rates = [r for r in LOSS_SWEEP]
        for lo, hi in zip(rates, rates[1:]):
            assert chains[hi] < chains[lo]
        # Accuracy degrades monotonically within noise; a vanished victim
        # population at extreme loss is acceptable degradation too.
        previous = accuracies[0.0]
        for rate in rates[1:]:
            current = accuracies[rate]
            if current is None:
                break
            assert current <= previous + NOISE
            previous = min(previous, current)
        # Confidence tracks completeness: any lossy rate with surviving
        # diagnoses reports strictly discounted confidence.
        for rate in rates[1:]:
            if confidences[rate] is not None:
                assert confidences[rate] < 1.0

    def test_heavier_faults_do_not_crash_either(self, soak_scenario):
        """Loss is the headline knob, but the pipeline must survive every
        fault class at once."""
        topo, data, edges = soak_scenario
        out = run_pipeline(
            topo,
            data,
            edges,
            chaos=ChaosConfig(
                drop_rate=0.10,
                truncate_rate=0.10,
                duplicate_rate=0.05,
                reorder_rate=0.10,
                garbage_rate=0.02,
                drift_ppm={"vpn1": 200.0},
                seed=11,
            ),
        )
        assert isinstance(out["diagnoses"], list)
        assert out["chunks"]

    def test_streaming_chunks_report_telemetry_health(self, soak_scenario):
        topo, data, edges = soak_scenario
        out = run_pipeline(
            topo, data, edges, chaos=ChaosConfig(drop_rate=0.20, seed=3)
        )
        assert out["chunks"]
        assert all(c.telemetry_completeness < 1.0 for c in out["chunks"])
        clean = run_pipeline(topo, data, edges)
        assert all(c.telemetry_completeness == 1.0 for c in clean["chunks"])
        assert all(c.quarantined_nfs == () for c in clean["chunks"])


class TestZeroLossEquivalence:
    def test_tolerant_is_bit_identical_at_zero_loss(self, soak_scenario):
        """Acceptance pin: tolerant mode with clean telemetry produces the
        exact bytes strict mode does, with confidence 1.0 everywhere."""
        topo, data, edges = soak_scenario
        strict = run_pipeline(topo, data, edges, tolerant=False)
        tolerant = run_pipeline(topo, data, edges, tolerant=True)
        assert tolerant["trace"].telemetry is not None
        assert not tolerant["trace"].telemetry.degraded
        assert canonical_bytes(tolerant["diagnoses"]) == canonical_bytes(
            strict["diagnoses"]
        )
        for diagnosis in tolerant["diagnoses"]:
            assert diagnosis.confidence == 1.0
            assert all(c.confidence == 1.0 for c in diagnosis.culprits)
        # Streaming output is identical too, chunk for chunk.
        for ours, theirs in zip(tolerant["chunks"], strict["chunks"]):
            assert canonical_bytes(ours.diagnoses) == canonical_bytes(
                theirs.diagnoses
            )


class TestEnvDrivenChaos:
    def test_pipeline_under_env_configured_chaos(self, soak_scenario):
        """CI entry point: REPRO_CHAOS_LOSS/REPRO_CHAOS_SEED configure the
        sweep; without them a fixed 10% loss stands in."""
        topo, data, edges = soak_scenario
        config = chaos_from_env(os.environ) or ChaosConfig(drop_rate=0.10, seed=0)
        out = run_pipeline(topo, data, edges, chaos=config)
        assert isinstance(out["diagnoses"], list)
        assert out["chunks"]
        if config.active:
            assert out["health"].degraded
