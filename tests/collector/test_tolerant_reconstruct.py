"""Tolerant reconstruction: gap markers, completeness, quarantine.

Strict mode aborts (or silently degrades) on damaged telemetry; tolerant
mode must instead (a) behave bit-identically on clean input, (b) survive
chaos-injected input without raising, and (c) account for every form of
damage in ``TelemetryHealth``.
"""

import pytest

from repro.collector.chaos import ChaosConfig, inject_chaos
from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.collector.reconstruct import EdgeSpec, TraceReconstructor
from repro.collector.runtime import BatchRecord, NFRecords, RuntimeCollector
from repro.errors import TraceError
from repro.nfv import (
    FiveTuple,
    Nat,
    Simulator,
    Topology,
    TrafficSource,
    Vpn,
    constant_target,
)
from repro.traffic import IpidSpace, PidAllocator
from repro.traffic.caida import CaidaLikeTraffic
from repro.time.chaos import ClockSchedule
from repro.util.rng import generator
from repro.util.timebase import MSEC

EDGES = [EdgeSpec("src", "nat1", 500), EdgeSpec("nat1", "vpn1", 500)]


@pytest.fixture(scope="module")
def collected():
    """src -> nat1 -> vpn1 with CAIDA-like traffic, cleanly collected."""
    topo = Topology()
    topo.add_nf(Nat("nat1", router=lambda p: "vpn1"))
    topo.add_nf(Vpn("vpn1", router=lambda p: None))
    topo.add_source("src")
    topo.connect("src", "nat1")
    topo.connect("nat1", "vpn1")
    pids = PidAllocator()
    ipids = IpidSpace(generator(5))
    trace = CaidaLikeTraffic(
        rate_pps=300_000, duration_ns=6 * MSEC, seed=5
    ).generate(pids, ipids)
    collector = RuntimeCollector()
    src = TrafficSource("src", trace.schedule, constant_target("nat1"))
    Simulator(topo, [src], extra_hooks=[collector]).run()
    return collector.data


def packet_key(packet):
    return (
        packet.source,
        packet.emitted_ns,
        packet.exited_ns,
        tuple((h.nf, h.arrival_ns, h.read_ns, h.depart_ns) for h in packet.hops),
    )


class TestGapModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceError):
            TelemetryGap(nf="nat1", start_ns=0, end_ns=10, kind="mystery")

    def test_rejects_inverted_span(self):
        with pytest.raises(TraceError):
            TelemetryGap(nf="nat1", start_ns=10, end_ns=0, kind="loss")

    def test_confidence_and_degradation(self):
        health = TelemetryHealth(
            completeness={"nat1": 0.8, "vpn1": 1.0}, quarantined={"fw1"}
        )
        assert health.nf_confidence("nat1") == pytest.approx(0.8)
        assert health.nf_confidence("vpn1") == 1.0
        assert health.nf_confidence("fw1") == 0.0
        assert health.nf_confidence("unknown") == 1.0
        assert health.min_completeness == 0.0
        assert health.degraded
        assert not TelemetryHealth().degraded
        assert TelemetryHealth().min_completeness == 1.0

    def test_merge_takes_worst(self):
        a = TelemetryHealth(completeness={"nat1": 0.9})
        b = TelemetryHealth(completeness={"nat1": 0.7, "vpn1": 0.95})
        merged = a.merge(b)
        assert merged.completeness == {"nat1": 0.7, "vpn1": 0.95}

    def test_gap_queries(self):
        gaps = [
            TelemetryGap(nf="nat1", start_ns=0, end_ns=100, kind="loss"),
            TelemetryGap(nf="vpn1", start_ns=200, end_ns=300, kind="loss"),
        ]
        health = TelemetryHealth(gaps=gaps)
        assert health.gaps_at("nat1") == [gaps[0]]
        assert health.gaps_in(250, 400) == [gaps[1]]
        assert health.gaps_in(500, 600) == []


class TestCleanEquivalence:
    def test_tolerant_matches_strict_on_clean_input(self, collected):
        strict = TraceReconstructor(collected, EDGES)
        tolerant = TraceReconstructor(collected, EDGES, tolerant=True)
        strict_packets = strict.reconstruct()
        tolerant_packets = tolerant.reconstruct()
        assert [packet_key(p) for p in tolerant_packets] == [
            packet_key(p) for p in strict_packets
        ]
        assert tolerant.stats == strict.stats

    def test_clean_input_reports_perfect_health(self, collected):
        reconstructor = TraceReconstructor(collected, EDGES, tolerant=True)
        reconstructor.reconstruct()
        health = reconstructor.health
        assert not health.quarantined
        assert all(v == 1.0 for v in health.completeness.values())
        assert not [g for g in health.gaps if g.kind != "chain-break"]


class TestDegradedInput:
    def test_record_loss_lowers_completeness(self, collected):
        chaotic = inject_chaos(
            collected, ChaosConfig(drop_rate=0.10, affect_edges=False, seed=1)
        ).data
        reconstructor = TraceReconstructor(chaotic, EDGES, tolerant=True)
        packets = reconstructor.reconstruct()
        health = reconstructor.health
        assert isinstance(packets, list)
        assert any(v < 1.0 for v in health.completeness.values())
        assert any(g.kind == "loss" for g in health.gaps)

    def test_heavy_disorder_quarantines_the_stream(self, collected):
        records = collected.nfs["vpn1"]
        scrambled = NFRecords(
            rx=list(reversed(records.rx)),
            tx={peer: list(reversed(b)) for peer, b in records.tx.items()},
        )
        damaged = type(collected)(
            nfs={**collected.nfs, "vpn1": scrambled},
            sources=collected.sources,
            exits=collected.exits,
            max_batch=collected.max_batch,
        )
        reconstructor = TraceReconstructor(damaged, EDGES, tolerant=True)
        reconstructor.reconstruct()  # must not raise
        health = reconstructor.health
        assert "vpn1" in health.quarantined
        assert health.nf_confidence("vpn1") == 0.0
        assert any(
            g.kind == "quarantine" and g.nf == "vpn1" for g in health.gaps
        )
        # The caller's records are untouched by the sanitizer.
        assert damaged.nfs["vpn1"] is scrambled

    def test_mild_disorder_is_repaired(self, collected):
        records = collected.nfs["nat1"]
        rx = list(records.rx)
        # One adjacent swap: far below the quarantine threshold.
        rx[3], rx[4] = rx[4], rx[3]
        damaged = type(collected)(
            nfs={**collected.nfs, "nat1": NFRecords(rx=rx, tx=records.tx)},
            sources=collected.sources,
            exits=collected.exits,
            max_batch=collected.max_batch,
        )
        reconstructor = TraceReconstructor(damaged, EDGES, tolerant=True)
        packets = reconstructor.reconstruct()
        health = reconstructor.health
        assert "nat1" not in health.quarantined
        assert any(g.kind == "reorder" and g.nf == "nat1" for g in health.gaps)
        assert packets  # repaired stream still reconstructs

    def test_strict_mode_still_rejects_nothing_silently(self, collected):
        """Strict reconstruction on chaotic data does not raise either (the
        matcher treats missing records as drops), but only tolerant mode
        fills in gap markers."""
        chaotic = inject_chaos(
            collected, ChaosConfig(drop_rate=0.10, affect_edges=False, seed=1)
        ).data
        strict = TraceReconstructor(chaotic, EDGES)
        strict.reconstruct()
        assert not [g for g in strict.health.gaps if g.kind == "reorder"]

    @pytest.mark.parametrize("rate", [0.05, 0.20, 0.30])
    def test_no_loss_rate_crashes_reconstruction(self, collected, rate):
        chaotic = inject_chaos(collected, ChaosConfig(drop_rate=rate, seed=2)).data
        reconstructor = TraceReconstructor(chaotic, EDGES, tolerant=True)
        packets = reconstructor.reconstruct()
        assert isinstance(packets, list)
        assert reconstructor.health.completeness


def with_records(collected, exits=None, nfs=None):
    return type(collected)(
        nfs=collected.nfs if nfs is None else nfs,
        sources=collected.sources,
        exits=collected.exits if exits is None else exits,
        max_batch=collected.max_batch,
    )


def journeys(packets):
    return [(packet.flow,) + packet_key(packet) for packet in packets]


class TestExitAlignment:
    """Exit records align with the exit stream on (time, ipid): a lost
    record or exit item breaks exactly one chain, visibly."""

    LOST = 10

    @pytest.fixture(scope="class")
    def clean(self, collected):
        reconstructor = TraceReconstructor(collected, EDGES, tolerant=True)
        packets = reconstructor.reconstruct()
        assert reconstructor.stats.chains_broken == 0
        assert len(packets) == len(collected.exits)
        return packets

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_lost_exit_record_breaks_only_its_own_chain(
        self, collected, clean, tolerant
    ):
        lost = collected.exits[self.LOST]
        exits = collected.exits[: self.LOST] + collected.exits[self.LOST + 1 :]
        reconstructor = TraceReconstructor(
            with_records(collected, exits=exits), EDGES, tolerant=tolerant
        )
        packets = reconstructor.reconstruct()
        assert journeys(packets) == journeys(
            clean[: self.LOST] + clean[self.LOST + 1 :]
        )
        assert reconstructor.stats.chains_broken == 1
        if tolerant:
            health = reconstructor.health
            assert health.degraded
            assert [
                (g.nf, g.start_ns, g.end_ns, g.count)
                for g in health.gaps
                if g.kind == "chain-break"
            ] == [(lost.last_nf, lost.time_ns, lost.time_ns, 1)]

    def test_lost_exit_item_breaks_only_its_record(self, collected, clean):
        lost = collected.exits[self.LOST]
        vpn = collected.nfs["vpn1"]
        exit_batches = list(vpn.tx[""])
        for b, batch in enumerate(exit_batches):
            if batch.time_ns == lost.time_ns and lost.ipid in batch.ipids:
                ipids = list(batch.ipids)
                ipids.remove(lost.ipid)
                exit_batches[b] = BatchRecord(time_ns=batch.time_ns, ipids=tuple(ipids))
                break
        damaged = with_records(
            collected,
            nfs={**collected.nfs, "vpn1": NFRecords(rx=vpn.rx, tx={"": exit_batches})},
        )
        reconstructor = TraceReconstructor(damaged, EDGES, tolerant=True)
        packets = reconstructor.reconstruct()
        assert journeys(packets) == journeys(
            clean[: self.LOST] + clean[self.LOST + 1 :]
        )
        assert reconstructor.stats.chains_broken == 1
        assert any(
            g.kind == "chain-break" and g.nf == "vpn1"
            for g in reconstructor.health.gaps
        )

    @pytest.mark.parametrize(
        "config",
        [
            ChaosConfig(drift_ppm={"vpn1": 200.0}),
            ChaosConfig(
                clock_schedules={
                    "vpn1": ClockSchedule(kind="step", start_ns=0, step_ns=1_500)
                }
            ),
        ],
        ids=["drift", "step"],
    )
    def test_exit_nf_clock_fault_moves_exit_records_too(self, collected, config):
        """The exit NF's collector stamps exit records and exit batches from
        one clock read, so a clock fault there keeps them aligned."""
        chaotic = inject_chaos(collected, config).data
        vpn_exit = [b.time_ns for b in chaotic.nfs["vpn1"].tx[""]]
        assert {r.time_ns for r in chaotic.exits} <= set(vpn_exit)
        assert {r.time_ns for r in chaotic.exits}.isdisjoint(
            r.time_ns for r in collected.exits
        )
        reconstructor = TraceReconstructor(chaotic, EDGES)
        reconstructor.reconstruct()
        assert reconstructor.stats.chains_broken == 0
        assert reconstructor.stats.chains_built == len(collected.exits)
