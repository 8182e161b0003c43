"""Topologies and seeded input generators for the four workloads.

Built only from the public ``repro.nfv`` / ``repro.traffic`` /
``repro.experiments`` APIs.  The seed is the only knob: it drives packet
arrival jitter, the phase of the recurring stalls and, for the Fig. 10
run, the whole CAIDA-like workload and injection plan.  Rates, stall
lengths and durations are frozen by :mod:`perfbench.workloads`.

The load generator (this module plus the simulator) runs in the parent
process; the program under test only ever sees what is generated here:
telemetry records, persisted collector streams, or a pickled trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.collector import EdgeSpec, RuntimeCollector
from repro.experiments import InjectedProblem, run_injected_experiment
from repro.ingest import (
    FeedConfig,
    IncrementalTrace,
    IngestConfig,
    TelemetryFeed,
    TelemetryRecord,
)
from repro.nfv import (
    FiveTuple,
    InterruptInjector,
    InterruptSpec,
    Nat,
    SimResult,
    Simulator,
    Topology,
    TrafficSource,
    Vpn,
    constant_target,
)
from repro.nfv.tap import LiveRecordTap
from repro.service import DiagnosisService, LiveTraceSource, ServiceConfig
from repro.time import ClockChaos, ClockConfig, ClockSchedule
from repro.traffic import IpidSpace, PidAllocator, constant_rate_flow
from repro.util.rng import substream
from repro.util.timebase import MSEC, USEC

MAIN_FLOW = FiveTuple.of("10.1.0.1", "20.1.0.1", 1111, 80)
PROBE_FLOW = FiveTuple.of("50.0.0.1", "60.0.0.1", 5555, 443)

#: Victims arriving within this long after a stall began are attributed
#: to it when accuracy is scored (a stall plus its downstream drain).
STALL_HORIZON_NS = 2 * MSEC
#: No stall starts this close to the end of traffic: every stall plays out
#: in full, so the amount of trouble does not depend on where the seed
#: put the stall train's phase.
STALL_TAIL_NS = 2500 * USEC

#: Online clock models with the clock soak's tolerances.  The envelope
#: window is 1 ms rather than the soak's 200 us: the soak's 1.2 Mpps chain
#: puts ~240 matched pairs in a window, and at these workloads' 120-300
#: kpps it takes a millisecond to see as many — with fewer, Poisson
#: arrivals alone trip the drift detector on some seeds.
CLOCK_CONFIG = ClockConfig(
    window_ns=1 * MSEC,
    deadband_ns=500,
    drift_tolerance_ppm=200.0,
    step_tolerance_ns=100 * USEC,
    freeze_records=2048,
)


#: Per-stream credit window of the ingest server.  The default 4096 holds
#: 6.8 event-ms of the busiest stream (``vpn1``: 600 records per event-ms
#: at 300 kpps) — barely more than the 6 ms of telemetry a chunk needs
#: before it can seal (1 ms chunk + 5 ms margin) — so any closed-loop
#: sender runs the window dry, and that is where ``repro.net`` can wedge
#: (see ``loadgen.py``).  Four times the default keeps the window out of
#: reach of everything ``loadgen.saturate`` ever has in flight.
SERVER_CAPACITY = 16384


def sender_clock_chaos() -> ClockChaos:
    """Both NF hosts drift, inside the 200 ppm tolerance: every record of
    those streams takes the monotone-repair path and no fault fires."""
    return ClockChaos(
        {
            "nat1": ClockSchedule(kind="drift", ppm=120.0),
            "vpn1": ClockSchedule(kind="drift", ppm=-90.0),
        }
    )


def chain_topology() -> Topology:
    """``src-main -> nat1 -> vpn1 <- src-probe`` (exit after vpn1)."""
    topo = Topology()
    topo.add_nf(Nat("nat1", router=lambda p: "vpn1"))
    topo.add_nf(Vpn("vpn1", router=lambda p: None))
    topo.add_source("src-main")
    topo.add_source("src-probe")
    topo.connect("src-main", "nat1")
    topo.connect("nat1", "vpn1")
    topo.connect("src-probe", "vpn1")
    return topo


def live_service(transport, service_kwargs: dict, state_dir) -> DiagnosisService:
    """The wire workloads' pipeline behind ``transport``: feed -> clocked
    ``IncrementalTrace`` -> live ``DiagnosisService``.  One definition, so
    the program under test and its in-process reference cannot drift
    apart; the feed and builder are ``service.source.feed`` / ``.builder``.
    """
    builder = IncrementalTrace.for_topology(
        chain_topology(),
        IngestConfig(
            chunk_ns=service_kwargs["chunk_ns"],
            seal_margin_ns=service_kwargs["margin_ns"],
            clock=CLOCK_CONFIG,
        ),
    )
    source = LiveTraceSource(TelemetryFeed(transport, FeedConfig()), builder)
    return DiagnosisService(
        source, ServiceConfig(state_dir=state_dir, **service_kwargs)
    )


@dataclass
class ChainRun:
    """One simulated recurring-stall chain run."""

    result: SimResult
    #: Telemetry records in emission (global time) order.
    records: List[TelemetryRecord]
    #: Ground truth: one ``interrupt`` problem per NAT stall.
    problems: List[InjectedProblem]


def stall_chain(
    seed: int,
    main_pps: float,
    probe_pps: float,
    duration_ns: int,
    stall_every_ns: int,
    stall_ns: int,
    poisson: bool,
) -> ChainRun:
    """Two flows through the chain with recurring NAT stalls.

    The seed draws the phase of the stall train (within a tenth of a
    period) and, with ``poisson``, the arrival jitter of both flows; the
    period, the length and therefore the number of stalls are fixed, so
    every seed yields the same amount of work to within sampling noise.
    Poisson arrivals suit the lightly loaded wire chains; at the replay
    workload's 77 % utilisation they would make the victim count swing
    3x between seeds, so there arrivals stay periodic.
    """
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "perfbench-ipids"))
    main = constant_rate_flow(
        MAIN_FLOW, main_pps, duration_ns, pids, ipids,
        jitter_rng=substream(seed, "perfbench-main") if poisson else None,
    )
    probe = constant_rate_flow(
        PROBE_FLOW, probe_pps, duration_ns, pids, ipids,
        jitter_rng=substream(seed, "perfbench-probe") if poisson else None,
    )
    phase_rng = substream(seed, "perfbench-stalls")
    phase = 200 * USEC + int(phase_rng.integers(0, stall_every_ns // 10))
    stalls = [
        InterruptSpec("nat1", at, stall_ns)
        for at in range(phase, duration_ns - STALL_TAIL_NS, stall_every_ns)
    ]
    tap = LiveRecordTap()
    result = Simulator(
        chain_topology(),
        [
            TrafficSource("src-main", main, constant_target("nat1")),
            TrafficSource("src-probe", probe, constant_target("vpn1")),
        ],
        injectors=[InterruptInjector(stalls)],
        extra_hooks=[tap],
    ).run()
    problems = [
        InjectedProblem(
            kind="interrupt",
            at_ns=spec.at_ns,
            horizon_ns=STALL_HORIZON_NS,
            nf=spec.nf,
        )
        for spec in stalls
    ]
    return ChainRun(result=result, records=tap.records, problems=problems)


# -- Fig. 10 post-mortem ---------------------------------------------------------


@dataclass
class TopologyFacts:
    """The static topology knowledge reconstruction and diagnosis need,
    as plain picklable data (a ``Topology`` holds router closures)."""

    edges: List[EdgeSpec]
    peak_rates: Dict[str, float]
    upstreams: Dict[str, set]
    sources: set
    nf_types: Dict[str, str]

    @classmethod
    def of(cls, topology: Topology) -> "TopologyFacts":
        edges = [
            EdgeSpec(src, dst, topology.delay_ns(src, dst))
            for src in sorted(topology.nodes())
            for dst in sorted(topology.successors(src))
        ]
        return cls(
            edges=edges,
            peak_rates=dict(topology.peak_rates_pps()),
            upstreams={
                name: topology.predecessors(name) for name in topology.nfs
            },
            sources=set(topology.sources),
            nf_types=topology.nf_types(),
        )


#: Canonical form of one packet journey, comparable between simulator
#: ground truth and a reconstruction: (exit time, flow, NF path, per-hop
#: (arrival, read) times).
Journey = Tuple[int, Tuple[int, ...], Tuple[str, ...], Tuple[Tuple[int, int], ...]]


@dataclass
class PostmortemRun:
    """One Fig. 10 injected experiment with its collector streams."""

    collector: RuntimeCollector
    facts: TopologyFacts
    problems: List[InjectedProblem]
    #: Ground-truth journeys of every completed packet, exit-ordered.
    truth: List[Journey] = field(default_factory=list)


def truth_journeys(result: SimResult) -> List[Journey]:
    done = sorted(result.completed_packets(), key=lambda p: (p.exited_ns, p.pid))
    return [
        (
            p.exited_ns,
            p.flow.as_tuple(),
            tuple(h.nf for h in p.hops),
            tuple((h.enqueue_ns, h.read_ns) for h in p.hops),
        )
        for p in done
    ]


def rebuilt_journeys(packets: Sequence) -> List[Journey]:
    """Same canonical form over ``TraceReconstructor.reconstruct()`` output."""
    done = sorted(
        (p for p in packets if p.exited_ns >= 0), key=lambda p: p.exited_ns
    )
    return [
        (
            p.exited_ns,
            p.flow.as_tuple(),
            p.nf_path(),
            tuple((h.arrival_ns, h.read_ns) for h in p.hops),
        )
        for p in done
    ]


def fig10_postmortem(
    seed: int,
    rate_pps: float,
    duration_ns: int,
    warmup_ns: int,
    horizon_ns: int,
    n_each: int,
    plan_ranges: Dict[str, Sequence[int]],
) -> PostmortemRun:
    """Paper section 6.2 on the 16-NF chain, with the runtime collector
    attached: ``n_each`` bursts, interrupts and bug triggers in disjoint
    ``horizon_ns`` slots after ``warmup_ns``.  ``plan_ranges`` narrows the
    plan's size draws (burst packets, interrupt length, trigger-flow
    packets) so every seed injects about the same amount of trouble."""
    run = run_injected_experiment(
        rate_pps=rate_pps,
        duration_ns=duration_ns,
        seed=seed,
        with_collector=True,
        plan_kwargs=dict(
            n_bursts=n_each,
            n_interrupts=n_each,
            n_bug_triggers=n_each,
            horizon_ns=horizon_ns,
            warmup_ns=warmup_ns,
            **{key: tuple(value) for key, value in plan_ranges.items()},
        ),
    )
    return PostmortemRun(
        collector=run.collector,
        facts=TopologyFacts.of(run.chain.topology),
        problems=list(run.plan.problems),
        truth=truth_journeys(run.result),
    )
