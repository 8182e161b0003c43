"""Series builders for every figure and table in the paper's evaluation.

Each ``figNN_data`` / ``tableN_data`` function runs the corresponding
experiment at a laptop-friendly scale and returns plain dicts of series —
the benchmark files print them in the paper's row/series format and assert
the qualitative shape.  See DESIGN.md's per-experiment index.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.netmedic import NetMedic, NetMedicConfig
from repro.core.diagnosis import MicroscopeEngine
from repro.core.records import ColumnarNFView, DiagTrace
from repro.core.report import causal_relations, ranked_entities
from repro.core.victims import Victim, VictimSelector
from repro.experiments.accuracy import (
    RankResult,
    associate_victims,
    baseline_ranks,
    correct_rate,
    microscope_ranks,
    rank_curve,
    significant_victims,
    topology_plausibility,
)
from repro.experiments.harness import (
    ExperimentRun,
    run_injected_experiment,
    run_wild_experiment,
)
from repro.experiments.injection import InjectionPlan, standard_plan
from repro.experiments.scenarios import build_single_nf
from repro.nfv.faults import InterruptInjector, InterruptSpec
from repro.nfv.packet import FiveTuple, Packet
from repro.nfv.simulator import Simulator
from repro.nfv.sources import TrafficSource, constant_target
from repro.nfv.topology import Topology
from repro.nfv.nfs import Nat, Monitor, Vpn
from repro.traffic.allocators import IpidSpace, PidAllocator
from repro.traffic.bursts import BurstSpec, inject_bursts
from repro.traffic.caida import CaidaLikeTraffic
from repro.traffic.replay import constant_rate_flow, merge_schedules
from repro.util.arrays import first_codes
from repro.util.rng import substream
from repro.util.stats import cdf_points, rate_series
from repro.util.timebase import MSEC, USEC


def queue_series(view: ColumnarNFView, bin_ns: int = 50 * USEC) -> List[Tuple[int, int]]:
    """(time, queue length) sampled at bin edges from arrival/read streams."""
    if not view.arrivals:
        return []
    arrival_times = [t for t, _ in view.arrivals]
    read_times = [t for t, _ in view.reads]
    end = max(arrival_times[-1], read_times[-1] if read_times else 0)
    series: List[Tuple[int, int]] = []
    t = 0
    while t <= end:
        qlen = bisect.bisect_right(arrival_times, t) - bisect.bisect_right(
            read_times, t
        )
        series.append((t, max(0, qlen)))
        t += bin_ns
    return series


# ---------------------------------------------------------------------------
# Figure 1: a 340 us burst delays flows for ~3 ms at a single Firewall.
# ---------------------------------------------------------------------------

def fig01_data(seed: int = 0) -> Dict[str, object]:
    # Firewall at 0.357 Mpps peak, background at 0.23 Mpps (util 0.64): the
    # 340 us burst builds a queue that then takes ~3-4 ms to drain.
    topo = build_single_nf("firewall", cost_ns=2_800, seed=seed, jitter=0.02)
    fw = next(iter(topo.nfs))
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "fig1-ipids"))
    duration = 6 * MSEC
    background = CaidaLikeTraffic(
        rate_pps=230_000,
        duration_ns=duration,
        seed=seed,
        mean_flow_packets=12,
        max_flow_packets=96,
        burstiness=0.6,
    ).generate(pids, ipids)
    burst_flow = FiveTuple.of("100.0.0.9", "32.0.0.9", 7_777, 9_999)
    # ~340 us burst: packets at 680 ns gaps.
    burst = BurstSpec(flow=burst_flow, at_ns=570 * USEC, n_packets=500, gap_ns=680)
    trace = inject_bursts(background, [burst], pids, ipids)
    source = TrafficSource("src", trace.schedule, constant_target(fw))
    result = Simulator(topo, [source]).run()
    diag = DiagTrace.from_sim_result(result)
    latency = [
        (packet.hops[0].arrival_ns, packet.hops[0].latency_ns)
        for packet in diag.packets.values()
        if packet.hops and packet.flow != burst_flow
    ]
    latency.sort()
    return {
        "burst_window_ns": (burst.at_ns, burst.at_ns + burst.duration_ns),
        "latency_series": latency,  # (arrival ns, firewall latency ns)
        "queue_series": queue_series(diag.nfs[fw]),
        "trace": diag,
    }


# ---------------------------------------------------------------------------
# Figure 2: a NAT interrupt degrades flow A's throughput at the VPN later.
# ---------------------------------------------------------------------------

def fig02_data(seed: int = 0) -> Dict[str, object]:
    topo = Topology()
    # The NAT is much faster than the VPN, so its post-interrupt drain
    # slams the VPN well above the VPN's peak rate (the paper's setting).
    topo.add_nf(Nat("nat1", router=lambda p: "vpn1", cost_ns=400))
    topo.add_nf(Vpn("vpn1", router=lambda p: None, cost_ns=640))
    topo.add_source("src-caida")
    topo.add_source("src-flowA")
    topo.connect("src-caida", "nat1")
    topo.connect("nat1", "vpn1")
    topo.connect("src-flowA", "vpn1")
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "fig2-ipids"))
    duration = 3 * MSEC
    caida = CaidaLikeTraffic(
        rate_pps=1_000_000,
        duration_ns=duration,
        seed=seed,
        mean_flow_packets=16,
        max_flow_packets=128,
        burstiness=0.8,
        flow_rate_pps=120_000,
    ).generate(pids, ipids)
    flow_a = FiveTuple.of("50.0.0.1", "60.0.0.1", 5_555, 443)
    direct = constant_rate_flow(flow_a, 300_000, duration, pids, ipids)
    interrupt = InterruptSpec(nf="nat1", at_ns=500 * USEC, duration_ns=800 * USEC)
    result = Simulator(
        topo,
        [
            TrafficSource("src-caida", caida.schedule, constant_target("nat1")),
            TrafficSource("src-flowA", direct, constant_target("vpn1")),
        ],
        injectors=[InterruptInjector([interrupt])],
    ).run()
    diag = DiagTrace.from_sim_result(result)
    # Throughput at the VPN, split by origin, from VPN departure times.
    flow_a_departs: List[int] = []
    nat_departs: List[int] = []
    for packet in diag.packets.values():
        hop = packet.hop_at("vpn1")
        if hop is None:
            continue
        if packet.flow == flow_a:
            flow_a_departs.append(hop.depart_ns)
        else:
            nat_departs.append(hop.depart_ns)
    bin_ns = 100 * USEC
    return {
        "interrupt_window_ns": (interrupt.at_ns, interrupt.at_ns + interrupt.duration_ns),
        "flow_a_rate": rate_series(flow_a_departs, bin_ns, end_ns=duration),
        "nat_rate": rate_series(nat_departs, bin_ns, end_ns=duration),
        "queue_series": queue_series(diag.nfs["vpn1"]),
        "trace": diag,
        "flow_a": flow_a,
    }


# ---------------------------------------------------------------------------
# Figure 3: equal interrupts at heavy (NAT) and light (Monitor) upstreams
# have different impact on the shared VPN.
# ---------------------------------------------------------------------------

def fig03_data(seed: int = 0) -> Dict[str, object]:
    topo = Topology()
    topo.add_nf(Nat("nat1", router=lambda p: "vpn1", cost_ns=400))
    topo.add_nf(Monitor("mon1", router=lambda p: "vpn1", cost_ns=400))
    topo.add_nf(Vpn("vpn1", router=lambda p: None, cost_ns=1_600, queue_capacity=256))
    topo.add_source("src-nat")
    topo.add_source("src-mon")
    topo.add_source("src-flowA")
    for src, dst in (("src-nat", "nat1"), ("src-mon", "mon1"), ("src-flowA", "vpn1")):
        topo.connect(src, dst)
    topo.connect("nat1", "vpn1")
    topo.connect("mon1", "vpn1")
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "fig3-ipids"))
    duration = 5 * MSEC
    heavy_flow = FiveTuple.of("10.1.0.1", "20.1.0.1", 1_111, 80)
    light_flow = FiveTuple.of("10.2.0.1", "20.2.0.1", 2_222, 80)
    flow_a = FiveTuple.of("50.0.0.1", "60.0.0.1", 5_555, 443)
    heavy = constant_rate_flow(heavy_flow, 250_000, duration, pids, ipids)
    light = constant_rate_flow(light_flow, 50_000, duration, pids, ipids)
    direct = constant_rate_flow(flow_a, 250_000, duration, pids, ipids)
    at = 1_000 * USEC
    interrupts = [
        InterruptSpec(nf="nat1", at_ns=at, duration_ns=1_200 * USEC),
        InterruptSpec(nf="mon1", at_ns=at, duration_ns=1_200 * USEC),
    ]
    result = Simulator(
        topo,
        [
            TrafficSource("src-nat", heavy, constant_target("nat1")),
            TrafficSource("src-mon", light, constant_target("mon1")),
            TrafficSource("src-flowA", direct, constant_target("vpn1")),
        ],
        injectors=[InterruptInjector(interrupts)],
    ).run()
    diag = DiagTrace.from_sim_result(result)
    arrivals_by_origin: Dict[str, List[int]] = {"nat1": [], "mon1": [], "flowA": []}
    drops_by_origin: Dict[str, List[int]] = {"nat1": [], "mon1": [], "flowA": []}
    for packet in diag.packets.values():
        origin = (
            "flowA"
            if packet.flow == flow_a
            else ("nat1" if packet.flow == heavy_flow else "mon1")
        )
        hop = packet.hop_at("vpn1")
        if hop is not None:
            arrivals_by_origin[origin].append(hop.arrival_ns)
        if packet.dropped_at == "vpn1":
            drops_by_origin[origin].append(packet.dropped_ns)
    bin_ns = 100 * USEC
    return {
        "interrupt_at_ns": at,
        "input_rates": {
            origin: rate_series(times, bin_ns, end_ns=duration)
            for origin, times in arrivals_by_origin.items()
        },
        "drops": {origin: len(times) for origin, times in drops_by_origin.items()},
        "drop_times": drops_by_origin,
        "trace": diag,
    }


# ---------------------------------------------------------------------------
# Figures 11-13: diagnostic accuracy against NetMedic.
# ---------------------------------------------------------------------------

@dataclass
class AccuracyData:
    """Shared artefacts for the accuracy figures."""

    run: ExperimentRun
    pairs: List[Tuple[Victim, object]]
    microscope: List[RankResult]
    netmedic: List[RankResult]

    def microscope_curve(self) -> List[Tuple[float, int]]:
        return rank_curve(self.microscope)

    def netmedic_curve(self) -> List[Tuple[float, int]]:
        return rank_curve(self.netmedic)


def accuracy_data(
    seed: int = 0,
    duration_ns: int = 320 * MSEC,
    n_bursts: int = 5,
    n_interrupts: int = 5,
    n_bug_triggers: int = 5,
    max_per_problem: int = 40,
    netmedic_window_ns: int = 10 * MSEC,
    victim_pct: float = 99.5,
) -> AccuracyData:
    """Run the section 6.2 methodology once; reused by Figures 11-13."""
    run = run_injected_experiment(
        duration_ns=duration_ns,
        seed=seed,
        plan_kwargs=dict(
            n_bursts=n_bursts,
            n_interrupts=n_interrupts,
            n_bug_triggers=n_bug_triggers,
        ),
    )
    selector = VictimSelector(run.trace)
    victims = significant_victims(
        run.trace,
        selector.hop_latency_victims(pct=victim_pct) + selector.drop_victims(),
    )
    pairs = associate_victims(
        victims,
        run.plan,
        max_per_problem=max_per_problem,
        plausible=topology_plausibility(run.trace),
    )
    engine = MicroscopeEngine(run.trace)
    microscope = microscope_ranks(engine, run.trace, pairs)
    netmedic = NetMedic(run.trace, NetMedicConfig(window_ns=netmedic_window_ns))
    netmedic_results = baseline_ranks(netmedic, pairs, run.source_name)
    return AccuracyData(
        run=run, pairs=pairs, microscope=microscope, netmedic=netmedic_results
    )


def fig11_data(data: AccuracyData) -> Dict[str, object]:
    return {
        "microscope_curve": data.microscope_curve(),
        "netmedic_curve": data.netmedic_curve(),
        "microscope_correct": correct_rate(data.microscope),
        "netmedic_correct": correct_rate(data.netmedic),
        "n_victims": len(data.pairs),
    }


def fig12_data(data: AccuracyData) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for kind in ("burst", "interrupt", "bug"):
        micro = [r for r in data.microscope if r.problem.kind == kind]
        net = [r for r in data.netmedic if r.problem.kind == kind]
        out[kind] = {
            "microscope_curve": rank_curve(micro),
            "netmedic_curve": rank_curve(net),
            "microscope_correct": correct_rate(micro),
            "netmedic_correct": correct_rate(net),
            "n_victims": len(micro),
        }
    return out


def fig13_data(
    data: AccuracyData, window_ms: Sequence[float] = (0.2, 1, 5, 10, 50)
) -> Dict[float, float]:
    """NetMedic correct rate versus time-window size.

    The paper's optimum sits at 10 ms on its testbed; our simulated
    timescales are compressed (drains last a few ms, not tens), so the
    sweep extends below 1 ms to bracket the optimum on both sides.
    """
    out: Dict[float, float] = {}
    for ms in window_ms:
        netmedic = NetMedic(
            data.run.trace, NetMedicConfig(window_ns=int(ms * MSEC))
        )
        results = baseline_ranks(netmedic, data.pairs, data.run.source_name)
        out[ms] = correct_rate(results)
    return out


# ---------------------------------------------------------------------------
# Section 6.3 sensitivity sweeps.
# ---------------------------------------------------------------------------

def sweep_burst_sizes(
    sizes: Sequence[int] = (200, 1_000, 2_500, 5_000),
    seed: int = 0,
    duration_ns: int = 120 * MSEC,
) -> Dict[int, float]:
    """Microscope correct rate versus injected burst size."""
    out: Dict[int, float] = {}
    for i, size in enumerate(sizes):
        run = run_injected_experiment(
            duration_ns=duration_ns,
            seed=seed + i,
            plan_kwargs=dict(
                n_bursts=3,
                n_interrupts=0,
                n_bug_triggers=0,
                burst_packets=(size, size),
                warmup_ns=15 * MSEC,
            ),
        )
        selector = VictimSelector(run.trace)
        victims = selector.hop_latency_victims(pct=99.5) + selector.drop_victims()
        pairs = associate_victims(
            victims, run.plan, max_per_problem=40,
            plausible=topology_plausibility(run.trace),
        )
        engine = MicroscopeEngine(run.trace)
        out[size] = correct_rate(microscope_ranks(engine, run.trace, pairs))
    return out


def sweep_interrupt_lengths(
    lengths_us: Sequence[int] = (300, 600, 1_000, 1_500),
    seed: int = 0,
    duration_ns: int = 120 * MSEC,
) -> Dict[int, float]:
    """Microscope correct rate versus injected interrupt length."""
    out: Dict[int, float] = {}
    for i, us in enumerate(lengths_us):
        run = run_injected_experiment(
            duration_ns=duration_ns,
            seed=seed + i,
            plan_kwargs=dict(
                n_bursts=0,
                n_interrupts=4,
                n_bug_triggers=0,
                interrupt_us=(us, us),
                warmup_ns=15 * MSEC,
            ),
        )
        selector = VictimSelector(run.trace)
        victims = selector.hop_latency_victims(pct=99.5) + selector.drop_victims()
        pairs = associate_victims(
            victims, run.plan, max_per_problem=40,
            plausible=topology_plausibility(run.trace),
        )
        engine = MicroscopeEngine(run.trace)
        out[us] = correct_rate(microscope_ranks(engine, run.trace, pairs))
    return out


def sweep_propagation_hops(
    data: AccuracyData, max_per_bucket: int = 25, victim_pct: float = 99.0
) -> Dict[int, float]:
    """Microscope correct rate versus culprit-to-victim hop distance.

    Hop distance is measured on the NF graph between the injected culprit
    NF and the victim NF (0 = same NF).  Burst problems are excluded: the
    source is outside the NF graph.  Victims are re-sampled per (problem,
    distance) bucket so multi-hop victims are represented even though the
    main accuracy run caps victims per problem.
    """
    trace = data.run.trace
    # Shortest downstream distance from every NF via BFS on the DAG.
    children: Dict[str, List[str]] = defaultdict(list)
    for nf, ups in trace.upstreams.items():
        for up in ups:
            children[up].append(nf)

    def distance(src: str, dst: str) -> Optional[int]:
        if src == dst:
            return 0
        frontier = [(src, 0)]
        seen = {src}
        while frontier:
            node, d = frontier.pop(0)
            for child in children.get(node, ()):  # DAG, small
                if child == dst:
                    return d + 1
                if child not in seen:
                    seen.add(child)
                    frontier.append((child, d + 1))
        return None

    selector = VictimSelector(trace)
    victims = significant_victims(
        trace,
        selector.hop_latency_victims(pct=victim_pct) + selector.drop_victims(),
    )
    pairs = associate_victims(
        victims, data.run.plan, plausible=topology_plausibility(trace)
    )
    sampled: List = []
    counts: Dict[Tuple[int, int], int] = defaultdict(int)
    hop_of: Dict[int, int] = {}
    for index, (victim, problem) in enumerate(pairs):
        if problem.kind == "burst" or problem.nf is None:
            continue
        hops = distance(problem.nf, victim.nf)
        if hops is None:
            continue
        key = (id(problem), hops)
        if counts[key] >= max_per_bucket:
            continue
        counts[key] += 1
        hop_of[len(sampled)] = hops
        sampled.append((victim, problem))

    engine = MicroscopeEngine(trace)
    results = microscope_ranks(engine, trace, sampled)
    buckets: Dict[int, List[RankResult]] = defaultdict(list)
    for index, result in enumerate(results):
        buckets[hop_of[index]].append(result)
    return {hops: correct_rate(items) for hops, items in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# Section 6.4 / Figure 14: pattern aggregation effectiveness.
# ---------------------------------------------------------------------------

def fig14_data(
    seed: int = 0,
    duration_ns: int = 150 * MSEC,
    threshold_fraction: float = 0.01,
) -> Dict[str, object]:
    """Bug-triggering flows (ports 2000-2008 -> 6000-6008) surfacing as
    culprit patterns, with aggregation statistics."""
    from repro.aggregation.patterns import PatternAggregator
    from repro.experiments.scenarios import build_fig10_chain
    from repro.nfv.faults import BugSpec
    from repro.traffic.workloads import steady_caida
    from repro.experiments.harness import MODERATE_CAIDA, _run

    chain = build_fig10_chain(seed=seed)
    template = FiveTuple.of("100.0.0.1", "32.0.0.1", 2_000, 6_000)

    # The paper's nine trigger port pairs (2000-2008 -> 6000-6008).  The
    # bug lives at whichever firewall the flow-hash tiers route most of
    # these pairs to ("Firewall 2" in the paper's deployment).
    candidates = [
        FiveTuple(template.src_ip, template.dst_ip, 2_000 + i, 6_000 + i, 6)
        for i in range(9)
    ]
    placement = Counter(chain.firewall_of(flow) for flow in candidates)
    bug_fw = placement.most_common(1)[0][0]
    bug_flows = [flow for flow in candidates if chain.firewall_of(flow) == bug_fw]

    plan = InjectionPlan()
    rng = substream(seed, "fig14")
    at = 20 * MSEC
    while at < duration_ns - 10 * MSEC:
        flow = bug_flows[int(rng.integers(0, len(bug_flows)))]
        size = int(rng.integers(50, 151))
        plan.bug_trigger_bursts.append(
            BurstSpec(flow=flow, at_ns=at, n_packets=size, gap_ns=5 * USEC)
        )
        at += 12 * MSEC
    frozen = frozenset(bug_flows)
    plan.bugs.append(
        BugSpec(nf=bug_fw, predicate=lambda f, _s=frozen: f in _s, slow_ns=20_000)
    )
    workload = steady_caida(
        rate_pps=1_200_000.0, duration_ns=duration_ns, seed=seed, **MODERATE_CAIDA
    )
    from repro.traffic.workloads import Workload

    trace = inject_bursts(
        workload.trace, plan.all_burst_specs(), workload.pids, workload.ipids
    )
    workload = Workload(trace=trace, pids=workload.pids, ipids=workload.ipids, seed=seed)
    run = _run(chain, workload, plan)

    selector = VictimSelector(run.trace)
    victims = selector.hop_latency_victims(pct=99.0) + selector.drop_victims()
    engine = MicroscopeEngine(run.trace)
    diagnoses = engine.diagnose_all(victims)
    relations = causal_relations(diagnoses, run.trace)
    aggregator = PatternAggregator(
        nf_types=run.trace.nf_types, threshold_fraction=threshold_fraction
    )
    result = aggregator.aggregate(relations)
    bug_patterns = [
        p
        for p in result.patterns
        if str(p.culprit_location) == bug_fw
        and any(p.culprit.matches(flow) for flow in frozen)
    ]
    return {
        "n_relations": len(relations),
        "n_patterns": len(result.patterns),
        "runtime_s": result.runtime_s,
        "patterns": result.patterns,
        "bug_patterns": bug_patterns,
        "bug_fw": bug_fw,
        "bug_flows": sorted(frozen),
        "trace": run.trace,
    }


# ---------------------------------------------------------------------------
# Section 6.5 / Figure 15 / Tables 2-3: running in the wild.
# ---------------------------------------------------------------------------

def _sums_by_first_occurrence(keys, weights) -> Tuple[List[int], List[float]]:
    """Distinct ``keys`` in first-occurrence order, each with its weights
    summed in row order."""
    code, first = first_codes(keys)
    sums = np.bincount(code, weights=weights, minlength=len(first))
    return keys[first].tolist(), sums.tolist()


def wild_data(
    seed: int = 0,
    duration_ns: int = 200 * MSEC,
    victim_pct: float = 99.9,
    max_victims: int = 600,
) -> Dict[str, object]:
    run = run_wild_experiment(duration_ns=duration_ns, seed=seed)
    selector = VictimSelector(run.trace)
    victims = selector.hop_latency_victims(pct=victim_pct) + selector.drop_victims()
    victims = victims[:max_victims]
    engine = MicroscopeEngine(run.trace)
    diagnoses = engine.diagnose_all(victims)
    relations = causal_relations(diagnoses, run.trace)

    nf_types = dict(run.trace.nf_types)
    type_of = lambda loc: nf_types.get(loc, "source")

    # Relation columns: per-row culprit and victim types as codes.  Sums
    # run in relation order (``bincount``, ``cumsum``), and keys come out
    # in first-occurrence order, as the per-relation dict loops had them.
    types = [type_of(name) for name in relations.locations]
    type_names = list(dict.fromkeys(types))
    type_code = np.array([type_names.index(t) for t in types], dtype=np.int64)
    culprit_types = type_code[relations.culprit_location]
    victim_types = type_code[relations.victim_location]
    score = relations.score

    # Table 2: culprit type x victim type, weighted by relation score.
    pairs, sums = _sums_by_first_occurrence(
        culprit_types * len(type_names) + victim_types, score
    )
    total_score = float(np.cumsum(score)[-1]) if len(score) else 0.0
    table2 = {
        (type_names[pair // len(type_names)], type_names[pair % len(type_names)]): (
            value / total_score if total_score else 0.0
        )
        for pair, value in zip(pairs, sums)
    }

    # Propagation shares: culprit and victim at different NFs.
    propagation = sum(
        share
        for (culprit_type, victim_type), share in table2.items()
        if culprit_type != victim_type or culprit_type == "source"
    )
    # Distinct-location accounting for multi-hop:
    cross_nf = 0.0
    two_hop = 0.0
    order = {"source": 0, "nat": 1, "firewall": 2, "monitor": 3, "vpn": 4}
    for (culprit_type, victim_type), share in table2.items():
        if culprit_type == victim_type:
            continue
        cross_nf += share
        if abs(order.get(victim_type, 0) - order.get(culprit_type, 0)) >= 2:
            two_hop += share

    # Table 3: per-NAT-instance culprit frequency.
    nat = np.array([t == "nat" for t in types], dtype=bool)[relations.culprit_location]
    shares = score[nat] / total_score if total_score else np.zeros(int(nat.sum()))
    pairs, sums = _sums_by_first_occurrence(
        relations.culprit_location[nat] * len(type_names) + victim_types[nat], shares
    )
    nat_rows: Dict[str, Dict[str, float]] = defaultdict(dict)
    for pair, value in zip(pairs, sums):
        location = relations.locations[pair // len(type_names)]
        nat_rows[location][type_names[pair % len(type_names)]] = value
    # Traffic split per NAT for the evenness claim.
    nat_traffic = Counter()
    for packet in run.trace.packets.values():
        for hop in packet.hops:
            if nf_types.get(hop.nf) == "nat":
                nat_traffic[hop.nf] += 1

    gaps_ms = (relations.gap_ns / MSEC).tolist()
    return {
        "table2": dict(table2),
        "cross_nf_share": cross_nf,
        "two_hop_share": two_hop,
        "table3": {nat: dict(row) for nat, row in nat_rows.items()},
        "nat_traffic": dict(nat_traffic),
        "gap_cdf_ms": cdf_points(gaps_ms),
        "n_victims": len(victims),
        "n_relations": len(relations),
        "trace": run.trace,
        "noise_events": len(run.noise.fired) if run.noise else 0,
    }
