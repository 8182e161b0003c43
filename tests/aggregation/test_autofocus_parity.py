"""Int-coded AutoFocus against the object oracle, score for score.

``MultiAutoFocus.run`` numbers each dimension's nodes, accumulates combos
as tuples of codes and applies residual containment as one mask per
reported cluster.  Its clusters must equal those of the object code in
``tests/oracles/autofocus.py`` — same nodes, same order, ``weight`` and
``residual`` equal by ``float.hex`` — for random items, and whole
``PatternAggregator`` runs must agree on the Fig. 14 and Fig. 10
post-mortem fixtures.  A wall-clock-free guard pins the cost of the
compression pass: ``contains_node`` is called per reported cluster and
distinct node, not per candidate pair.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.autofocus import MultiAutoFocus
from repro.aggregation.hierarchy import (
    BinaryPortNode,
    LocationNode,
    PortNode,
    PrefixNode,
    ProtoNode,
    ancestors,
)
from repro.aggregation.patterns import PatternAggregator, _flow_leaf_nodes
from repro.collector.reconstruct import EdgeSpec, TraceReconstructor
from repro.core import DiagTrace, MicroscopeEngine, VictimSelector, causal_relations
from repro.experiments.figures import fig14_data
from repro.experiments.harness import run_injected_experiment
from repro.nfv.packet import FiveTuple
from repro.util.rng import generator
from repro.util.timebase import MSEC
from tests.oracles.autofocus import OracleMultiAutoFocus, aggregating_through

TYPES = {"nat1": "nat", "nat2": "nat", "fw1": "firewall", "fw2": "firewall",
         "mon1": "monitor", "vpn1": "vpn"}


def leaf_nodes(adaptive):
    def to_nodes(item):
        flow, location = item
        return _flow_leaf_nodes(flow, adaptive) + (
            LocationNode.leaf(location, TYPES.get(location, "source")),
        )

    return to_nodes


def clusters_of(clusters):
    return [
        (cluster.nodes, cluster.weight.hex(), cluster.residual.hex())
        for cluster in clusters
    ]


def patterns_of(result):
    return [(str(p), p.score.hex()) for p in result.patterns], result.n_intermediate


def assert_same_run(autofocus_kwargs, items, threshold):
    ours = MultiAutoFocus(**autofocus_kwargs).run(items, threshold=threshold)
    theirs = OracleMultiAutoFocus(**autofocus_kwargs).run(items, threshold=threshold)
    assert clusters_of(ours) == clusters_of(theirs)
    return ours


ip = st.builds(
    lambda base, low: (base << 24) | low,
    st.sampled_from([10, 100, 151, 203]),
    st.sampled_from([0, 1, 0x010203, 0x0A0B0C, 0xFFFFFF]) | st.integers(0, 0xFFFFFF),
)
port = st.sampled_from([53, 80, 443, 2000, 2001, 2008, 6000]) | st.integers(0, 65_535)
flow = st.none() | st.builds(
    FiveTuple, ip, ip, port, port, st.sampled_from([6, 17])
)
item = st.tuples(st.tuples(flow, st.sampled_from(sorted(TYPES) + ["src"])),
                 st.floats(0.01, 1_000.0))


class TestRunParity:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        items=st.lists(item, min_size=1, max_size=40),
        adaptive=st.booleans(),
        fraction=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
        absolute=st.none() | st.floats(0.5, 500.0),
        max_combos=st.sampled_from([4, 64, 4_096]),
    )
    def test_same_clusters_bit_for_bit(self, items, adaptive, fraction, absolute, max_combos):
        assert_same_run(
            dict(
                to_leaf_nodes=leaf_nodes(adaptive),
                threshold_fraction=fraction,
                max_combos_per_item=max_combos,
            ),
            items,
            absolute,
        )

    def test_trimmed_items_match(self):
        """Twelve dimensions with a small combo cap: every item is trimmed."""
        rng = generator(11)

        def to_nodes(item):
            culprit, victim = item
            return leaf_nodes(False)(culprit) + leaf_nodes(True)(victim)

        items = []
        for _ in range(16):
            pair = []
            for _side in range(2):
                flow = FiveTuple(
                    int(rng.integers(0, 1 << 32)),
                    int(rng.integers(0, 1 << 32)),
                    int(rng.integers(0, 1 << 16)),
                    int(rng.choice([80, 443, 53])),
                    6,
                )
                pair.append((flow, str(rng.choice(sorted(TYPES)))))
            items.append((tuple(pair), float(rng.uniform(0.1, 50.0))))
        clusters = assert_same_run(
            dict(to_leaf_nodes=to_nodes, threshold_fraction=0.02,
                 max_combos_per_item=64),
            items,
            None,
        )
        assert clusters


@pytest.fixture(scope="module")
def fig14_relations():
    captured = []
    aggregate = PatternAggregator.aggregate

    def spy(self, relations):
        captured.append(list(relations))
        return aggregate(self, relations)

    with mock.patch.object(PatternAggregator, "aggregate", spy):
        data = fig14_data(seed=3, duration_ns=32 * MSEC)
    return captured[0], data["trace"].nf_types


@pytest.fixture(scope="module")
def postmortem_relations():
    """The offline post-mortem in miniature: Fig. 10 chain, collector
    records, reconstruction, diagnosis."""
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
    packets = TraceReconstructor(run.collector.data, edges).reconstruct()
    trace = DiagTrace.from_reconstruction(
        packets,
        peak_rates=dict(topology.peak_rates_pps()),
        upstreams={name: topology.predecessors(name) for name in topology.nfs},
        sources=set(topology.sources),
        nf_types=topology.nf_types(),
    )
    selector = VictimSelector(trace)
    victims = selector.hop_latency_victims(pct=99.0) + selector.drop_victims()
    diagnoses = MicroscopeEngine(trace).diagnose_all(victims)
    return causal_relations(diagnoses, trace), trace.nf_types


class TestAggregatorParity:
    @pytest.mark.parametrize(
        "fixture, adaptive",
        [
            ("fig14_relations", False),
            ("postmortem_relations", False),
            ("postmortem_relations", True),
        ],
    )
    def test_decoupled(self, request, fixture, adaptive):
        relations, nf_types = request.getfixturevalue(fixture)
        assert len(relations) > 100
        aggregator = PatternAggregator(nf_types, adaptive_ports=adaptive)
        ours = aggregator.aggregate(relations)
        with aggregating_through():
            theirs = aggregator.aggregate(relations)
        assert ours.patterns
        assert patterns_of(ours) == patterns_of(theirs)

    def test_single_pass(self, postmortem_relations):
        """Twelve dimensions at once; a slice keeps the reference quick."""
        relations, nf_types = postmortem_relations
        aggregator = PatternAggregator(nf_types, threshold_fraction=0.05)
        ours = aggregator.aggregate_single_pass(relations[:400])
        with aggregating_through():
            theirs = aggregator.aggregate_single_pass(relations[:400])
        assert ours.patterns
        assert patterns_of(ours) == patterns_of(theirs)


def victim_group(n=51, seed=29):
    """A phase-1 victim group shaped like the heaviest one of the
    ``offline-postmortem`` workload: 51 victim (flow, NF) leaves with a
    heavy-tailed score and a global threshold near 1.2 % of the group."""
    rng = generator(seed)
    locations = ["nat1", "nat2", "fw1", "fw2", "mon1", "vpn1"]
    items = []
    for _ in range(n):
        flow = FiveTuple(
            (int(rng.choice([10, 100, 151, 203])) << 24)
            | int(rng.integers(0, 1 << 24)),
            (int(rng.choice([13, 32, 199])) << 24) | int(rng.integers(0, 1 << 24)),
            int(rng.integers(1_024, 65_536)),
            int(rng.choice([53, 80, 443, 443, 80, 8080, int(rng.integers(0, 65_536))])),
            int(rng.choice([6, 6, 6, 17])),
        )
        weight = float(rng.lognormal(5.5, 1.6))
        items.append(((flow, str(rng.choice(locations))), weight))
    total = sum(weight for _item, weight in items)
    return items, 0.012 * total


class TestCompressionCost:
    def test_contains_node_calls_bounded_by_reported_times_nodes(self):
        items, threshold = victim_group()
        to_nodes = leaf_nodes(False)
        calls = [0]

        def counting(original):
            def contains_node(self, other):
                calls[0] += 1
                return original(self, other)

            return contains_node

        node_types = (PrefixNode, PortNode, BinaryPortNode, ProtoNode, LocationNode)
        patches = [
            mock.patch.object(cls, "contains_node", counting(cls.contains_node))
            for cls in node_types
        ]
        for patch in patches:
            patch.start()
        try:
            clusters = MultiAutoFocus(to_leaf_nodes=to_nodes).run(
                items, threshold=threshold
            )
        finally:
            for patch in patches:
                patch.stop()
        leaves = [to_nodes(item) for item, _weight in items]
        distinct = sum(
            len({node for leaf in leaves for node in ancestors(leaf[d])})
            for d in range(len(leaves[0]))
        )
        assert len(clusters) > 10
        assert calls[0] <= len(clusters) * distinct, (calls[0], len(clusters), distinct)
