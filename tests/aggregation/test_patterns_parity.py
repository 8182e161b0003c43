"""Segmented pattern aggregation against the per-group reference.

``PatternAggregator`` runs phase 1 over all culprit groups and phase 2
over all victim aggregates in one array pass each.  Its patterns must
equal those of the per-group dict code in ``tests/oracles/patterns.py``
— pattern strings, order, ``score`` by ``float.hex`` and
``n_intermediate`` — on random relations (no-flow culprits, singleton,
sub-threshold and dispersed groups, repeated keys, static and adaptive
ports), on the Fig. 14 fixture with adaptive ports, and on a
twelve-dimension single pass whose per-dimension node counts multiply
past 2**63.  On "caterpillar" victim groups, whose chains run deep on
every dimension, every group whose total reaches its threshold reports a
cluster of its own, whatever the combo cap.  Both sides sum every float
total in order, so their output does not depend on the float rule the
builtin ``sum`` has (plain, or
compensated from CPython 3.12): ``tests.oracles.sums.summing_as``
emulates either, and patterns and clusters must be the same under both,
also on sub-threshold group totals and nested clusters where a
compensated total would differ.  Wall-clock-free guards
pin the cost: a constant number of dimension setups per ``aggregate``,
no ``itertools.product``, and no memory kept across calls.
"""

import gc
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.aggregation import autofocus
from repro.aggregation.autofocus import Lattice, MultiAutoFocus
from repro.aggregation.hierarchy import LocationNode, PrefixNode
from repro.aggregation.patterns import PatternAggregator, _flow_leaf_nodes
from repro.core.report import CausalRelation, RelationColumns
from repro.nfv.packet import FiveTuple
from repro.util.arrays import sum_in_order
from repro.util.rng import generator
from tests.aggregation.test_autofocus_parity import (  # noqa: F401
    fig14_relations,
    postmortem_relations,
)
from tests.oracles import autofocus as oracle_autofocus
from tests.oracles import patterns as oracle_patterns
from tests.oracles.autofocus import OracleMultiAutoFocus
from tests.oracles.patterns import OraclePatternAggregator
from tests.oracles.sums import neumaier_sum, summing_as

NF_TYPES = {"nat1": "nat", "nat2": "nat", "fw1": "firewall", "vpn1": "vpn"}
LOCATIONS = sorted(NF_TYPES) + ["src-a"]


def patterns_of(result):
    return [(str(p), p.score.hex()) for p in result.patterns], result.n_intermediate


def assert_same(relations, nf_types=NF_TYPES, **kwargs):
    ours = PatternAggregator(nf_types, **kwargs).aggregate(relations)
    theirs = OraclePatternAggregator(nf_types, **kwargs).aggregate(relations)
    assert patterns_of(ours) == patterns_of(theirs)
    assert ours.n_relations == theirs.n_relations
    return ours


def caterpillar_group(culprit, ranks, weights):
    """Victims whose four deep dimensions (IPs, and ports when adaptive)
    each put every victim on its own long chain of one-bit values: a
    victim's kept ancestors run from its leaf through every heavier
    prefix up to the root, so a group above the threshold has a cluster
    only because every item keeps its root on every dimension."""
    src, dst, src_port, dst_port = (
        [1 << (bits - 1 - r % bits) for r in perm]
        for perm, bits in zip(ranks, (32, 32, 16, 16))
    )
    return [
        CausalRelation(
            culprit, "fw1", FiveTuple(src[i], dst[i], src_port[i], dst_port[i], 6),
            "fw1", weight, 0, "local",
        )
        for i, weight in enumerate(weights)
    ]


ip = st.builds(
    lambda base, low: (base << 24) | low,
    st.sampled_from([10, 100, 151]),
    st.sampled_from([0, 1, 0x010203]) | st.integers(0, 0xFFFFFF),
)
port = st.sampled_from([53, 80, 443, 2000, 2001, 2008]) | st.integers(0, 65_535)
flow = st.builds(FiveTuple, ip, ip, port, port, st.sampled_from([6, 17]))
score = st.floats(0.001, 100.0) | st.sampled_from([0.0, 0.1, 1 / 3, 5.0])


@st.composite
def relation_lists(draw):
    culprits = draw(
        st.lists(
            st.tuples(st.none() | flow, st.sampled_from(LOCATIONS)),
            min_size=1, max_size=8, unique=True,
        )
    )
    victims = draw(
        st.lists(st.tuples(flow, st.sampled_from(LOCATIONS)), min_size=1, max_size=12)
    )
    relations = [
        CausalRelation(c_flow, c_loc, v_flow, v_loc, draw(score), 0, "local")
        for (c_flow, c_loc), (v_flow, v_loc) in draw(
            st.lists(
                st.tuples(st.sampled_from(culprits), st.sampled_from(victims)),
                min_size=1, max_size=60,
            )
        )
    ]
    if draw(st.booleans()):
        k = draw(st.integers(10, 24))
        ranks = [draw(st.permutations(range(k))) for _ in range(4)]
        weights = draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k))
        culprit = FiveTuple.of("203.0.0.1", "32.0.0.1", 4_000, 80)
        group = caterpillar_group(culprit, ranks, weights)
        at = draw(st.integers(0, len(relations)))
        relations[at:at] = group
    return relations


class TestAggregateParity:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        relations=relation_lists(),
        fraction=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]),
        adaptive=st.booleans(),
    )
    def test_same_patterns_as_per_group_code(self, relations, fraction, adaptive):
        ours = assert_same(relations, threshold_fraction=fraction, adaptive_ports=adaptive)
        columns = PatternAggregator(
            NF_TYPES, threshold_fraction=fraction, adaptive_ports=adaptive
        ).aggregate(RelationColumns.of(relations))
        assert patterns_of(columns) == patterns_of(ours)

    def test_dispersed_group_keeps_its_own_cluster(self):
        """A 25-victim caterpillar group above the threshold is reported
        through its own phase-1 clusters, not only inside the all-root
        victim aggregate."""
        rng = generator(1)
        k = 25
        ranks = [rng.permutation(k).tolist() for _ in range(4)]
        weights = rng.uniform(0.5, 1.5, k).tolist()
        culprit = FiveTuple.of("203.0.0.1", "32.0.0.1", 4_000, 80)
        relations = caterpillar_group(culprit, ranks, weights)
        result = assert_same(relations, threshold_fraction=0.3, adaptive_ports=True)
        assert {str(p.culprit) for p in result.patterns} == {
            "203.0.0.1/32 32.0.0.1/32 6 4000 80"
        }
        roots = [
            p for p in result.patterns
            if str(p.victim) == "* * * * *" and str(p.victim_location) == "*"
        ]
        assert not roots

    def test_fig14_adaptive_ports(self, fig14_relations):  # noqa: F811
        relations, nf_types = fig14_relations
        assert assert_same(relations, nf_types, adaptive_ports=True).patterns


@st.composite
def caterpillar_sets(draw):
    """One to four caterpillar groups of 2 to 24 victims, one culprit each."""
    groups = []
    for g in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, 24))
        ranks = [draw(st.permutations(range(k))) for _ in range(4)]
        weights = draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k))
        culprit = FiveTuple.of(f"203.0.0.{g + 1}", "32.0.0.1", 4_000, 80)
        groups.append(caterpillar_group(culprit, ranks, weights))
    return groups


class TestEveryGroupClusters:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        groups=caterpillar_sets(),
        fraction=st.sampled_from([0.05, 0.3, 1.0]),
        own=st.lists(st.booleans(), min_size=4, max_size=4),
        adaptive=st.booleans(),
        max_combos=st.sampled_from([4, 64, 4_096]),
    )
    def test_groups_reaching_the_threshold_report(
        self, groups, fraction, own, adaptive, max_combos
    ):
        """Phase 1's victim AutoFocus over caterpillar groups, each against
        the global threshold or its own total: every group whose total
        reaches its threshold yields a cluster, and every cluster's
        residual reaches its group's threshold."""
        relations = [r for group in groups for r in group]
        leaves = [
            _flow_leaf_nodes(r.victim_flow, adaptive)
            + (LocationNode.leaf(r.victim_location, NF_TYPES[r.victim_location]),)
            for r in relations
        ]
        lattices = [Lattice.of_nodes([leaf[d] for leaf in leaves]) for d in range(6)]
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        weights = np.array([r.score for r in relations])
        total = np.bincount(group, weights=weights)
        threshold = np.where(
            own[: len(groups)], total, fraction * sum_in_order(weights.tolist())
        )
        found = autofocus.segmented_autofocus(lattices, weights, group, threshold, max_combos)
        reaching = np.flatnonzero(total >= threshold)
        assert set(reaching.tolist()) <= set(found.group.tolist())
        assert (found.residual >= threshold[found.group]).all()


class TestBuiltinSumRule:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        relations=relation_lists(),
        fraction=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
        adaptive=st.booleans(),
        compensated=st.booleans(),
    )
    def test_same_patterns_under_either_rule(self, relations, fraction, adaptive, compensated):
        with summing_as(compensated):
            assert_same(relations, threshold_fraction=fraction, adaptive_ports=adaptive)

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_sub_threshold_group_totals(self, seed):
        """Two culprits below the threshold, four victims each, merged in
        phase 2: their intermediates carry the total of four non-dyadic
        scores, which a compensated sum gives differently (the reference
        summing so disagrees).  Under either builtin rule the patterns are
        the same and equal the reference."""
        rng = generator(seed)
        victims = [FiveTuple.of(f"100.0.{i}.1", "32.0.0.1", 2_000 + i, 80) for i in range(4)]
        relations = [
            CausalRelation(
                FiveTuple.of(f"10.0.0.{c + 1}", "20.0.0.1", 1_000 + c, 80), "fw1",
                victim, "vpn1", float(rng.uniform(0.1, 0.5)), 0, "local",
            )
            for c in range(2)
            for victim in victims
        ]
        heavy = FiveTuple.of("151.0.0.1", "20.0.0.9", 9, 9)
        relations.append(CausalRelation(heavy, "fw1", victims[0], "fw1", 2.0, 0, "local"))
        outputs = []
        for compensated in (False, True):
            with summing_as(compensated):
                outputs.append(patterns_of(assert_same(relations, threshold_fraction=0.3)))
        assert outputs[0] == outputs[1]
        with mock.patch.object(oracle_patterns, "plain_sum", neumaier_sum):
            summed = OraclePatternAggregator(NF_TYPES, threshold_fraction=0.3)
            assert patterns_of(summed.aggregate(relations)) != outputs[0]

    @pytest.mark.parametrize("seed", [356, 360, 378])
    def test_nested_clusters(self, seed):
        """A few heavy addresses, each a reported cluster, and many light
        ones only broad prefixes collect: a broad cluster's explained
        weight sums three or more non-dyadic residuals, which a
        compensated sum gives differently (the reference summing so
        disagrees).  Under either builtin rule, ``run`` returns the same
        clusters and equals the reference."""
        rng = generator(seed)
        k = int(rng.integers(4, 9))
        ips = [int(rng.integers(1, 250)) << 24 | int(rng.integers(1 << 24)) for _ in range(k)]
        weights = [float(rng.uniform(1, 10) * 10.0 ** rng.integers(-2, 3)) for _ in range(k)]
        threshold = min(weights) * 0.9
        m = int(rng.integers(5, 40))
        ips += [int(rng.integers(1, 250)) << 24 | int(rng.integers(1 << 24)) for _ in range(m)]
        weights += [float(rng.uniform(0.01, 0.2) * threshold) for _ in range(m)]
        items = list(zip(ips, weights))
        config = dict(to_leaf_nodes=lambda ip: (PrefixNode.leaf(ip),))

        def clusters_of(out):
            return [(str(c), c.weight.hex(), c.residual.hex()) for c in out]

        outputs = []
        for compensated in (False, True):
            with summing_as(compensated):
                ours = clusters_of(MultiAutoFocus(**config).run(items, threshold=threshold))
                theirs = OracleMultiAutoFocus(**config).run(items, threshold=threshold)
            assert ours == clusters_of(theirs)
            outputs.append(ours)
        assert outputs[0] == outputs[1]
        with mock.patch.object(oracle_autofocus, "plain_sum", neumaier_sum):
            summed = OracleMultiAutoFocus(**config).run(items, threshold=threshold)
        assert clusters_of(summed) != outputs[0]
        differ = [c for c in summed if clusters_of([c])[0] not in outputs[0]]
        for cluster in differ:
            nested = [c for c in summed if c is not cluster and cluster.contains(c)]
            assert len(nested) >= 3


class TestSinglePassParity:
    def test_twelve_dimensions_past_int64(self):
        """80 relations, each value of each dimension shared by two of
        them: about 40 kept nodes per dimension, whose product (4e20)
        overflows any one int64 combo key; keys are densified instead."""
        rng = generator(3)
        n = 80

        def side():
            ranks = [rng.permutation(n) // 2 for _ in range(6)]
            src, dst = (rng.integers(0, 1 << 32, n // 2) for _ in range(2))
            src_port, dst_port = (rng.choice(65_536, n // 2, replace=False) for _ in range(2))
            flows = [
                FiveTuple(
                    int(src[ranks[0][i]]), int(dst[ranks[1][i]]),
                    int(src_port[ranks[2][i]]), int(dst_port[ranks[3][i]]),
                    int(ranks[4][i]),
                )
                for i in range(n)
            ]
            return flows, [f"nf{ranks[5][i]}" for i in range(n)]

        (c_flows, c_locs), (v_flows, v_locs) = side(), side()
        nf_types = {f"nf{v}": f"type{v % 4}" for v in range(n // 2)}
        relations = [
            CausalRelation(c_flows[i], c_locs[i], v_flows[i], v_locs[i], 1.0, 0, "local")
            for i in range(n)
        ]
        kept, densified = [], []
        dim_init, dense = autofocus._Dim.__init__, autofocus._dense

        def counting_init(self, *args, **kwargs):
            dim_init(self, *args, **kwargs)
            kept.append(self.n_kept)

        def counting_dense(key):
            densified.append(len(key))
            return dense(key)

        aggregator = PatternAggregator(nf_types, threshold_fraction=0.02)
        with mock.patch.object(autofocus._Dim, "__init__", counting_init), \
                mock.patch.object(autofocus, "_dense", counting_dense):
            ours = aggregator.aggregate_single_pass(relations)
        theirs = OraclePatternAggregator(nf_types, threshold_fraction=0.02)
        theirs = theirs.aggregate_single_pass(relations)
        assert len(kept) == 12
        assert np.prod(np.array(kept, dtype=float)) > 2.0**63
        assert densified
        assert ours.patterns
        assert patterns_of(ours) == patterns_of(theirs)


class TestAggregationCost:
    def test_dimension_setups_constant_and_no_product(self, postmortem_relations):  # noqa: F811
        """Phase 1 and phase 2 each set up their six dimensions once, not
        once per culprit group; nothing enumerates with ``product``."""
        relations, nf_types = postmortem_relations
        setups = []
        init = Lattice.__init__

        def counting(self, *args, **kwargs):
            setups.append(type(self))
            init(self, *args, **kwargs)

        def refuse(*_args, **_kwargs):
            raise AssertionError("itertools.product called")

        aggregator = PatternAggregator(nf_types)
        counts = []
        for subset in (relations[:200], relations):
            setups.clear()
            with mock.patch.object(Lattice, "__init__", counting), \
                    mock.patch("itertools.product", refuse), \
                    mock.patch.object(autofocus, "product", refuse, create=True):
                result = aggregator.aggregate(subset)
            assert result.patterns
            counts.append(len(setups))
        groups = len({(r.culprit_flow, r.culprit_location) for r in relations})
        assert groups > 100
        assert counts[0] == counts[1] <= 24, counts

    def test_no_memory_kept_across_calls(self):
        """Batches over fresh addresses leave nothing behind: no table
        grows with the leaves seen."""
        aggregator = PatternAggregator(NF_TYPES)
        rng = generator(8)

        def batch(i):
            return [
                CausalRelation(
                    FiveTuple((i << 24) | int(rng.integers(1 << 24)), 0x20000001, 2_000, 80, 6),
                    "fw1",
                    FiveTuple((i << 24) | int(rng.integers(1 << 24)),
                              (i << 24) | int(rng.integers(1 << 24)),
                              int(rng.integers(1_024, 65_536)), 443, 6),
                    "vpn1",
                    float(rng.uniform(0.1, 2.0)),
                    0,
                    "local",
                )
                for _ in range(400)
            ]

        aggregator.aggregate(batch(1))
        gc.collect()
        tracemalloc.start()
        try:
            aggregator.aggregate(batch(2))
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for i in range(3, 8):
                aggregator.aggregate(batch(i))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, grown

