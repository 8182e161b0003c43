"""Per-group pattern aggregation: the reference for ``PatternAggregator``.

What ``PatternAggregator.aggregate`` (and ``aggregate_single_pass``) were
before relations became columns and AutoFocus ran over all groups at once:
relations are regrouped by culprit in dicts, each culprit group is turned
back into hierarchy nodes and aggregated by its own ``MultiAutoFocus.run``
call, then each victim aggregate by another.  Moved here unedited as
:class:`OraclePatternAggregator`, whose AutoFocus is the object oracle
``tests.oracles.autofocus.OracleMultiAutoFocus``.  The production
aggregator must return the same patterns — strings, order, ``score`` by
``float.hex`` — and the same ``n_intermediate``
(``tests/aggregation/test_patterns_parity.py``).  Its float totals are
:func:`~tests.oracles.sums.plain_sum`, in order, whatever the
interpreter's builtin ``sum`` does.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregation.hierarchy import (
    BinaryPortNode,
    LocationNode,
    PortNode,
    PrefixNode,
    ProtoNode,
)
from repro.aggregation.patterns import (
    AggregationResult,
    Pattern,
    PatternAggregator,
    _cluster_to_flow_aggregate,
    _flow_leaf_nodes,
)
from repro.core.report import CausalRelation
from repro.nfv.packet import FiveTuple
from tests.oracles.autofocus import OracleMultiAutoFocus as MultiAutoFocus
from tests.oracles.sums import plain_sum


def _location_leaf(location: str, nf_types: Dict[str, str]) -> LocationNode:
    type_name = nf_types.get(location, "source")
    return LocationNode.leaf(location, type_name)



class OraclePatternAggregator(PatternAggregator):
    """``PatternAggregator`` with the per-group passes."""

    # -- phase 1: victim-side aggregation per culprit -------------------------

    def _victim_autofocus(self) -> MultiAutoFocus:
        def to_nodes(item) -> Tuple[object, ...]:
            victim_flow, victim_location = item
            return _flow_leaf_nodes(victim_flow, self.adaptive_ports) + (
                _location_leaf(victim_location, self.nf_types),
            )

        return MultiAutoFocus(
            to_leaf_nodes=to_nodes, threshold_fraction=self.threshold_fraction
        )

    def _culprit_autofocus(self) -> MultiAutoFocus:
        def to_nodes(item) -> Tuple[object, ...]:
            culprit_flow, culprit_location = item
            return _flow_leaf_nodes(culprit_flow, self.adaptive_ports) + (
                _location_leaf(culprit_location, self.nf_types),
            )

        return MultiAutoFocus(
            to_leaf_nodes=to_nodes, threshold_fraction=self.threshold_fraction
        )

    def aggregate(self, relations: Sequence[CausalRelation]) -> AggregationResult:
        """Run the decoupled two-phase aggregation.

        Significance is measured against the *global* score total.  Culprit
        groups whose whole score is below the threshold skip phase-1
        AutoFocus — their victim leaves pass straight through to phase 2,
        where aggregation across culprits can still surface them.
        """
        started = time.perf_counter()
        grand_total = plain_sum(r.score for r in relations)
        if grand_total <= 0:
            return AggregationResult(
                patterns=[], n_relations=len(relations), n_intermediate=0, runtime_s=0.0
            )
        threshold = grand_total * self.threshold_fraction

        by_culprit: Dict[Tuple[Optional[FiveTuple], str], Dict] = defaultdict(
            lambda: defaultdict(float)
        )
        for relation in relations:
            key = (relation.culprit_flow, relation.culprit_location)
            by_culprit[key][(relation.victim_flow, relation.victim_location)] += (
                relation.score
            )

        victim_af = self._victim_autofocus()
        # Intermediates: (culprit key, victim aggregate node tuple, score).
        intermediates: List[Tuple[Tuple, Tuple, float]] = []
        for culprit_key, victim_weights in by_culprit.items():
            group_total = plain_sum(victim_weights.values())
            if len(victim_weights) == 1:
                (victim_flow, victim_location), score = next(
                    iter(victim_weights.items())
                )
                leaf_nodes = _flow_leaf_nodes(victim_flow, self.adaptive_ports) + (
                    _location_leaf(victim_location, self.nf_types),
                )
                intermediates.append((culprit_key, leaf_nodes, score))
                continue
            if group_total < threshold:
                # Sub-threshold culprit: compress its victims to the most
                # specific aggregate covering the whole group.  Culprits
                # with the same victim spread then share an intermediate
                # key, so phase 2 can still merge them into a significant
                # pattern (this is where a pure leaf passthrough would
                # silently lose cross-culprit aggregates).
                clusters = victim_af.run(
                    list(victim_weights.items()), threshold=group_total
                )
                if clusters:
                    canonical = max(
                        clusters, key=lambda c: sum(n.depth for n in c.nodes)
                    )
                    intermediates.append((culprit_key, canonical.nodes, group_total))
                else:
                    for (victim_flow, victim_location), score in victim_weights.items():
                        leaf_nodes = _flow_leaf_nodes(
                            victim_flow, self.adaptive_ports
                        ) + (_location_leaf(victim_location, self.nf_types),)
                        intermediates.append((culprit_key, leaf_nodes, score))
                continue
            clusters = victim_af.run(
                list(victim_weights.items()), threshold=threshold
            )
            if not clusters:
                # Group above threshold but too dispersed to cluster below
                # the root: keep the root aggregate so the score survives.
                port_type = BinaryPortNode if self.adaptive_ports else PortNode
                root_nodes = (
                    PrefixNode(0, 0),
                    PrefixNode(0, 0),
                    port_type.any(),
                    port_type.any(),
                    ProtoNode.any(),
                    LocationNode.any(),
                )
                intermediates.append((culprit_key, root_nodes, group_total))
                continue
            for cluster in clusters:
                intermediates.append((culprit_key, cluster.nodes, cluster.residual))

        # Phase 2: aggregate culprit dimensions within identical victim
        # aggregates.
        by_victim_aggregate: Dict[Tuple, List[Tuple[Tuple, float]]] = defaultdict(list)
        for culprit_key, victim_nodes, score in intermediates:
            by_victim_aggregate[victim_nodes].append((culprit_key, score))

        culprit_af = self._culprit_autofocus()
        patterns: List[Pattern] = []
        for victim_nodes, culprit_items in by_victim_aggregate.items():
            merged: Dict[Tuple, float] = defaultdict(float)
            for culprit_key, score in culprit_items:
                merged[culprit_key] += score
            for cluster in culprit_af.run(list(merged.items()), threshold=threshold):
                patterns.append(
                    Pattern(
                        culprit=_cluster_to_flow_aggregate(cluster.nodes[:5]),
                        culprit_location=cluster.nodes[5],
                        victim=_cluster_to_flow_aggregate(victim_nodes[:5]),
                        victim_location=victim_nodes[5],
                        score=cluster.residual,
                    )
                )
        patterns.sort(key=lambda p: -p.score)
        return AggregationResult(
            patterns=patterns,
            n_relations=len(relations),
            n_intermediate=len(intermediates),
            runtime_s=time.perf_counter() - started,
        )

    def aggregate_single_pass(
        self, relations: Sequence[CausalRelation]
    ) -> AggregationResult:
        """Single AutoFocus over all twelve dimensions (ablation baseline)."""
        started = time.perf_counter()

        def to_nodes(item) -> Tuple[object, ...]:
            culprit_flow, culprit_location, victim_flow, victim_location = item
            return (
                _flow_leaf_nodes(culprit_flow, self.adaptive_ports)
                + (_location_leaf(culprit_location, self.nf_types),)
                + _flow_leaf_nodes(victim_flow, self.adaptive_ports)
                + (_location_leaf(victim_location, self.nf_types),)
            )

        weights: Dict[Tuple, float] = defaultdict(float)
        for relation in relations:
            key = (
                relation.culprit_flow,
                relation.culprit_location,
                relation.victim_flow,
                relation.victim_location,
            )
            weights[key] += relation.score
        autofocus = MultiAutoFocus(
            to_leaf_nodes=to_nodes, threshold_fraction=self.threshold_fraction
        )
        clusters = autofocus.run(list(weights.items()))
        patterns = [
            Pattern(
                culprit=_cluster_to_flow_aggregate(cluster.nodes[:5]),
                culprit_location=cluster.nodes[5],
                victim=_cluster_to_flow_aggregate(cluster.nodes[6:11]),
                victim_location=cluster.nodes[11],
                score=cluster.residual,
            )
            for cluster in clusters
        ]
        patterns.sort(key=lambda p: -p.score)
        return AggregationResult(
            patterns=patterns,
            n_relations=len(relations),
            n_intermediate=0,
            runtime_s=time.perf_counter() - started,
        )
