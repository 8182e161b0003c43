"""Causal-pattern aggregation (section 4.4, Figure 14).

Input: packet-level causal relations
``<culprit flow, culprit location> -> <victim flow, victim location>: score``.
Output: a short ranked list of patterns
``<culprit flow aggregate, culprit location set> ->
<victim flow aggregate, victim location set>: score``.

The paper's key speed-up is *decoupling*: rather than one AutoFocus run
over all twelve dimensions, it first groups relations by exact culprit
(flow, location) and aggregates each group's victim dimensions, then
aggregates the resulting intermediates over the culprit dimensions.  Both
the decoupled pipeline and the single-pass twelve-dimension variant are
implemented; the ablation bench compares them.

Relations arrive as :class:`~repro.core.report.RelationColumns` (a plain
relation list is converted once).  Phase 1 runs every culprit group's
AutoFocus in one :func:`~repro.aggregation.autofocus.segmented_autofocus`
call, and phase 2 every victim aggregate's; the hierarchy keys of each
dimension come from array shifts of the flow and location columns.  Every
total is plain addition in relation order (:mod:`repro.util.arrays`) and
groups are numbered by first occurrence, so the patterns equal those of
the per-group dict code in ``tests/oracles/patterns.py``, float for
float, and do not depend on the interpreter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.autofocus import (
    Found,
    Lattice,
    MultiAutoFocus,
    PrefixLattice,
    segmented_autofocus,
)
from repro.aggregation.hierarchy import (
    BinaryPortNode,
    LocationNode,
    PortNode,
    PrefixNode,
    ProtoNode,
)
from repro.core.report import CausalRelation, RelationColumns
from repro.errors import AggregationError
from repro.nfv.packet import FiveTuple
from repro.util.arrays import first_codes, sum_in_order

#: Wildcard five-tuple used when a relation has no culprit flow (pure
#: local culprits with unknown packet identities).
_ANY_FLOW = None


@dataclass(frozen=True)
class FlowAggregate:
    """Aggregated five-tuple: prefixes, port ranges, protocol set."""

    src: PrefixNode
    dst: PrefixNode
    src_port: PortNode
    dst_port: PortNode
    proto: ProtoNode

    def __str__(self) -> str:
        return f"{self.src} {self.dst} {self.proto} {self.src_port} {self.dst_port}"

    def matches(self, flow: FiveTuple) -> bool:
        return (
            self.src.contains(flow.src_ip)
            and self.dst.contains(flow.dst_ip)
            and self.src_port.contains(flow.src_port)
            and self.dst_port.contains(flow.dst_port)
            and self.proto.contains(flow.proto)
        )


@dataclass(frozen=True)
class Pattern:
    """One aggregated causal pattern with its score."""

    culprit: FlowAggregate
    culprit_location: LocationNode
    victim: FlowAggregate
    victim_location: LocationNode
    score: float

    def __str__(self) -> str:
        return (
            f"{self.culprit} {self.culprit_location} => "
            f"{self.victim} {self.victim_location}"
        )


@dataclass
class AggregationResult:
    """Patterns plus bookkeeping for effectiveness reports (section 6.4)."""

    patterns: List[Pattern]
    n_relations: int
    n_intermediate: int
    runtime_s: float


def _flow_leaf_nodes(
    flow: Optional[FiveTuple], adaptive_ports: bool = False
) -> Tuple[object, ...]:
    port_type = BinaryPortNode if adaptive_ports else PortNode
    if flow is None:
        return (
            PrefixNode(0, 0),
            PrefixNode(0, 0),
            port_type.any(),
            port_type.any(),
            ProtoNode.any(),
        )
    return (
        PrefixNode.leaf(flow.src_ip),
        PrefixNode.leaf(flow.dst_ip),
        port_type.leaf(flow.src_port),
        port_type.leaf(flow.dst_port),
        ProtoNode.leaf(flow.proto),
    )


def _cluster_to_flow_aggregate(nodes: Sequence[object]) -> FlowAggregate:
    return FlowAggregate(
        src=nodes[0], dst=nodes[1], src_port=nodes[2], dst_port=nodes[3], proto=nodes[4]
    )


class PatternAggregator:
    """Two-phase (decoupled) causal-pattern aggregation."""

    def __init__(
        self,
        nf_types: Dict[str, str],
        threshold_fraction: float = 0.01,
        adaptive_ports: bool = False,
    ) -> None:
        if not 0 < threshold_fraction <= 1:
            raise AggregationError(
                f"threshold fraction must be in (0, 1], got {threshold_fraction}"
            )
        self.nf_types = dict(nf_types)
        self.threshold_fraction = threshold_fraction
        #: Use binary (adaptive) port ranges instead of the paper's static
        #: well-known/ephemeral split — the optimisation section 6.4
        #: suggests for merging per-port patterns.
        self.adaptive_ports = adaptive_ports

    def aggregate(self, relations: Iterable[CausalRelation]) -> AggregationResult:
        """Run the decoupled two-phase aggregation.

        Significance is measured against the *global* score total.  Culprit
        groups whose whole score is below the threshold skip phase-1
        AutoFocus at the global threshold — their victims are compressed
        to the most specific aggregate covering the whole group, so
        culprits with the same victim spread share an intermediate and
        phase 2 can still merge them into a significant pattern.
        """
        started = time.perf_counter()
        rel = RelationColumns.of(relations)
        grand_total = sum_in_order(rel.score.tolist())
        if grand_total <= 0:
            return AggregationResult(
                patterns=[], n_relations=len(rel), n_intermediate=0, runtime_s=0.0
            )
        threshold = grand_total * self.threshold_fraction
        max_combos = MultiAutoFocus.max_combos_per_item

        # Phase 1: victim-side aggregation within each exact culprit.
        # Items are the (culprit, victim) pairs, scores summed in relation
        # order, laid out culprit by culprit in first-occurrence order.
        culprit, culprit_row = first_codes(rel.culprit_flow, rel.culprit_location)
        pair, pair_row = first_codes(culprit, rel.victim_flow, rel.victim_location)
        pair_weight = np.bincount(pair, weights=rel.score)
        order = np.lexsort((np.arange(len(pair_row)), culprit[pair_row]))
        rows, weight, group = pair_row[order], pair_weight[order], culprit[pair_row][order]
        n_groups = len(culprit_row)
        size = np.bincount(group, minlength=n_groups)
        group_total = np.bincount(group, weights=weight, minlength=n_groups)
        # Sub-threshold culprits report against their own total (keeping
        # the most specific cluster); the rest against the global one.
        sub = (size > 1) & (group_total < threshold)
        runs = (sub & (group_total > 0)) | ((size > 1) & ~sub)
        victim_dims = self._lattices(rel, rel.victim_flow[rows], rel.victim_location[rows])
        on = runs[group]
        found = segmented_autofocus(
            [dim.take(on) for dim in victim_dims],
            weight[on],
            group[on],
            np.where(sub, group_total, threshold),
            max_combos,
        )
        inter_culprit, inter_depth, inter_key, inter_score = _intermediates(
            victim_dims, weight, group, group_total, sub, found
        )

        # Phase 2: culprit-side aggregation within each victim aggregate.
        victim_aggregate, aggregate_row = first_codes(
            *inter_depth.T, *inter_key.T
        )
        item, item_row = first_codes(victim_aggregate, inter_culprit)
        item_weight = np.bincount(item, weights=inter_score)
        order = np.lexsort((np.arange(len(item_row)), victim_aggregate[item_row]))
        weight2 = item_weight[order]
        group2 = victim_aggregate[item_row][order]
        culprit_rows = culprit_row[inter_culprit[item_row][order]]
        total2 = np.bincount(group2, weights=weight2, minlength=len(aggregate_row))
        on = (total2 > 0)[group2]
        culprit_dims = self._lattices(
            rel, rel.culprit_flow[culprit_rows[on]], rel.culprit_location[culprit_rows[on]]
        )
        found2 = segmented_autofocus(
            culprit_dims,
            weight2[on],
            group2[on],
            np.full(len(aggregate_row), threshold),
            max_combos,
        )

        patterns: List[Pattern] = []
        victims: Dict[int, Tuple[object, ...]] = {}
        for i, g in enumerate(found2.group.tolist()):
            victim_nodes = victims.get(g)
            if victim_nodes is None:
                row = aggregate_row[g]
                victim_nodes = victims[g] = tuple(
                    dim.node(d, k)
                    for dim, d, k in zip(
                        victim_dims, inter_depth[row].tolist(), inter_key[row].tolist()
                    )
                )
            nodes = found2.nodes(culprit_dims, i)
            patterns.append(
                Pattern(
                    culprit=_cluster_to_flow_aggregate(nodes[:5]),
                    culprit_location=nodes[5],
                    victim=_cluster_to_flow_aggregate(victim_nodes[:5]),
                    victim_location=victim_nodes[5],
                    score=float(found2.residual[i]),
                )
            )
        patterns.sort(key=lambda p: -p.score)
        return AggregationResult(
            patterns=patterns,
            n_relations=len(rel),
            n_intermediate=len(inter_score),
            runtime_s=time.perf_counter() - started,
        )

    def aggregate_single_pass(
        self, relations: Iterable[CausalRelation]
    ) -> AggregationResult:
        """Single AutoFocus over all twelve dimensions (ablation baseline)."""
        started = time.perf_counter()
        rel = RelationColumns.of(relations)
        item, item_row = first_codes(
            rel.culprit_flow, rel.culprit_location, rel.victim_flow, rel.victim_location
        )
        weight = np.bincount(item, weights=rel.score)
        total = sum_in_order(weight.tolist())
        patterns: List[Pattern] = []
        if len(weight) and total > 0:
            threshold = total * self.threshold_fraction
            if threshold <= 0:
                raise AggregationError(f"threshold must be positive, got {threshold}")
            dims = self._lattices(
                rel, rel.culprit_flow[item_row], rel.culprit_location[item_row]
            ) + self._lattices(
                rel, rel.victim_flow[item_row], rel.victim_location[item_row]
            )
            found = segmented_autofocus(
                dims,
                weight,
                np.zeros(len(weight), dtype=np.int64),
                np.array([threshold]),
                MultiAutoFocus.max_combos_per_item,
            )
            for i in range(len(found.residual)):
                nodes = found.nodes(dims, i)
                patterns.append(
                    Pattern(
                        culprit=_cluster_to_flow_aggregate(nodes[:5]),
                        culprit_location=nodes[5],
                        victim=_cluster_to_flow_aggregate(nodes[6:11]),
                        victim_location=nodes[11],
                        score=float(found.residual[i]),
                    )
                )
        patterns.sort(key=lambda p: -p.score)
        return AggregationResult(
            patterns=patterns,
            n_relations=len(rel),
            n_intermediate=0,
            runtime_s=time.perf_counter() - started,
        )

    def _lattices(
        self, rel: RelationColumns, flows: np.ndarray, locations: np.ndarray
    ) -> List[Lattice]:
        """The six dimensions of (flow, location) rows: five five-tuple
        fields (``-1`` flow codes are no flow, i.e. the roots) and the
        location."""
        fields = np.full((len(flows), 5), -1, dtype=np.int64)
        has = flows >= 0
        fields[has] = rel.flow_keys[flows[has]]
        src, dst, src_port, dst_port, proto = fields.T
        if self.adaptive_ports:
            ports = [PrefixLattice(p, has, 16, BinaryPortNode) for p in (src_port, dst_port)]
        else:
            ports = [_port_lattice(p, has) for p in (src_port, dst_port)]
        return [
            PrefixLattice(src, has, 32, PrefixNode),
            PrefixLattice(dst, has, 32, PrefixNode),
            *ports,
            _proto_lattice(proto, has),
            _location_lattice(locations, rel.locations, self.nf_types),
        ]


def _intermediates(
    victim_dims: List[Lattice],
    weight: np.ndarray,
    group: np.ndarray,
    group_total: np.ndarray,
    sub: np.ndarray,
    found: Found,
):
    """Phase-1 output, culprit by culprit: ``(culprit, depth, key, score)``
    columns, the victim aggregate as per-dimension depth and key.

    * a culprit with one victim passes that victim's leaves through;
    * a sub-threshold culprit keeps its most specific cluster (first on
      ties) with the whole group score, or passes its leaves through when
      it has none (its total is zero);
    * any other culprit keeps its clusters with their residuals.

    A culprit run at a threshold its total reaches always has a cluster:
    every item keeps its root on every dimension, so the all-root
    combination weighs the group total.
    """
    n_groups = len(group_total)
    n_dims = len(victim_dims)
    leaf = [dim.leaves() for dim in victim_dims]
    leaf_depth = np.stack([d for d, _k in leaf], axis=1).reshape(len(group), n_dims)
    leaf_key = np.stack([k for _d, k in leaf], axis=1).reshape(len(group), n_dims)
    clustered = np.zeros(n_groups, dtype=bool)
    clustered[found.group] = True
    size = np.bincount(group, minlength=n_groups)

    # Per found cluster: its position within its group's output.
    position = np.arange(len(found.group)) - np.searchsorted(found.group, found.group)
    depth_sum = found.depth.sum(axis=1)
    in_sub = sub[found.group]
    # Canonical sub-threshold cluster: deepest, first in output order.
    canon = np.lexsort((position, -depth_sum, found.group))
    canon = canon[in_sub[canon]]
    canon_group = found.group[canon]
    canon = canon[np.r_[True, canon_group[1:] != canon_group[:-1]][: len(canon)]]
    big = np.flatnonzero(~in_sub)

    leaf_rows = np.flatnonzero((size[group] == 1) | (sub[group] & ~clustered[group]))
    parts = [
        (group[leaf_rows], np.arange(len(leaf_rows)), leaf_depth[leaf_rows],
         leaf_key[leaf_rows], weight[leaf_rows]),
        (found.group[canon], position[canon], found.depth[canon], found.key[canon],
         group_total[found.group[canon]]),
        (found.group[big], position[big], found.depth[big], found.key[big],
         found.residual[big]),
    ]
    culprit = np.concatenate([p[0] for p in parts])
    order = np.lexsort((np.concatenate([p[1] for p in parts]), culprit))
    culprit = culprit[order]
    depth = np.concatenate([p[2] for p in parts])[order]
    key = np.concatenate([p[3] for p in parts])[order]
    score = np.concatenate([p[4] for p in parts])[order]
    return culprit, depth, key, score


_BANDS = (PortNode(0, 1023), PortNode(1024, 65535))


def _port_lattice(ports: np.ndarray, has: np.ndarray) -> Lattice:
    """Static port ranges: port -> well-known or ephemeral band -> any."""
    keys = np.full((len(ports), 3), -1, dtype=np.int64)
    keys[:, 0] = 0
    keys[has, 1] = ports[has] > _BANDS[0].hi
    keys[has, 2] = ports[has]

    def node(depth: int, key: int) -> PortNode:
        if depth == 2:
            return PortNode.leaf(key)
        return _BANDS[key] if depth == 1 else PortNode.any()

    return Lattice(keys, (np.where(has, ports, -1),), node)


def _proto_lattice(protos: np.ndarray, has: np.ndarray) -> Lattice:
    keys = np.stack([np.zeros(len(protos), dtype=np.int64), np.where(has, protos, -1)], axis=1)
    return Lattice(
        keys,
        (keys[:, 1],),
        lambda depth, key: ProtoNode.leaf(key) if depth else ProtoNode.any(),
    )


def _location_lattice(
    codes: np.ndarray, names: Sequence[str], nf_types: Dict[str, str]
) -> Lattice:
    """Locations: instance -> NF type (``"source"`` when unknown) -> any;
    rows sort by type, then instance."""
    types = [nf_types.get(name, "source") for name in names]
    type_names = list(dict.fromkeys(types))
    type_of = np.array([type_names.index(t) for t in types], dtype=np.int64)
    row_type = type_of[codes]
    keys = np.stack([np.zeros(len(codes), dtype=np.int64), row_type, codes], axis=1)

    def node(depth: int, key: int) -> LocationNode:
        if depth == 2:
            return LocationNode.leaf(names[key], types[key])
        if depth == 1:
            return LocationNode(kind="type", type_name=type_names[key])
        return LocationNode.any()

    return Lattice(keys, (codes, row_type), node)
