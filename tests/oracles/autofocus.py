"""Object AutoFocus: the reference for ``MultiAutoFocus.run``.

What multidimensional AutoFocus was before it coded each dimension's
nodes as ints: pass 2 accumulates combos keyed by tuples of hierarchy
node objects, and pass 3 tests every candidate against every reported
cluster with ``Cluster.contains``.  Moved here unedited as
:class:`OracleMultiAutoFocus` (a ``MultiAutoFocus`` subclass);
:func:`aggregating_through` makes every ``PatternAggregator`` inside the
block aggregate with the per-group reference of
``tests/oracles/patterns.py``, which runs it.  The production run must return the same
clusters, in the same order, with ``weight`` and ``residual`` equal by
``float.hex`` (``tests/aggregation/test_autofocus_parity.py``).  Its float
totals are :func:`~tests.oracles.sums.plain_sum`, in order, whatever the
interpreter's builtin ``sum`` does.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from itertools import product
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.aggregation import patterns as patterns_mod
from repro.aggregation.autofocus import Cluster, MultiAutoFocus
from repro.aggregation.hierarchy import ancestors
from repro.errors import AggregationError
from tests.oracles.sums import plain_sum


class OracleMultiAutoFocus(MultiAutoFocus):
    """``MultiAutoFocus`` with the object-keyed passes 2 and 3."""

    def run(
        self,
        items: Sequence[Tuple[Hashable, float]],
        threshold: Optional[float] = None,
    ) -> List[Cluster]:
        """Return compressed multidimensional clusters, highest residual first."""
        if not 0 < self.threshold_fraction <= 1:
            raise AggregationError(
                f"threshold fraction must be in (0, 1], got {self.threshold_fraction}"
            )
        if not items:
            return []
        total = plain_sum(weight for _item, weight in items)
        if total <= 0:
            return []
        if threshold is None:
            threshold = total * self.threshold_fraction
        if threshold <= 0:
            raise AggregationError(f"threshold must be positive, got {threshold}")

        leaves = [(self.to_leaf_nodes(item), weight) for item, weight in items]
        n_dims = len(leaves[0][0])

        # Pass 1: unidimensional significant nodes per dimension, with
        # chain pruning: a node whose weight does not exceed its heaviest
        # significant child is redundant — any combination using it scores
        # the same as the more specific combination, so residual
        # compression would never report it.  Pruning keeps the candidate
        # cross product small.
        per_dim_significant: List[Dict[object, float]] = []
        for d in range(n_dims):
            node_weights: Dict[object, float] = defaultdict(float)
            for nodes, weight in leaves:
                for node in ancestors(nodes[d]):
                    node_weights[node] += weight
            significant = {
                node: w for node, w in node_weights.items() if w >= threshold
            }
            root = next(n for n in node_weights if n.depth == 0)
            significant.setdefault(root, node_weights[root])
            child_max: Dict[object, float] = {}
            for node, weight in significant.items():
                parent = node.parent()
                if parent is not None and parent in significant:
                    if weight > child_max.get(parent, 0.0):
                        child_max[parent] = weight
            pruned = {
                node: weight
                for node, weight in significant.items()
                if node.depth == 0 or weight > child_max.get(node, 0.0)
            }
            per_dim_significant.append(pruned)

        # Pass 2: true weights of candidate combinations, accumulated by
        # walking each item's significant-ancestor cross product.
        combo_weights: Dict[Tuple[object, ...], float] = defaultdict(float)
        for nodes, weight in leaves:
            options: List[List[object]] = []
            for d in range(n_dims):
                chain = [
                    node
                    for node in ancestors(nodes[d])
                    if node in per_dim_significant[d]
                ]
                options.append(chain)
            combos = 1
            for chain in options:
                combos *= max(1, len(chain))
            while combos > self.max_combos_per_item:
                longest = max(options, key=len)
                if len(longest) <= 2:
                    break
                # Keep the most specific node and the most general one.
                combos //= len(longest)
                trimmed = [longest[0], longest[-1]]
                options[options.index(longest)] = trimmed
                combos *= 2
            for combo in product(*options):
                combo_weights[combo] += weight

        candidates = {
            combo: weight
            for combo, weight in combo_weights.items()
            if weight >= threshold
        }

        # Pass 3: compression by residual, most-specific first.
        ordered = sorted(
            candidates.items(),
            key=lambda kv: (-sum(n.depth for n in kv[0]), -kv[1]),
        )
        reported: List[Cluster] = []
        for combo, weight in ordered:
            probe = Cluster(nodes=combo, weight=weight, residual=0.0)
            explained = plain_sum(
                cluster.residual for cluster in reported if probe.contains(cluster)
            )
            residual = weight - explained
            if residual >= threshold:
                reported.append(
                    Cluster(nodes=combo, weight=weight, residual=residual)
                )
        reported.sort(key=lambda c: -c.residual)
        return reported


@contextmanager
def aggregating_through() -> Iterator[None]:
    """Inside the block every ``PatternAggregator`` aggregates with the
    per-group reference (``tests.oracles.patterns``), whose AutoFocus is
    :class:`OracleMultiAutoFocus`."""
    from tests.oracles.patterns import OraclePatternAggregator

    with mock.patch.multiple(
        patterns_mod.PatternAggregator,
        aggregate=OraclePatternAggregator.aggregate,
        aggregate_single_pass=OraclePatternAggregator.aggregate_single_pass,
        _victim_autofocus=OraclePatternAggregator._victim_autofocus,
        _culprit_autofocus=OraclePatternAggregator._culprit_autofocus,
        create=True,
    ):
        yield
