"""AutoFocus-style hierarchical heavy hitters, uni- and multi-dimensional.

Follows Estan, Savage & Varghese, "Automatically inferring patterns of
resource consumption in network traffic" (SIGCOMM 2003), which the paper
adapts for causal-pattern aggregation:

* **Unidimensional**: aggregate leaf weights up each hierarchy; a node is a
  *cluster* when its subtree weight reaches the threshold; *compression*
  reports only nodes whose weight is not already explained by reported
  descendants (residual >= threshold).
* **Multidimensional**: candidate clusters are combinations of per-
  dimension unidimensional clusters; true weights are accumulated by
  walking, for each item, the cross product of its per-dimension cluster
  ancestors; compression then works on the specificity-ordered candidate
  list with the same residual rule.

:class:`MultiAutoFocus` runs on int codes, not node objects: pass 1 sums
weights per shared node code (:data:`~repro.aggregation.hierarchy.
NODE_CODES`, one hash per leaf instead of one per ancestor), passes 2 and
3 use dense codes of each dimension's pruned significant nodes, and
compression applies containment as one mask per reported cluster over the
later candidates, looked up from a table built with ``contains_node``
over that dimension's nodes.  Every float is summed in the order the
object code summed it — combos in item order, each candidate's explained
weight as one ``sum`` over the containing clusters' residuals in report
order — so weights and residuals are bit-identical to the object
reference in ``tests/oracles/autofocus.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.hierarchy import NODE_CODES, ancestors
from repro.errors import AggregationError


@dataclass(frozen=True)
class Cluster:
    """A reported aggregate: per-dimension nodes plus weights."""

    nodes: Tuple[object, ...]
    weight: float
    residual: float

    @property
    def depth(self) -> int:
        return sum(node.depth for node in self.nodes)

    def contains(self, other: "Cluster") -> bool:
        return all(
            mine.contains_node(theirs)
            for mine, theirs in zip(self.nodes, other.nodes)
        )

    def __str__(self) -> str:
        return " ".join(str(node) for node in self.nodes)


def unidimensional_clusters(
    leaf_weights: Dict[Hashable, float],
    to_leaf_node: Callable[[Hashable], object],
    threshold: float,
) -> Dict[object, float]:
    """All hierarchy nodes whose subtree weight reaches ``threshold``.

    The dimension root is always included so multidimensional candidates
    can fall back to "any" on dimensions without concentrated weight.
    """
    if threshold <= 0:
        raise AggregationError(f"threshold must be positive, got {threshold}")
    node_weights: Dict[object, float] = defaultdict(float)
    root = None
    for leaf, weight in leaf_weights.items():
        for node in ancestors(to_leaf_node(leaf)):
            node_weights[node] += weight
            root = node  # last ancestor is the root
    significant = {
        node: weight for node, weight in node_weights.items() if weight >= threshold
    }
    if root is not None:
        significant.setdefault(root, node_weights[root])
    return significant


def compress_unidimensional(
    significant: Dict[object, float], threshold: float
) -> List[Tuple[object, float, float]]:
    """Residual compression: (node, weight, residual) kept when residual
    reaches the threshold.  Most-specific nodes are processed first."""
    ordered = sorted(significant.items(), key=lambda kv: -kv[0].depth)
    reported: List[Tuple[object, float, float]] = []
    for node, weight in ordered:
        explained = sum(
            residual
            for other, _w, residual in reported
            if node.contains_node(other)
        )
        residual = weight - explained
        if residual >= threshold:
            reported.append((node, weight, residual))
    return reported


@dataclass
class MultiAutoFocus:
    """Multidimensional AutoFocus over weighted items.

    ``to_leaf_nodes`` maps each item to its per-dimension leaf nodes; items
    are any hashable payloads paired with weights.  The reporting threshold
    is ``threshold_fraction`` of the items' total weight, unless an absolute
    ``threshold`` is passed to :meth:`run` (used by the two-phase pattern
    pipeline, where significance is defined against the *global* score).
    """

    to_leaf_nodes: Callable[[Hashable], Tuple[object, ...]]
    threshold_fraction: float = 0.01
    max_ancestor_fanout: int = 8
    #: Per-item cap on the candidate cross product.  When an item's options
    #: multiply out beyond this, the longest dimensions are trimmed (keeping
    #: the most specific nodes plus the root), trading cluster granularity
    #: for bounded runtime.  High-dimensional single-pass runs need this;
    #: the decoupled pipeline practically never hits it.
    max_combos_per_item: int = 4_096

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
        total = sum(weight for _item, weight in items)
        if total <= 0:
            return []
        if threshold is None:
            threshold = total * self.threshold_fraction
        if threshold <= 0:
            raise AggregationError(f"threshold must be positive, got {threshold}")

        leaves = [self.to_leaf_nodes(item) for item, _weight in items]
        weights = [weight for _item, weight in items]
        dims = [
            _CodedDimension(leaf[d] for leaf in leaves) for d in range(len(leaves[0]))
        ]

        # Pass 1: unidimensional significant nodes per dimension, with
        # chain pruning: a node whose weight does not exceed its heaviest
        # significant child is redundant — any combination using it scores
        # the same as the more specific combination, so residual
        # compression would never report it.  Pruning keeps the candidate
        # cross product small.
        for dim in dims:
            dim.prune(weights, threshold)

        # Pass 2: true weights of candidate combinations, accumulated by
        # walking each item's significant-ancestor cross product.  Combos
        # are tuples of node codes, summed in item order.
        per_item = zip(*(dim.options(self.max_ancestor_fanout) for dim in dims))
        combo_weights: Dict[Tuple[int, ...], float] = defaultdict(float)
        for item_options, weight in zip(per_item, weights):
            options = list(item_options)
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

        # Pass 3: compression by residual, most-specific first.  When a
        # cluster is reported, one mask over the later candidates marks
        # those containing it, and its residual joins their explained
        # lists in report order — each candidate's explained weight is
        # the same ``sum`` over the same floats as a scan of the reported
        # list would take.
        depths = [dim.depths for dim in dims]
        ordered = sorted(
            (
                (combo, weight)
                for combo, weight in combo_weights.items()
                if weight >= threshold
            ),
            key=lambda kv: (-sum([dd[c] for dd, c in zip(depths, kv[0])]), -kv[1]),
        )
        codes = np.array([combo for combo, _weight in ordered], dtype=np.intp)
        explained: Dict[int, List[float]] = defaultdict(list)
        reported: List[Cluster] = []
        for i, (combo, weight) in enumerate(ordered):
            residual = weight - sum(explained.pop(i, ()))
            if residual < threshold:
                continue
            reported.append(
                Cluster(
                    nodes=tuple(dim.nodes[c] for dim, c in zip(dims, combo)),
                    weight=weight,
                    residual=residual,
                )
            )
            later = codes[i + 1 :]
            mask = np.ones(len(later), dtype=bool)
            for d, dim in enumerate(dims):
                mask &= dim.containers(combo[d])[later[:, d]]
            for j in np.flatnonzero(mask).tolist():
                explained[i + 1 + j].append(residual)
        reported.sort(key=lambda c: -c.residual)
        return reported


class _CodedDimension:
    """One dimension of a :class:`MultiAutoFocus` run over node codes.

    Pass 1 works on :data:`~repro.aggregation.hierarchy.NODE_CODES`;
    the pruned significant nodes are then renumbered densely
    (``index``), and passes 2 and 3 use those dense codes.
    """

    def __init__(self, leaves: Iterable[object]) -> None:
        #: Per item, its leaf's ancestor chain as shared codes.
        self.chains = [NODE_CODES.chain(leaf) for leaf in leaves]
        self.index: Dict[int, int] = {}
        self.nodes: List[object] = []
        self.depths: List[int] = []
        self._containers: Dict[int, np.ndarray] = {}

    def prune(self, weights: Sequence[float], threshold: float) -> None:
        """Pass 1: keep the significant nodes no significant child explains."""
        node_weights: Dict[int, float] = defaultdict(float)
        for chain, weight in zip(self.chains, weights):
            for code in chain:
                node_weights[code] += weight
        depths = NODE_CODES.depths
        significant = {
            code: weight for code, weight in node_weights.items() if weight >= threshold
        }
        root = next(code for code in node_weights if depths[code] == 0)
        significant.setdefault(root, node_weights[root])
        child_max: Dict[int, float] = {}
        for code, weight in significant.items():
            parent = NODE_CODES.parents[code]
            if parent in significant and weight > child_max.get(parent, 0.0):
                child_max[parent] = weight
        for code, weight in significant.items():
            if depths[code] == 0 or weight > child_max.get(code, 0.0):
                self.index[code] = len(self.nodes)
                self.nodes.append(NODE_CODES.nodes[code])
                self.depths.append(depths[code])

    def options(self, fanout: int) -> List[List[int]]:
        """Per item, the dense codes of its pruned ancestors, most specific
        first, capped at ``fanout``."""
        index = self.index
        memo: Dict[Tuple[int, ...], List[int]] = {}
        options = []
        for chain in self.chains:
            kept = memo.get(chain)
            if kept is None:
                kept = memo[chain] = [index[c] for c in chain if c in index][:fanout]
            options.append(kept)
        return options

    def containers(self, code: int) -> np.ndarray:
        """Mask over dense codes: the pruned nodes containing node ``code``."""
        mask = self._containers.get(code)
        if mask is None:
            node = self.nodes[code]
            mask = np.array([other.contains_node(node) for other in self.nodes])
            self._containers[code] = mask
        return mask
