"""AutoFocus-style multidimensional hierarchical heavy hitters.

Follows Estan, Savage & Varghese, "Automatically inferring patterns of
resource consumption in network traffic" (SIGCOMM 2003), which the paper
adapts for causal-pattern aggregation.  Per dimension, leaf weights add
up each hierarchy, and a node is a *cluster* when its subtree weight
reaches the threshold.  Candidates are combinations of per-dimension
clusters, their true weights accumulated by walking, for each item, the
cross product of its per-dimension cluster ancestors.  *Compression*
then reports, most specific first, only the candidates whose weight is
not already explained by reported descendants (residual >= threshold).

The multidimensional passes run on arrays, for many independent groups
of items at once (:func:`segmented_autofocus`), each group with its own
threshold.  A dimension is a :class:`Lattice`: per item row, the key of
its ancestor at every depth.  Pass 1 numbers each group's nodes from one
sort of the rows and sums their weights with ``bincount``; pass 2
enumerates every item's option cross product as mixed-radix digits, in
``itertools.product`` order; pass 3 compresses in rounds, one reported
cluster per group per round.  Every float is plain addition in the order
the object code adds it — node and combo weights in item order, each
candidate's explained weight over the containing clusters' residuals in
report order — and ties sort by first occurrence, so clusters are
bit-identical to the object reference in ``tests/oracles/autofocus.py``
on any interpreter.
Node objects are built only for the reported clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregationError
from repro.util.arrays import sum_in_order


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


class Lattice:
    """One dimension of an AutoFocus run, as arrays over item rows.

    ``keys[r, d]`` names row ``r``'s ancestor at depth ``d`` (``-1`` past
    the row's leaf); a node is a ``(depth, key)`` pair and ``node(depth,
    key)`` builds its hierarchy object.  ``sort_keys`` (``np.lexsort``
    keys, primary last) must order the rows so that, within a group, the
    rows sharing a node at any depth are contiguous — one leaf key does
    that when it orders its ancestors' keys, as prefixes do.
    """

    def __init__(
        self,
        keys: Optional[np.ndarray],
        sort_keys: Tuple[np.ndarray, ...],
        node: Callable[[int, int], object],
    ) -> None:
        self.keys = keys
        self.sort_keys = sort_keys
        self.node = node

    @classmethod
    def of_nodes(cls, leaves: Sequence[object]) -> "Lattice":
        """A lattice over hierarchy node objects: each distinct node gets a
        key for this lattice only, found by walking ``parent()`` once."""
        chains: Dict[object, Tuple[int, ...]] = {}
        nodes: List[object] = []
        rows = []
        for leaf in leaves:
            chain = chains.get(leaf)
            if chain is None:
                walk = []
                node = leaf
                while node is not None and node not in chains:
                    walk.append(node)
                    node = node.parent()
                chain = () if node is None else chains[node]
                for new in reversed(walk):
                    chain = chain + (len(nodes),)
                    nodes.append(new)
                    chains[new] = chain
            rows.append(chain)
        width = max(map(len, rows), default=1)
        keys = np.full((len(rows), width), -1, dtype=np.int64)
        for i, chain in enumerate(rows):
            keys[i, : len(chain)] = chain
        return cls(
            keys,
            tuple(keys[:, d] for d in reversed(range(width))),
            lambda _depth, key: nodes[key],
        )

    @property
    def width(self) -> int:
        """Depths a chain can have: the deepest leaf's depth plus one."""
        return self.keys.shape[1]

    def take(self, rows: np.ndarray) -> "Lattice":
        """The same dimension over a subset of the rows."""
        return Lattice(
            self.keys[rows], tuple(k[rows] for k in self.sort_keys), self.node
        )

    def leaves(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, ``(depth, key)`` of its leaf."""
        depth = (self.keys >= 0).sum(axis=1) - 1
        return depth, self.keys[np.arange(len(self.keys)), depth]

    def key_at(self, rows: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Key of each row's ancestor at ``depth``."""
        return self.keys[rows, depth]

    def shared_depth(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row pair, the deepest depth at which both rows have the same
        ancestor (``-1``: none)."""
        return ((self.keys[a] == self.keys[b]) & (self.keys[a] >= 0)).sum(axis=1) - 1

    def node_ids(self, group: np.ndarray) -> Tuple[np.ndarray, int]:
        """Per row and depth, a dense id per (group, node); ``-1`` past the
        leaf.  One sort of the rows, then a new id at every depth below
        the one a row shares with the previous row of its group."""
        perm = np.lexsort(self.sort_keys + (group,))
        n = len(perm)
        shared = np.full(n, -1, dtype=np.int64)
        if n > 1:
            shared[1:] = self.shared_depth(perm[:-1], perm[1:])
            shared[1:][group[perm][1:] != group[perm][:-1]] = -1
        depths = np.arange(self.width)
        present = depths <= self.leaves()[0][perm][:, None]
        start = present & (depths > shared[:, None])
        ids = np.cumsum(start.T.ravel(), dtype=np.int32).reshape(self.width, n).T - 1
        ids[~present] = -1
        out = np.empty_like(ids)
        out[perm] = ids
        return out, int(start.sum())


class PrefixLattice(Lattice):
    """A binary prefix hierarchy over ``bits``-bit values (IP addresses,
    adaptive port blocks): a row's key at depth ``d`` is its value's top
    ``d`` bits, computed on demand; rows without a value (``has`` false)
    stop at the root."""

    def __init__(self, values: np.ndarray, has: np.ndarray, bits: int, node_type) -> None:
        super().__init__(
            None,
            (np.where(has, values, -1),),
            lambda depth, key: node_type(key << (bits - depth), depth),
        )
        self.values = values
        self.has = has
        self.bits = bits
        self.node_type = node_type

    @property
    def width(self) -> int:
        return self.bits + 1

    def take(self, rows: np.ndarray) -> "PrefixLattice":
        return PrefixLattice(self.values[rows], self.has[rows], self.bits, self.node_type)

    def leaves(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.where(self.has, self.bits, 0), np.where(self.has, self.values, 0)

    def key_at(self, rows: np.ndarray, depth: np.ndarray) -> np.ndarray:
        return np.where(self.has[rows], self.values[rows] >> (self.bits - depth), 0)

    def shared_depth(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # frexp's exponent is the bit length, exactly, below 2**53.
        differ = np.frexp((self.values[a] ^ self.values[b]).astype(np.float64))[1]
        return np.where(self.has[a] & self.has[b], self.bits - differ, 0)


@dataclass
class Found:
    """Reported clusters of a segmented run, group by group, each group's
    highest residual first (ties in report order).  ``depth`` and ``key``
    are ``(n, n_dims)``: the cluster's node on each dimension."""

    group: np.ndarray
    depth: np.ndarray
    key: np.ndarray
    weight: np.ndarray
    residual: np.ndarray

    def nodes(self, lattices: Sequence[Lattice], i: int) -> Tuple[object, ...]:
        depth, key = self.depth[i].tolist(), self.key[i].tolist()
        return tuple(
            lattice.node(d, k) for lattice, d, k in zip(lattices, depth, key)
        )


class _Dim:
    """Pass-1 state of one lattice: node ids, weights and pruned options."""

    def __init__(
        self,
        lattice: Lattice,
        weights: np.ndarray,
        group: np.ndarray,
        thresholds: np.ndarray,
        first_rows: np.ndarray,
    ) -> None:
        self.lattice = lattice
        ids, n_nodes = lattice.node_ids(group)
        self.ids = ids
        n, width = ids.shape
        # Per node (shifted by one: bin 0 collects the ``-1`` entries):
        # weight summed in row order, depth and a row holding it.
        slot = ids.ravel() + 1
        weight = np.bincount(
            slot, weights=np.repeat(weights, width), minlength=n_nodes + 1
        )[1:]
        self.level = np.empty(n_nodes + 1, dtype=np.int32)
        self.level[slot] = np.tile(np.arange(width, dtype=np.int32), n)
        self.level = self.level[1:]
        self.rep = np.empty(n_nodes + 1, dtype=np.int32)
        self.rep[slot] = np.repeat(np.arange(n, dtype=np.int32), width)
        self.rep = self.rep[1:]
        del slot
        # Significant nodes, plus the root each group's first item reaches
        # (the dimension root is always a candidate, so multidimensional
        # clusters can fall back to "any" on this dimension).
        significant = weight >= thresholds[group[self.rep]]
        significant[ids[first_rows, 0]] = True
        # Chain pruning: a node whose weight does not exceed its heaviest
        # significant child is redundant — any combination using it scores
        # the same as the more specific combination, so residual
        # compression would never report it.
        child_max = np.zeros(n_nodes)
        kids = np.flatnonzero(significant & (self.level > 0))
        parents = ids[self.rep[kids], self.level[kids] - 1]
        on = significant[parents]
        np.maximum.at(child_max, parents[on], weight[kids[on]])
        kept = significant & ((self.level == 0) | (weight > child_max))
        self.rank = np.cumsum(kept, dtype=np.int32) - 1
        self.n_kept = int(self.rank[-1]) + 1
        # Options: per row, its kept ancestors, most specific first; the
        # last is the root.
        leaf_first = ids[:, ::-1]
        usable = kept[leaf_first] & (leaf_first >= 0)
        position = np.cumsum(usable, axis=1, dtype=np.int32)
        self.count = position[:, -1].astype(np.int64)
        self.options = np.full((n, width), -1, dtype=np.int32)
        r, c = np.nonzero(usable)
        self.options[r, position[r, c] - 1] = leaf_first[r, c]


def _dense(key: np.ndarray) -> np.ndarray:
    return np.unique(key, return_inverse=True)[1].reshape(-1)


def _trim(dims: List[_Dim], max_combos: int) -> np.ndarray:
    """Per row, option counts after the ``max_combos`` cap: while a row's
    cross product exceeds it, its longest dimension (the first, on ties)
    keeps only its most specific option and its root.  Returns the
    ``(rows, dims)`` counts."""
    counts = np.stack([dim.count for dim in dims], axis=1)
    # Float products: exact below 2**53, and above it far over any cap.
    over = np.flatnonzero(np.prod(np.maximum(counts, 1).astype(float), axis=1) > max_combos)
    while len(over):
        sub = counts[over]
        longest = np.argmax(sub, axis=1)
        length = sub[np.arange(len(over)), longest]
        go = length > 2
        over, longest, length = over[go], longest[go], length[go]
        for d, dim in enumerate(dims):
            rows = over[longest == d]
            dim.options[rows, 1] = dim.options[rows, length[longest == d] - 1]
            counts[rows, d] = 2
        over = over[
            np.prod(np.maximum(counts[over], 1).astype(float), axis=1) > max_combos
        ]
    return counts


def segmented_autofocus(
    lattices: Sequence[Lattice],
    weights: np.ndarray,
    group: np.ndarray,
    thresholds: np.ndarray,
    max_combos: int,
) -> Found:
    """Multidimensional AutoFocus over many groups of items at once.

    Rows are items, ordered by ``group`` (non-decreasing) and, within a
    group, in item order; group ``g`` reports against ``thresholds[g]``.
    ``max_combos`` is ``MultiAutoFocus.max_combos_per_item``.  Each group's
    clusters equal one ``MultiAutoFocus.run`` over its items with that
    threshold (same nodes, order, and floats).
    """
    weights = np.asarray(weights, dtype=np.float64)
    group = np.asarray(group, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = len(weights)
    n_dims = len(lattices)
    if n == 0:
        empty = np.zeros((0, n_dims), dtype=np.int64)
        return Found(group[:0], empty, empty, weights[:0], weights[:0])
    first_rows = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    dims = [_Dim(lattice, weights, group, thresholds, first_rows) for lattice in lattices]

    # Pass 2: true weights of candidate combinations.  Row ``i`` has
    # ``prod(counts[i])`` combos; combo ``t`` of a row takes its digits in
    # mixed radix ``counts[i]``, the last dimension varying fastest, as in
    # ``itertools.product``.  Combos are keyed by (group, per-dimension
    # kept-node rank), densified whenever the key would outgrow int64.
    counts = _trim(dims, max_combos)
    per_row = np.prod(counts, axis=1)
    offsets = np.cumsum(per_row) - per_row
    item = np.repeat(np.arange(n), per_row)
    t = np.arange(len(item)) - offsets[item]
    key = group[item]
    radix = len(thresholds)
    for d, node in _digits(dims, counts, item, t):
        dim = dims[d]
        if radix * dim.n_kept >= 1 << 62:
            key = _dense(key)
            radix = int(key.max()) + 1
        key = key * dim.n_kept + dim.rank[node]
        radix *= dim.n_kept
    _unique, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    combo_weight = np.bincount(inverse.reshape(-1), weights=weights[item])
    combo_group = group[item[first]]
    cand = np.flatnonzero(combo_weight >= thresholds[combo_group])

    # Pass 3: compression by residual, most specific first (ties: heavier,
    # then first seen).
    first, weight, cgroup = first[cand], combo_weight[cand], combo_group[cand]
    nodes = np.zeros((len(cand), n_dims), dtype=np.int64)
    for d, node in _digits(dims, counts, item[first], t[first]):
        nodes[:, d] = node
    depth_sum = sum(dim.level[nodes[:, d]] for d, dim in enumerate(dims))
    order = np.lexsort((first, -weight, -depth_sum, cgroup))
    nodes, weight, cgroup = nodes[order], weight[order], cgroup[order]
    picked, residual = _compress(dims, nodes, weight, cgroup, thresholds)

    out = np.lexsort((np.arange(len(picked)), -residual, cgroup[picked]))
    picked, residual = picked[out], residual[out]
    chosen = nodes[picked]
    depth = np.stack(
        [dim.level[chosen[:, d]] for d, dim in enumerate(dims)], axis=1
    ).reshape(len(picked), n_dims)
    keys = np.stack(
        [
            dim.lattice.key_at(dim.rep[chosen[:, d]], depth[:, d])
            for d, dim in enumerate(dims)
        ],
        axis=1,
    ).reshape(len(picked), n_dims)
    return Found(cgroup[picked], depth, keys, weight[picked], residual)


def _digits(dims: List[_Dim], counts: np.ndarray, rows: np.ndarray, t: np.ndarray):
    """For combos ``t`` of ``rows``: ``(d, node)`` per dimension, last
    dimension first."""
    rest = t.copy()
    for d in reversed(range(len(dims))):
        count = counts[:, d][rows]
        digit = rest % count
        rest //= count
        options = dims[d].options
        yield d, options.ravel()[rows * options.shape[1] + digit]


def _compress(
    dims: List[_Dim],
    nodes: np.ndarray,
    weight: np.ndarray,
    group: np.ndarray,
    thresholds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Residual compression over group-sorted candidates, in rounds.

    Each round reports, per group, the next candidate whose ``weight −
    explained`` reaches the threshold (the ones it passes over stay
    rejected: later reports only explain later candidates), then adds its
    residual to the explained weight of the group's later candidates
    containing it — those whose node on every dimension is one of the
    reported node's ancestors, marked in a per-dimension table.  Explained
    weights add up in report order.  Returns the reported candidates, in
    report order per group, and their residuals.
    """
    index = np.arange(len(weight))
    floor = thresholds[group]
    explained = np.zeros(len(weight))
    columns = [nodes[:, d] for d in range(len(dims))]
    marks = [np.zeros(len(dim.level), dtype=bool) for dim in dims]
    slot_of = np.full(len(thresholds), -1, dtype=np.int64)
    picked: List[np.ndarray] = []
    residuals: List[np.ndarray] = []
    while len(index):
        residual = weight - explained
        ok = np.flatnonzero(residual >= floor)
        if not len(ok):
            break
        heads = ok[np.r_[True, group[ok][1:] != group[ok][:-1]]]
        residual = residual[heads]
        picked.append(index[heads])
        residuals.append(residual)
        head_nodes = [column[heads] for column in columns]
        slot_of[group[heads]] = np.arange(len(heads))
        slot = slot_of[group]
        slot_of[group[heads]] = -1
        keep = slot >= 0
        keep[keep] = np.arange(len(index))[keep] > heads[slot[keep]]
        index, weight, floor, group, explained, slot = (
            a[keep] for a in (index, weight, floor, group, explained, slot)
        )
        columns = [column[keep] for column in columns]
        contained = np.ones(len(index), dtype=bool)
        for dim, column, mark, node in zip(dims, columns, marks, head_nodes):
            lineage = dim.ids[dim.rep[node]]
            lineage = lineage[np.arange(lineage.shape[1]) <= dim.level[node][:, None]]
            mark[lineage] = True
            contained &= mark[column]
            mark[lineage] = False
        explained[contained] += residual[slot[contained]]
    if not picked:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(picked), np.concatenate(residuals)


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
    #: Per-item cap on the candidate cross product.  When an item's options
    #: multiply out beyond this, the longest dimensions are trimmed (keeping
    #: the most specific nodes plus the root), trading cluster granularity
    #: for bounded runtime.  High-dimensional single-pass runs need this,
    #: and it binds on the decoupled pipeline too: Fig. 14 reports 385
    #: patterns with it and 389 without.
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
        total = sum_in_order(weight for _item, weight in items)
        if total <= 0:
            return []
        if threshold is None:
            threshold = total * self.threshold_fraction
        if threshold <= 0:
            raise AggregationError(f"threshold must be positive, got {threshold}")

        leaves = [self.to_leaf_nodes(item) for item, _weight in items]
        lattices = [
            Lattice.of_nodes([leaf[d] for leaf in leaves]) for d in range(len(leaves[0]))
        ]
        found = segmented_autofocus(
            lattices,
            np.array([weight for _item, weight in items], dtype=np.float64),
            np.zeros(len(items), dtype=np.int64),
            np.array([threshold], dtype=np.float64),
            self.max_combos_per_item,
        )
        return [
            Cluster(
                nodes=found.nodes(lattices, i),
                weight=float(found.weight[i]),
                residual=float(found.residual[i]),
            )
            for i in range(len(found.weight))
        ]
