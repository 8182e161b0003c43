"""Reference path decomposition: the object walk over packet hop lists.

``_PathGroup`` and ``PathDecomposition`` are the implementation
``repro.core.columnar.ColumnarPathDecomposition`` replaced, moved here
unedited.  They answer the same prefix queries (``ensure`` /
``prefix_groups``; per group ``path`` / ``pids`` / ``spans`` /
``first_at``) with identical integers, so handing one to
``propagation_scores(decomposition=...)`` must never change its result.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.core.records import DiagTrace


class _PathGroup:
    """One path's PreSet members with prefix-extent arrays.

    ``positions[i]`` is the i-th member's index in the full PreSet stream;
    ``emit_min/emit_max[i]`` (and per-hop ``hop_min/hop_max[h][i]``) hold
    the running min/max over members ``0..i``, so any PreSet prefix's
    timespans read off in O(1) after a bisect on ``positions``.
    """

    __slots__ = (
        "path",
        "pids",
        "positions",
        "emit_min",
        "emit_max",
        "hop_min",
        "hop_max",
        "hop_first",
    )

    def __init__(self, path: Tuple[str, ...]) -> None:
        self.path = path
        self.pids: List[int] = []
        self.positions: List[int] = []
        self.emit_min: List[int] = []
        self.emit_max: List[int] = []
        n_hops = len(path) - 1
        self.hop_min: List[List[int]] = [[] for _ in range(n_hops)]
        self.hop_max: List[List[int]] = [[] for _ in range(n_hops)]
        # Prefix min of (arrival_ns, pid) per hop: the earliest member
        # arrival there, smallest pid on ties (see EntityShare).
        self.hop_first: List[List[Tuple[int, int]]] = [[] for _ in range(n_hops)]

    def add(
        self,
        pid: int,
        position: int,
        emit_ns: int,
        arrivals: Tuple[int, ...],
        departs: Tuple[int, ...],
    ) -> None:
        prev = len(self.pids) - 1
        self.pids.append(pid)
        self.positions.append(position)
        if prev < 0:
            self.emit_min.append(emit_ns)
            self.emit_max.append(emit_ns)
            for h, depart in enumerate(departs):
                self.hop_min[h].append(depart)
                self.hop_max[h].append(depart)
                self.hop_first[h].append((arrivals[h], pid))
        else:
            self.emit_min.append(min(self.emit_min[prev], emit_ns))
            self.emit_max.append(max(self.emit_max[prev], emit_ns))
            for h, depart in enumerate(departs):
                self.hop_min[h].append(min(self.hop_min[h][prev], depart))
                self.hop_max[h].append(max(self.hop_max[h][prev], depart))
                self.hop_first[h].append(
                    min(self.hop_first[h][prev], (arrivals[h], pid))
                )

    def prefix_count(self, m: int) -> int:
        """How many members sit in the first ``m`` PreSet entries."""
        return bisect.bisect_right(self.positions, m - 1)

    def first_at(self, h: int, k: int) -> Tuple[int, int]:
        """Earliest (arrival_ns, pid) at hop ``h`` among the first ``k``
        members — the prefix-min the columnar group answers from packed
        int64 columns, exposed here under the same name."""
        return self.hop_first[h][k - 1]

    def spans(self, k: int) -> List[float]:
        """[T_source, T_1, ..., T_k] over the first ``k`` members."""
        last = k - 1
        result = [float(self.emit_max[last] - self.emit_min[last])]
        for h in range(len(self.hop_min)):
            result.append(float(self.hop_max[h][last] - self.hop_min[h][last]))
        return result


class PathDecomposition:
    """Path grouping of one NF's PreSet stream, reusable across prefixes.

    Built (and extended) by consuming PreSet pids in arrival order; any
    victim whose PreSet is a prefix of the consumed stream queries it
    without re-walking packet hop lists.
    """

    def __init__(self, trace: DiagTrace, victim_nf: str) -> None:
        self.trace = trace
        self.victim_nf = victim_nf
        self._groups: Dict[Tuple[str, ...], _PathGroup] = {}
        self._order: List[_PathGroup] = []
        self.consumed = 0

    def extend(self, pids: Sequence[int]) -> None:
        """Append further PreSet entries (arrival order) to the stream."""
        packets = self.trace.packets
        victim_nf = self.victim_nf
        for pid in pids:
            position = self.consumed
            self.consumed += 1
            packet = packets.get(pid)
            if packet is None:
                continue
            names, arrivals, departs = packet.upstream_of(victim_nf)
            path = (packet.source,) + names
            group = self._groups.get(path)
            if group is None:
                group = _PathGroup(path)
                self._groups[path] = group
                self._order.append(group)
            group.add(pid, position, packet.emitted_ns, arrivals, departs)

    def ensure(self, preset_pids: Sequence[int]) -> int:
        """Consume any PreSet suffix not yet seen; return the prefix length.

        The caller guarantees ``preset_pids`` extends the stream consumed
        so far (true for queuing periods: a later victim's PreSet is a
        strict extension of an earlier victim's).
        """
        if len(preset_pids) > self.consumed:
            self.extend(preset_pids[self.consumed :])
        return len(preset_pids)

    def prefix_groups(self, m: int) -> List[Tuple[_PathGroup, int]]:
        """(group, member-count) pairs with >= 1 member in the length-``m``
        prefix, in first-occurrence order."""
        result: List[Tuple[_PathGroup, int]] = []
        for group in self._order:
            k = group.prefix_count(m)
            if k:
                result.append((group, k))
        return result
