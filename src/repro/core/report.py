"""Ranked culprit reports and packet-level causal relations.

Turns the engine's :class:`~repro.core.diagnosis.Culprit` records into

* a **ranked entity list** per victim — the representation compared
  against NetMedic's ranked component list in the paper's accuracy plots
  (Figures 11-12); entities are ``('nf', name)`` for local culprits and
  ``('flow', five_tuple)`` / ``('source', name)`` for traffic culprits,
* **causal relations** <culprit packets, culprit location> →
  <victim packet, victim NF>: score — the input format of pattern
  aggregation (section 4.4).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.diagnosis import Culprit, VictimDiagnosis
from repro.core.records import DiagTrace
from repro.nfv.packet import FiveTuple

#: Entity keys used in ranked lists.
Entity = Tuple[str, object]  # ('nf', name) | ('flow', FiveTuple) | ('source', name)


@dataclass(frozen=True)
class CausalRelation:
    """One packet-level causal relation for pattern aggregation."""

    culprit_flow: Optional[FiveTuple]
    culprit_location: str
    victim_flow: FiveTuple
    victim_location: str
    score: float
    gap_ns: int  # victim time minus culprit time (Figure 15)
    culprit_kind: str  # 'local' | 'source' | 'low-evidence'


def ranked_entities(
    diagnosis: VictimDiagnosis,
    trace: DiagTrace,
    flow_detail: bool = True,
) -> List[Tuple[Entity, float]]:
    """Merge a victim's culprits into a ranked (entity, score) list.

    Local culprits rank as their NF, and so do low-evidence culprits —
    the blame demonstrably reached that NF even if its telemetry was too
    degraded to split further.  Source culprits are split across the
    flows of their culprit packets when ``flow_detail`` is set (Microscope
    names culprit *flows*); otherwise they rank as the source node.
    """
    scores: Dict[Entity, float] = defaultdict(float)
    for culprit in diagnosis.culprits:
        if culprit.kind in ("local", "low-evidence"):
            scores[("nf", culprit.location)] += culprit.score
        elif flow_detail:
            flow_counts = trace.columns().flow_counts(culprit.culprit_pids)
            total = sum(flow_counts.values())
            if total == 0:
                scores[("source", culprit.location)] += culprit.score
                continue
            for flow, count in flow_counts.items():
                scores[("flow", flow)] += culprit.score * count / total
        else:
            scores[("source", culprit.location)] += culprit.score
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    return ranked


def rank_of_entity(
    ranking: Sequence[Tuple[Entity, float]],
    match,
) -> Optional[int]:
    """1-based rank of the first entity satisfying ``match``; None if absent."""
    for position, (entity, _score) in enumerate(ranking, start=1):
        if match(entity):
            return position
    return None


class RelationColumns(SequenceABC):
    """Causal relations as columns, one row per relation.

    ``victim_flow`` and ``culprit_flow`` are codes into ``flow_keys`` (an
    ``m×5`` int array of five-tuple fields; ``-1`` is no flow),
    ``victim_location`` / ``culprit_location`` codes into ``locations``,
    ``culprit_kind`` codes into ``kinds``; ``score`` and ``gap_ns`` are the
    values.  Indexing and iteration build :class:`CausalRelation` rows on
    demand, as ``trace.packets`` builds packet rows; a slice is a column
    view.  :meth:`of` turns any relation sequence into columns.
    """

    def __init__(
        self,
        flow_keys,
        locations: Sequence[str],
        kinds: Sequence[str],
        victim_flow,
        victim_location,
        culprit_flow,
        culprit_location,
        score,
        gap_ns,
        culprit_kind,
    ) -> None:
        self.flow_keys = np.asarray(flow_keys, dtype=np.int64).reshape(-1, 5)
        self.locations = list(locations)
        self.kinds = list(kinds)
        self.victim_flow = victim_flow
        self.victim_location = victim_location
        self.culprit_flow = culprit_flow
        self.culprit_location = culprit_location
        self.score = score
        self.gap_ns = gap_ns
        self.culprit_kind = culprit_kind
        self._flows: Dict[int, FiveTuple] = {}

    @classmethod
    def of(cls, relations: Iterable[CausalRelation]) -> "RelationColumns":
        """Columns of ``relations`` (returned as is when already columns)."""
        if isinstance(relations, RelationColumns):
            return relations
        flows: Dict[FiveTuple, int] = {}
        locations: Dict[str, int] = {}
        kinds: Dict[str, int] = {}

        def flow_code(flow: Optional[FiveTuple]) -> int:
            return -1 if flow is None else flows.setdefault(flow, len(flows))

        rows = [
            (
                flow_code(r.victim_flow),
                locations.setdefault(r.victim_location, len(locations)),
                flow_code(r.culprit_flow),
                locations.setdefault(r.culprit_location, len(locations)),
                r.score,
                r.gap_ns,
                kinds.setdefault(r.culprit_kind, len(kinds)),
            )
            for r in relations
        ]
        columns = list(zip(*rows)) or [()] * 7
        ints = [np.array(col, dtype=np.int64) for col in columns]
        return cls(
            [flow.as_tuple() for flow in flows],
            list(locations),
            list(kinds),
            ints[0],
            ints[1],
            ints[2],
            ints[3],
            np.array(columns[4], dtype=np.float64),
            ints[5],
            ints[6],
        )

    def __len__(self) -> int:
        return len(self.score)

    def flow(self, code: int) -> Optional[FiveTuple]:
        """The :class:`FiveTuple` of flow ``code`` (None for ``-1``)."""
        if code < 0:
            return None
        flow = self._flows.get(code)
        if flow is None:
            flow = self._flows[code] = FiveTuple(*self.flow_keys[code].tolist())
        return flow

    def _row(self, i: int) -> CausalRelation:
        return CausalRelation(
            culprit_flow=self.flow(int(self.culprit_flow[i])),
            culprit_location=self.locations[self.culprit_location[i]],
            victim_flow=self.flow(int(self.victim_flow[i])),
            victim_location=self.locations[self.victim_location[i]],
            score=float(self.score[i]),
            gap_ns=int(self.gap_ns[i]),
            culprit_kind=self.kinds[self.culprit_kind[i]],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = RelationColumns(
                self.flow_keys, self.locations, self.kinds,
                *(getattr(self, name)[index] for name in _RELATION_COLUMNS),
            )
            view._flows = self._flows
            return view
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"relation index {index} out of range")
        return self._row(index % n)

    def __iter__(self) -> Iterator[CausalRelation]:
        for i in range(len(self)):
            yield self._row(i)


#: Culprit pids looked up per batch in ``causal_relations``: bounds the
#: pass's temporary arrays, whatever the number of culprits.  On the
#: seed-3 ``offline-postmortem`` dump (754 distinct pid tuples, 231,767
#: pids: eight batches) the pass peaks at 2.5 MB of traced allocations,
#: against 13.5 MB as one batch, and the process peak RSS 3 MB lower.
_PIDS_PER_BATCH = 1 << 15


def _segment_flows(segments: List[Tuple[int, ...]], cols) -> Tuple[np.ndarray, ...]:
    """``(segment, code, count)`` per (pid tuple, flow) pair, each
    segment's pairs by count (most first), ties in first-occurrence order.
    Segments are looked up in batches of about ``_PIDS_PER_BATCH`` pids."""
    lengths = np.fromiter(map(len, segments), dtype=np.int64, count=len(segments))
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_PIDS_PER_BATCH, total, _PIDS_PER_BATCH))
    bounds = [0, *sorted(set(cuts.tolist()) - {0, len(segments)}), len(segments)]
    flow_code, flow_keys = cols.flow_codes()
    radix = max(1, len(flow_keys))
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        pids = np.fromiter(
            chain.from_iterable(segments[lo:hi]),
            dtype=np.int64,
            count=int(lengths[lo:hi].sum()),
        )
        rows = cols.rows_for_pids(pids)
        found = rows >= 0
        seg = np.repeat(np.arange(lo, hi, dtype=np.int64), lengths[lo:hi])[found]
        pairs, first, counts = np.unique(
            seg * radix + flow_code[rows[found]], return_index=True, return_counts=True
        )
        order = np.lexsort((first, -counts, pairs // radix))
        parts.append((pairs[order] // radix, pairs[order] % radix, counts[order]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate(column) for column in zip(*parts))


_RELATION_COLUMNS = (
    "victim_flow",
    "victim_location",
    "culprit_flow",
    "culprit_location",
    "score",
    "gap_ns",
    "culprit_kind",
)


def causal_relations(
    diagnoses: Iterable[VictimDiagnosis],
    trace: DiagTrace,
    max_culprit_flows: int = 16,
) -> RelationColumns:
    """Flatten diagnoses into per-flow causal relations for aggregation.

    Each culprit's score is split across the flows of its culprit packets
    (bounded to the ``max_culprit_flows`` most frequent flows, ties in
    first-occurrence order, to keep the aggregation input proportional to
    the real signal).  Victims whose packet the trace lacks are skipped; a
    culprit whose packets it lacks is one relation without a flow.

    One pass over all culprits: the distinct culprit pid tuples are
    concatenated with a segment id, mapped to ``TraceColumns.flow_codes``
    codes, and ``np.unique`` over (segment, code) gives each pair's first
    index and count.
    """
    cols = trace.columns()
    flow_code, flow_keys = cols.flow_codes()
    diagnoses = list(diagnoses)
    victim_rows = cols.rows_for_pids([d.victim.pid for d in diagnoses]).tolist()
    locations: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    distinct: Dict[Tuple[int, ...], int] = {}
    culprits = []  # victim row, victim NF, location, score, gap, kind, pid tuple
    for diagnosis, victim_row in zip(diagnoses, victim_rows):
        if victim_row < 0:
            continue
        victim_nf = locations.setdefault(diagnosis.victim.nf, len(locations))
        victim_time = diagnosis.victim.arrival_ns
        for culprit in diagnosis.culprits:
            culprits.append(
                (
                    victim_row,
                    victim_nf,
                    locations.setdefault(culprit.location, len(locations)),
                    culprit.score,
                    max(0, victim_time - culprit.culprit_time_ns),
                    kinds.setdefault(culprit.kind, len(kinds)),
                    distinct.setdefault(tuple(culprit.culprit_pids), len(distinct)),
                )
            )
    columns = [np.array(c) for c in zip(*culprits)] or [np.zeros(0, np.int64)] * 7
    columns[3] = columns[3].astype(np.float64)
    victim_row, victim_nf, location, score, gap, kind, segment = columns

    # Per distinct pid tuple (a segment): its (flow code, count) pairs,
    # most packets first, ties in first-occurrence order, cut as
    # ``sorted(...)[:max_culprit_flows]`` cuts.
    pair_seg, pair_code, counts = _segment_flows(list(distinct), cols)
    n_seg = len(distinct)
    per_seg = np.bincount(pair_seg, minlength=n_seg)
    rank = np.arange(len(pair_seg)) - np.repeat(np.cumsum(per_seg) - per_seg, per_seg)
    top = rank < max_culprit_flows
    pair_seg, counts, pair_code = pair_seg[top], counts[top], pair_code[top]
    totals = np.bincount(pair_seg, weights=counts, minlength=n_seg)
    # A segment without packets in the trace is one flowless entry whose
    # score is the culprit's own (``score * 1 / 1``).
    flowless = np.flatnonzero(per_seg == 0)
    entry_seg = np.concatenate([pair_seg, flowless])
    order = np.argsort(entry_seg, kind="stable")
    entry_code = np.concatenate([pair_code, np.full(len(flowless), -1)])[order]
    entry_count = np.concatenate([counts, np.ones(len(flowless), np.int64)])[order]
    entry_total = np.concatenate([totals[pair_seg], np.ones(len(flowless))])[order]
    size = np.bincount(entry_seg, minlength=n_seg)
    start = np.cumsum(size) - size

    # One block of entries per culprit, in diagnosis order.
    n = size[segment]
    owner = np.repeat(np.arange(len(segment)), n)
    entry = np.repeat(start[segment], n) + np.arange(len(owner)) - np.repeat(
        np.cumsum(n) - n, n
    )
    return RelationColumns(
        flow_keys,
        list(locations),
        list(kinds),
        flow_code[victim_row][owner],
        victim_nf[owner],
        entry_code[entry],
        location[owner],
        score[owner] * entry_count[entry] / entry_total[entry],
        gap[owner],
        kind[owner],
    )


def format_ranking(ranking: Sequence[Tuple[Entity, float]], limit: int = 10) -> str:
    """Human-readable ranked culprit list."""
    lines = []
    for position, (entity, score) in enumerate(ranking[:limit], start=1):
        kind, value = entity
        lines.append(f"{position:>3}. [{kind}] {value}  score={score:.2f}")
    return "\n".join(lines)
