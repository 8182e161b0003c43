"""Propagation diagnosis: timespan analysis over PreSet(p) (section 4.2).

When the input-workload score ``Si`` at the victim NF is positive, the
burstiness of the arriving PreSet packets is attributed along each path
those packets took, by comparing the PreSet's *timespan* (first-to-last
departure) at every upstream hop against the expected timespan
``T_exp = n_i(T) / r_f``.

Attribution walks the hop sequence ``[T_exp, T_source, T_1, ..., T_k]``:
each hop's raw contribution is the timespan reduction it introduced; hops
that *expand* the timespan contribute zero and their expansion is charged
against the previous reducing hop (the paper's Figure 6 rule), implemented
as a backward deficit-carrying pass.

For DAGs the PreSet is partitioned by path; every path uses the same
``T_exp`` (interleaving argument in the paper), each path weighs ``Si`` by
its packet share, and merged per-NF scores are proportionally scaled down
if they exceed ``Si``.

Fast path: the expensive part — grouping PreSet packets by path and
collecting per-hop departure extents — depends only on the victim NF and
the PreSet *stream*, not on ``si``/``texp``.
:class:`~repro.core.columnar.ColumnarPathDecomposition` performs that
walk once and answers any PreSet *prefix* via prefix-min/max arrays, so
the diagnosis engine can reuse one decomposition across every victim of
the same queuing period (their PreSets are prefixes of each other).
``propagation_scores`` always computes through a decomposition, which
keeps cached and uncached results bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarPathDecomposition
from repro.core.records import DiagTrace
from repro.errors import DiagnosisError
from repro.util.arrays import sum_in_order


@dataclass(frozen=True)
class EntityShare:
    """Score assigned to one upstream entity (a source or an NF).

    ``first_hop_arrival`` is ``(pid, arrival_ns)`` of the earliest
    ``subset_pids`` arrival at the entity (NF entities only; ties broken
    by smallest pid, exactly like a scan over the sorted subset).  The
    engine's recursion uses it to locate the upstream queuing period
    without re-walking the subset.
    """

    name: str
    is_source: bool
    score: float
    subset_pids: Tuple[int, ...]
    first_hop_arrival: Optional[Tuple[int, int]] = None


@dataclass
class PathAttribution:
    """Diagnostic detail for one PreSet path (exposed for tests/reports)."""

    path: Tuple[str, ...]  # (source, nf1, ..., nfk)
    subset_pids: Tuple[int, ...]
    timespans_ns: Tuple[float, ...]  # aligned with path entries
    contributions: Tuple[float, ...]
    share_of_si: float


def attribute_reductions(sequence: Sequence[float]) -> List[float]:
    """Backward deficit-carrying attribution over a timespan sequence.

    ``sequence`` is ``[T_exp, T_source, T_1, ..., T_k]``; the return value
    has one non-negative contribution per *entity* (source and each NF),
    i.e. ``len(sequence) - 1`` entries.  A hop that expands the timespan
    gets zero and its expansion is subtracted from earlier reducers.
    """
    if len(sequence) < 2:
        raise DiagnosisError("timespan sequence needs at least two entries")
    raw = [sequence[i] - sequence[i + 1] for i in range(len(sequence) - 1)]
    contributions = [0.0] * len(raw)
    carry = 0.0
    for j in range(len(raw) - 1, -1, -1):
        value = raw[j] + carry
        if value < 0:
            contributions[j] = 0.0
            carry = value
        else:
            contributions[j] = value
            carry = 0.0
    return contributions


def propagation_scores(
    trace: DiagTrace,
    victim_nf: str,
    preset_pids: Sequence[int],
    si: float,
    texp_ns: float,
    decomposition: Optional[ColumnarPathDecomposition] = None,
) -> Tuple[List[EntityShare], List[PathAttribution]]:
    """Split ``si`` among upstream entities for the given PreSet.

    ``decomposition``, when given, must be a path decomposition for
    ``(trace, victim_nf)`` whose consumed stream ``preset_pids`` is a
    prefix of (it is extended as needed).  Passing one only changes the
    cost, never the result.
    """
    if si < 0:
        raise DiagnosisError(f"si must be non-negative, got {si}")
    if not preset_pids or si == 0:
        return [], []

    if decomposition is None:
        decomposition = ColumnarPathDecomposition(trace, victim_nf)
    m = decomposition.ensure(preset_pids)
    groups = decomposition.prefix_groups(m)

    total = sum(k for _group, k in groups)
    if total == 0:
        return [], []

    merged_scores: Dict[Tuple[str, bool], float] = {}
    merged_pids: Dict[Tuple[str, bool], List[int]] = {}
    merged_first: Dict[Tuple[str, bool], Tuple[int, int]] = {}  # (arrival, pid)
    attributions: List[PathAttribution] = []

    for group, k in groups:
        path = group.path
        source, nf_hops = path[0], path[1:]
        pids = group.pids[:k]
        spans: List[float] = [texp_ns]
        spans.extend(group.spans(k))
        contributions = attribute_reductions(spans)
        weight = k / total
        share = si * weight
        total_contrib = sum_in_order(contributions)
        attributions.append(
            PathAttribution(
                path=path,
                subset_pids=tuple(sorted(set(pids))),
                timespans_ns=tuple(spans),
                contributions=tuple(contributions),
                share_of_si=share,
            )
        )
        if total_contrib <= 0:
            continue
        entities = [(source, True)] + [(nf, False) for nf in nf_hops]
        for entity_idx, ((name, is_source), contrib) in enumerate(
            zip(entities, contributions)
        ):
            if contrib <= 0:
                continue
            score = share * contrib / total_contrib
            key = (name, is_source)
            merged_scores[key] = merged_scores.get(key, 0.0) + score
            merged_pids.setdefault(key, []).extend(pids)
            if not is_source:
                first = group.first_at(entity_idx - 1, k)
                current = merged_first.get(key)
                if current is None or first < current:
                    merged_first[key] = first

    # Safety scale-down: per-path weighting keeps the sum at or below si,
    # but guard against float drift (and future attribution variants).
    grand_total = sum_in_order(merged_scores.values())
    scale = 1.0
    if grand_total > si > 0:
        scale = si / grand_total

    shares = [
        EntityShare(
            name=name,
            is_source=is_source,
            score=score * scale,
            subset_pids=tuple(sorted(set(merged_pids[(name, is_source)]))),
            first_hop_arrival=(
                None
                if (first := merged_first.get((name, is_source))) is None
                else (first[1], first[0])
            ),
        )
        for (name, is_source), score in merged_scores.items()
    ]
    shares.sort(key=lambda s: -s.score)
    return shares, attributions
