"""Per-culprit dataclass relations: the reference for ``causal_relations``.

What ``repro.core.report.causal_relations`` was before it built relation
columns in one pass over all culprits: one ``flow_counts`` dict per
culprit, a ``sorted`` top-``max_culprit_flows`` cut and one
:class:`~repro.core.report.CausalRelation` per row.  Moved here unedited.
The production columns must iterate to the same rows, ``score`` equal by
``float.hex`` (``tests/core/test_relation_parity.py``).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.diagnosis import VictimDiagnosis
from repro.core.records import DiagTrace
from repro.core.report import CausalRelation


def causal_relations(
    diagnoses: Iterable[VictimDiagnosis],
    trace: DiagTrace,
    max_culprit_flows: int = 16,
) -> List[CausalRelation]:
    """Flatten diagnoses into per-flow causal relations for aggregation.

    Each culprit's score is split across the flows of its culprit packets
    (bounded to the ``max_culprit_flows`` most frequent flows, to keep the
    aggregation input proportional to the real signal).
    """
    relations: List[CausalRelation] = []
    cols = trace.columns()
    for diagnosis in diagnoses:
        victim_flow = cols.flow_of(diagnosis.victim.pid)
        if victim_flow is None:
            continue
        victim_time = diagnosis.victim.arrival_ns
        for culprit in diagnosis.culprits:
            flow_counts = cols.flow_counts(culprit.culprit_pids)
            gap = max(0, victim_time - culprit.culprit_time_ns)
            if not flow_counts:
                relations.append(
                    CausalRelation(
                        culprit_flow=None,
                        culprit_location=culprit.location,
                        victim_flow=victim_flow,
                        victim_location=diagnosis.victim.nf,
                        score=culprit.score,
                        gap_ns=gap,
                        culprit_kind=culprit.kind,
                    )
                )
                continue
            top = sorted(flow_counts.items(), key=lambda kv: -kv[1])[:max_culprit_flows]
            total = sum(count for _flow, count in top)
            for flow, count in top:
                relations.append(
                    CausalRelation(
                        culprit_flow=flow,
                        culprit_location=culprit.location,
                        victim_flow=victim_flow,
                        victim_location=diagnosis.victim.nf,
                        score=culprit.score * count / total,
                        gap_ns=gap,
                        culprit_kind=culprit.kind,
                    )
                )
    return relations
