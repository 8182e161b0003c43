"""Microscope's core diagnosis: queuing periods, scores, propagation,
recursion, victim selection and reporting."""

from repro.core.columnar import (
    ColumnarPathDecomposition,
    TraceColumns,
    attach_trace,
    share_trace,
)
from repro.core.diagnosis import (
    CacheStats,
    Culprit,
    MicroscopeEngine,
    VictimDiagnosis,
)
from repro.core.explain import explain, explain_many
from repro.core.local import LocalScores, local_scores, local_scores_batch
from repro.core.propagation import (
    EntityShare,
    PathAttribution,
    attribute_reductions,
    propagation_scores,
)
from repro.core.queuing import QueuingAnalyzer, QueuingPeriod, periods_from_batches
from repro.core.records import (
    ColumnarNFView,
    DiagTrace,
    PacketHop,
    PacketRows,
    PacketView,
)
from repro.core.streaming import ChunkResult, StreamingConfig, StreamingDiagnosis
from repro.core.report import (
    CausalRelation,
    RelationColumns,
    causal_relations,
    format_ranking,
    rank_of_entity,
    ranked_entities,
)
from repro.core.victims import Victim, VictimSelector

__all__ = [
    "CacheStats",
    "CausalRelation",
    "ChunkResult",
    "ColumnarNFView",
    "ColumnarPathDecomposition",
    "Culprit",
    "TraceColumns",
    "DiagTrace",
    "EntityShare",
    "LocalScores",
    "MicroscopeEngine",
    "PacketHop",
    "PacketRows",
    "PacketView",
    "PathAttribution",
    "QueuingAnalyzer",
    "QueuingPeriod",
    "RelationColumns",
    "StreamingConfig",
    "StreamingDiagnosis",
    "Victim",
    "VictimDiagnosis",
    "VictimSelector",
    "attach_trace",
    "attribute_reductions",
    "causal_relations",
    "explain",
    "explain_many",
    "format_ranking",
    "local_scores",
    "local_scores_batch",
    "periods_from_batches",
    "propagation_scores",
    "rank_of_entity",
    "ranked_entities",
    "share_trace",
]
