"""Causal-pattern aggregation: hierarchies, AutoFocus, two-phase pipeline."""

from repro.aggregation.autofocus import Cluster, MultiAutoFocus
from repro.aggregation.hierarchy import (
    BinaryPortNode,
    LocationNode,
    PortNode,
    PrefixNode,
    ProtoNode,
    ancestors,
)
from repro.aggregation.patterns import (
    AggregationResult,
    FlowAggregate,
    Pattern,
    PatternAggregator,
)
from repro.aggregation.sketches import (
    BoundedCulpritTally,
    BoundedTallyEntry,
    tally_from_payload,
)
from repro.aggregation.tallies import CulpritTally, TallyEntry

__all__ = [
    "AggregationResult",
    "BinaryPortNode",
    "BoundedCulpritTally",
    "BoundedTallyEntry",
    "Cluster",
    "CulpritTally",
    "FlowAggregate",
    "LocationNode",
    "MultiAutoFocus",
    "Pattern",
    "PatternAggregator",
    "TallyEntry",
    "PortNode",
    "PrefixNode",
    "ProtoNode",
    "ancestors",
    "tally_from_payload",
]
