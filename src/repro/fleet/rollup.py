"""Cross-pipeline rollups: fleet-level causal-pattern reports.

A fleet of per-site pipelines produces one :class:`CulpritTally` each —
useful per site, but an operator running 14 sites wants "NAT slow path,
14 sites, 2.1M blame" once, not 14 times.  :class:`FleetRollup` merges
per-pipeline tallies by ``(kind, location)`` culprit identity and keeps
*provenance*: which pipelines saw each culprit, and how much blame each
contributed.

Determinism contract: the rollup is a pure fold over per-pipeline tallies
in sorted pipeline-name order, and every tally is itself reconstructible
from its pipeline's journal (:func:`tally_from_journal` replays the chunk
records exactly the way the service's checkpoint-restore path does).  So
``rollup(journals)`` is a deterministic function of the journal bytes —
and since the crash-only invariant makes those bytes restart-independent,
the fleet report is too: kill anything, restart, same rollup payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.aggregation.tallies import CulpritTally
from repro.errors import FleetError

_ROLLUP_VERSION = 1


@dataclass
class RollupEntry:
    """Fleet-wide accumulated blame for one (kind, location) culprit."""

    score: float = 0.0
    count: int = 0
    confidence_mass: float = 0.0
    #: Accumulated sketch error bound (zero when every contributing
    #: pipeline tallied this culprit exactly; see
    #: :class:`~repro.aggregation.sketches.BoundedCulpritTally`).  The
    #: true fleet-wide blame lies in ``[score - score_error, score]``.
    score_error: float = 0.0
    #: pipeline name -> blame contributed by that pipeline.
    per_pipeline: Dict[str, float] = field(default_factory=dict)

    @property
    def sites(self) -> int:
        """How many pipelines saw this culprit at all."""
        return len(self.per_pipeline)

    @property
    def exact(self) -> bool:
        return self.score_error == 0.0

    @property
    def mean_confidence(self) -> float:
        if self.score <= 0:
            return 1.0
        return self.confidence_mass / self.score


class FleetRollup:
    """Deterministic merge of per-pipeline culprit tallies."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], RollupEntry] = {}
        self._victims_per_pipeline: Dict[str, int] = {}
        self.pipelines: List[str] = []
        self.victims = 0
        self.culprits = 0
        self.total_score = 0.0

    def add(self, pipeline: str, tally: CulpritTally) -> None:
        """Fold one pipeline's tally in (call in sorted pipeline order)."""
        if pipeline in self._victims_per_pipeline:
            raise FleetError(f"pipeline {pipeline!r} already rolled up")
        self.pipelines.append(pipeline)
        self._victims_per_pipeline[pipeline] = tally.victims
        self.victims += tally.victims
        self.culprits += tally.culprits
        self.total_score += tally.total_score
        for key, entry in tally.entries():
            mine = self._entries.get(key)
            if mine is None:
                mine = self._entries[key] = RollupEntry()
            mine.score += entry.score
            mine.count += entry.count
            mine.confidence_mass += entry.confidence_mass
            mine.score_error += getattr(entry, "score_error", 0.0)
            mine.per_pipeline[pipeline] = entry.score

    @classmethod
    def from_tallies(
        cls, tallies: Mapping[str, CulpritTally]
    ) -> "FleetRollup":
        """Roll up ``{pipeline name: tally}`` in sorted-name order, so the
        float accumulation order — hence the payload — is independent of
        dict construction order and of which pipeline finished first."""
        rollup = cls()
        for name in sorted(tallies):
            rollup.add(name, tallies[name])
        return rollup

    # -- queries --------------------------------------------------------------

    def top(self, n: int = 10) -> List[Tuple[str, str, RollupEntry]]:
        """Heaviest fleet-wide offenders, ties broken lexically."""
        ranked = sorted(
            self._entries.items(), key=lambda kv: (-kv[1].score, kv[0])
        )
        return [(kind, loc, entry) for (kind, loc), entry in ranked[:n]]

    def entry(self, kind: str, location: str) -> RollupEntry:
        return self._entries.get((kind, location), RollupEntry())

    def format(self, limit: int = 10) -> str:
        """Operator view: one line per culprit, with site provenance."""
        lines = [
            f"fleet: {len(self.pipelines)} pipelines, "
            f"{self.victims} victims, {self.total_score:.3f} total blame"
        ]
        lines.append(f"{'score':>12}  {'n':>6}  {'sites':>5}  {'conf':>5}  culprit")
        for kind, location, entry in self.top(limit):
            error = (
                "" if entry.exact else f" (±{entry.score_error:.3f} sketch)"
            )
            lines.append(
                f"{entry.score:12.3f}  {entry.count:6d}  {entry.sites:5d}  "
                f"{entry.mean_confidence:5.2f}  [{kind}] {location}, "
                f"{entry.sites}/{len(self.pipelines)} sites{error}"
            )
        return "\n".join(lines)

    # -- canonical payload -----------------------------------------------------

    def to_payload(self) -> dict:
        """Pure-JSON state, fully sorted: byte-canonical after dumps."""
        return {
            "version": _ROLLUP_VERSION,
            "pipelines": sorted(self.pipelines),
            "victims": self.victims,
            "culprits": self.culprits,
            "total_score": self.total_score,
            "victims_per_pipeline": dict(
                sorted(self._victims_per_pipeline.items())
            ),
            "entries": [
                {
                    "kind": kind,
                    "location": location,
                    "score": entry.score,
                    "count": entry.count,
                    "confidence_mass": entry.confidence_mass,
                    "score_error": entry.score_error,
                    "sites": entry.sites,
                    "per_pipeline": dict(sorted(entry.per_pipeline.items())),
                }
                for (kind, location), entry in sorted(self._entries.items())
            ],
        }


def tally_from_journal(journal_path: Union[str, Path]) -> CulpritTally:
    """Rebuild one pipeline's tally from its journal alone.

    Replays every chunk record's wire-decoded diagnoses in journal order —
    the same float-accumulation order the live service used — so the
    result equals the service's in-memory tally exactly.  A compacted
    journal seeds the replay from its ``COMPACT`` header, which holds the
    fold of every retired segment's chunk records — so the equality holds
    across rotation and compaction too.  This is what makes the fleet
    rollup recomputable offline from journals: no checkpoint, no live
    service, just the append-only record of results.
    """
    from repro.aggregation.sketches import tally_from_payload
    from repro.service.journal import ResultJournal

    journal = ResultJournal(Path(journal_path), durable=False)
    compacted = journal.compacted_tally_payload()
    tally = (
        CulpritTally() if compacted is None else tally_from_payload(compacted)
    )
    for _end, diagnoses in journal.chunk_diagnoses():
        tally.update(diagnoses)
    return tally


def rollup_from_state_dirs(
    pipeline_dirs: Mapping[str, Union[str, Path]]
) -> FleetRollup:
    """Roll up a fleet offline from per-pipeline service state directories."""
    return FleetRollup.from_tallies(
        {
            name: tally_from_journal(Path(directory) / "journal.jsonl")
            for name, directory in pipeline_dirs.items()
        }
    )
