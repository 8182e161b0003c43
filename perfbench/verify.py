"""Output verification: references, byte comparisons, accuracy, digests.

Everything here is untimed.  A benchmark number only counts when the
program's output is right, so each workload's journal (or culprit list)
is compared with a reference computed by a different route:

* ``wire-*``: the same records through an in-process ``SimTransport``
  under ``ClockChaosTransport`` with the sender's warp — no sockets, no
  threads, one process;
* ``replay-dense``: every fleet pipeline's journal against one standalone
  serial ``DiagnosisService``;
* ``offline-postmortem``: reconstructed journeys against simulator ground
  truth, and culprits against the injection plan.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from repro.core import ranked_entities
from repro.core.report import rank_of_entity
from repro.experiments import InjectedProblem, InjectionPlan, associate_victims
from repro.experiments.accuracy import (
    microscope_entity_matcher,
    significant_victims,
    topology_plausibility,
)
from repro.ingest import SimTransport, TelemetryRecord
from repro.time import ClockChaosTransport

from perfbench import inputs

#: ROADMAP's accuracy gate: below this the run is wrong, not slow.
MIN_TOP1_ACCURACY = 0.80


@dataclass
class Score:
    """Top-1 culprit accuracy over the victims ground truth covers."""

    accuracy: float
    scored: int


def score_accuracy(
    trace,
    diagnoses: Sequence,
    problems: Sequence[InjectedProblem],
    significant: bool = False,
) -> Score:
    """Share of attributable victims whose top-ranked entity is the
    injected culprit (the paper's Fig. 11 "correct rate").

    Victims are paired with the injection whose window covers their
    arrival (and that sits at or upstream of their NF); ``significant``
    first drops tail-noise latency victims, as the paper's methodology
    does for percentile-selected victims.
    """
    plan = InjectionPlan(problems=list(problems))
    by_victim = {d.victim: d for d in diagnoses}
    victims = list(by_victim)
    if significant:
        victims = significant_victims(trace, victims)
    pairs = associate_victims(
        victims, plan, plausible=topology_plausibility(trace)
    )
    correct = 0
    for victim, problem in pairs:
        ranking = ranked_entities(by_victim[victim], trace)
        if rank_of_entity(ranking, microscope_entity_matcher(problem)) == 1:
            correct += 1
    return Score(
        accuracy=correct / len(pairs) if pairs else 0.0, scored=len(pairs)
    )


def culprit_digest(diagnoses: Sequence) -> int:
    """CRC of the canonical culprit output (identity-insensitive)."""
    payload = [
        [
            d.victim.pid,
            d.victim.nf,
            [
                [c.kind, c.location, c.score, list(c.culprit_pids), c.depth,
                 c.culprit_time_ns]
                for c in d.culprits
            ],
        ]
        for d in diagnoses
    ]
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode())


# -- wire reference --------------------------------------------------------------


@dataclass
class WireReference:
    journal: bytes
    records_applied: int
    victims: int
    packet_hops: int
    score: Score


def wire_reference(
    records: Sequence[TelemetryRecord],
    problems: Sequence[InjectedProblem],
    service_kwargs: dict,
    state_dir: Path,
) -> WireReference:
    """The journal the wire pipeline must reproduce byte for byte."""
    service = inputs.live_service(
        ClockChaosTransport(SimTransport(records), inputs.sender_clock_chaos()),
        service_kwargs,
        state_dir,
    )
    # Compaction folds old chunk records away, so collect diagnoses as
    # they are produced rather than from the journal afterwards.
    diagnoses: List = []
    diagnose_chunk = service.stream.diagnose_chunk

    def collecting(index, victims=None):
        result = diagnose_chunk(index, victims=victims)
        diagnoses.extend(result.diagnoses)
        return result

    service.stream.diagnose_chunk = collecting
    report = service.run()
    return WireReference(
        journal=service.journal.read_bytes(),
        records_applied=report.stats.ingest_records_applied,
        victims=report.stats.victims_diagnosed,
        packet_hops=sum(1 for r in records if r.kind == "hop"),
        score=score_accuracy(service.source.builder, diagnoses, problems),
    )


# -- journeys --------------------------------------------------------------------


def exact_share(
    truth: Sequence[inputs.Journey], rebuilt: Sequence[inputs.Journey]
) -> float:
    """Share of ground-truth journeys the reconstruction reproduced
    exactly: same exit time, flow, NF path and every hop's arrival/read
    time.  A multiset match, so equal exit times cannot misalign it."""
    if not truth:
        return 0.0
    matched = Counter(truth) & Counter(rebuilt)
    return sum(matched.values()) / max(len(truth), len(rebuilt))
