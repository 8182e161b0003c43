"""Chunked (bounded-memory) online diagnosis.

The paper's offline stage analyses a whole trace at once; production runs
are long, so this module processes the trace in time chunks.  One
:class:`MicroscopeEngine` is carried across chunks.  Diagnosis only ever
looks backwards in time, so analyzers, path decompositions and
local-score/PreSet memo entries built for earlier chunks stay valid for
later ones; at each chunk boundary the engine's generation advances and
memo entries whose queuing periods ended behind the lookback window are
evicted (``MicroscopeEngine.advance_chunk``), which bounds memo memory
while the carried rest keeps re-indexing cost at zero.  Because nothing
the diagnosis reads is ever truncated, the concatenated output is
bit-identical to batch ``diagnose_all`` for any chunk size — the margin
(the lookback the paper's Figure 15 bounds) only tunes memo retention.

Each chunk flags its *margin-too-small* victims: queuing periods that
start behind the lookback boundary, i.e. victims a trace truncated to the
window would have lost evidence for.

In this reproduction the full trace exists in memory; the value is the
algorithmic structure plus the equivalence property the tests pin.  A
production port would feed chunks from the record stream instead and
append to the per-NF views as data arrives.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.core.diagnosis import MicroscopeEngine, VictimDiagnosis
from repro.core.records import DiagTrace
from repro.core.victims import Victim, VictimSelector
from repro.errors import DiagnosisError


@dataclass
class StreamingConfig:
    """Chunking parameters."""

    chunk_ns: int = 50_000_000
    #: Lookback margin: how long memo entries are retained behind each
    #: chunk, and the boundary ``ChunkResult.margin_exceeded`` counts
    #: against.  Results are exact for any margin.
    margin_ns: int = 100_000_000

    def __post_init__(self) -> None:
        if self.chunk_ns <= 0:
            raise DiagnosisError(f"chunk size must be positive: {self.chunk_ns}")
        if self.margin_ns < 0:
            raise DiagnosisError(f"margin must be >= 0: {self.margin_ns}")


@dataclass
class ChunkResult:
    """Output of one streamed chunk."""

    start_ns: int
    end_ns: int
    victims: List[Victim]
    diagnoses: List[VictimDiagnosis]
    #: Victims whose queuing period starts behind the lookback boundary —
    #: the margin is too small to bound them (they are diagnosed exactly
    #: all the same, and flagged).
    margin_exceeded: int = 0
    #: Memo entries retained / dropped by this chunk's eviction sweep and
    #: memo hits served by entries carried from earlier chunks.
    carried_entries: int = 0
    evicted_entries: int = 0
    cross_chunk_hits: int = 0
    #: Telemetry health of the evidence behind this chunk (tolerant mode;
    #: strict traces report a perfectly healthy chunk).  Together these let
    #: an operator tell "no problem" from "no data": an empty victim list
    #: with low completeness or quarantined NFs means the telemetry, not
    #: the network, went quiet.
    telemetry_completeness: float = 1.0
    quarantined_nfs: Tuple[str, ...] = ()
    telemetry_gaps: int = 0
    low_evidence_culprits: int = 0


class StreamingDiagnosis:
    """Chunked diagnosis over a (conceptually unbounded) trace."""

    def __init__(
        self,
        trace: DiagTrace,
        config: Optional[StreamingConfig] = None,
        victim_pct: float = 99.0,
        task_timeout_s: Optional[float] = None,
        victim_threshold_ns: Optional[int] = None,
        executor=None,
        **engine_kwargs,
    ) -> None:
        self.trace = trace
        self.config = config or StreamingConfig()
        self.victim_pct = victim_pct
        #: Persistent worker pool (fleet plane) forwarded to
        #: ``diagnose_all``; None means chunks diagnose serially in-thread.
        self.executor = executor
        #: Absolute hop-latency victim threshold.  When set it replaces
        #: the percentile rule with the prefix-stable
        #: ``hop_latency_victims_over`` selection — required in live mode,
        #: where chunks are diagnosed before the trace has finished
        #: growing and a trace-global percentile would not be causal.
        self.victim_threshold_ns = victim_threshold_ns
        #: Per-task watchdog deadline forwarded to ``diagnose_all`` —
        #: a wedged worker is killed and its victims retried serially.
        self.task_timeout_s = task_timeout_s
        #: Extra MicroscopeEngine arguments (e.g. ``memoize=False``).
        self.engine_kwargs = engine_kwargs
        self._all_victims: List[Victim] = []
        self._victim_arrivals: List[int] = []
        self.refresh_victims()

    def refresh_victims(self) -> None:
        """(Re)select victims from the current trace contents.

        Offline this runs once at construction.  Live mode calls it after
        the trace grew and before diagnosing a newly sealed chunk; with an
        absolute threshold the selection is prefix-stable, so victims in
        already-diagnosed chunks never change — only new ones append.
        """
        selector = VictimSelector(self.trace)
        if self.victim_threshold_ns is not None:
            # Total order (not just arrival time) so the victim sequence
            # is independent of packet-dict iteration details.
            self._all_victims = sorted(
                selector.hop_latency_victims_over(self.victim_threshold_ns)
                + selector.drop_victims(),
                key=lambda v: (v.arrival_ns, v.pid, v.nf, v.kind),
            )
        else:
            # Victim thresholds must be global, or chunk-local percentiles
            # would flag different packets than batch mode.
            self._all_victims = sorted(
                selector.hop_latency_victims(pct=self.victim_pct)
                + selector.drop_victims(),
                key=lambda v: v.arrival_ns,
            )
        self._victim_arrivals = [v.arrival_ns for v in self._all_victims]
        #: The carried engine; exposed so callers can read
        #: ``engine.cache_stats`` after a run.
        self.engine: Optional[MicroscopeEngine] = None
        #: Chunk index the carried engine is positioned at (see ``open``).
        self._engine_chunk: Optional[int] = None

    def _victims_in(self, start_ns: int, end_ns: int) -> List[Victim]:
        """Victims arriving in [start, end) — bisect, not a full scan."""
        lo = bisect.bisect_left(self._victim_arrivals, start_ns)
        hi = bisect.bisect_left(self._victim_arrivals, end_ns)
        return self._all_victims[lo:hi]

    def _end_ns(self) -> int:
        """Time of the last departure or drop — the last possible victim.

        Drops count: a queue that overflows after the final departure (the
        trace cut off with the queue's contents undeparted) still yields
        drop victims, and they need a chunk to land in.
        """
        return self.trace.last_event_ns()

    @staticmethod
    def _count_margin_exceeded(
        diagnoses: List[VictimDiagnosis], window_start_ns: int
    ) -> int:
        """Victims whose queuing period starts before the lookback window."""
        if window_start_ns <= 0:
            return 0
        return sum(
            1
            for d in diagnoses
            if d.period is not None and d.period.start_ns < window_start_ns
        )

    def _chunk_health(
        self,
        diagnoses: List[VictimDiagnosis],
        window_start_ns: int,
        end_ns: int,
    ) -> Tuple[float, Tuple[str, ...], int, int]:
        """(completeness, quarantined, gaps, low-evidence) for one chunk."""
        low_evidence = sum(
            1
            for diagnosis in diagnoses
            for culprit in diagnosis.culprits
            if culprit.kind == "low-evidence"
        )
        telemetry = self.trace.telemetry
        if telemetry is None:
            return 1.0, (), 0, low_evidence
        return (
            telemetry.min_completeness,
            tuple(sorted(telemetry.quarantined)),
            len(telemetry.gaps_in(window_start_ns, end_ns)),
            low_evidence,
        )

    # -- chunk addressing (service/driver API) ----------------------------------

    def n_chunks(self) -> int:
        """Number of chunks covering the trace (matches ``chunks()``)."""
        return self._end_ns() // self.config.chunk_ns + 1

    def chunk_bounds(self, index: int) -> Tuple[int, int]:
        """``[start, end)`` of chunk ``index``."""
        if index < 0:
            raise DiagnosisError(f"chunk index must be >= 0: {index}")
        start = index * self.config.chunk_ns
        return start, start + self.config.chunk_ns

    def victims_for_chunk(self, index: int) -> List[Victim]:
        """Victims arriving inside chunk ``index`` (global thresholds)."""
        start, end = self.chunk_bounds(index)
        return self._victims_in(start, end)

    def open(
        self, start_chunk: int = 0, generation: Optional[int] = None
    ) -> MicroscopeEngine:
        """Position a fresh carried engine at ``start_chunk``.

        This is the checkpoint-restore entry point: a service resuming
        mid-stream opens at the first unprocessed chunk and calls
        :meth:`diagnose_chunk` forward from there.  The fresh engine's memo
        layers are empty, which never changes results (memoization is
        result-invariant — each chunk's diagnoses depend only on the trace
        and its victims), so the resumed output is bit-identical to an
        uninterrupted run.  ``generation`` defaults to ``start_chunk``,
        matching the generation an uninterrupted run would carry there.
        """
        engine = self.engine = MicroscopeEngine(self.trace, **self.engine_kwargs)
        if generation is None:
            generation = start_chunk
        if generation:
            engine.restore_generation(generation)
        self._engine_chunk = start_chunk
        return engine

    def skip_chunk(self, index: int) -> None:
        """Advance the carried engine past chunk ``index`` without
        diagnosing it — the service's dead-letter path.  The advance
        performs the same generation bump and memo eviction sweep a
        diagnosed chunk would, so later chunks see the identical engine
        state (memo entries are result-invariant; only the position and
        the eviction horizon matter)."""
        engine = self.engine
        if engine is None or self._engine_chunk is None:
            raise DiagnosisError("call open() before skip_chunk()")
        start, _chunk_end = self.chunk_bounds(index)
        window_start = max(0, start - self.config.margin_ns)
        if index == self._engine_chunk + 1:
            engine.advance_chunk(evict_before_ns=window_start)
            self._engine_chunk = index
        elif index != self._engine_chunk:
            raise DiagnosisError(
                f"non-sequential chunk {index}: engine is at {self._engine_chunk}"
            )

    def diagnose_chunk(
        self, index: int, victims: Optional[List[Victim]] = None
    ) -> ChunkResult:
        """Diagnose one chunk against the carried engine.

        Chunks must be visited sequentially, but re-diagnosing the chunk
        the engine is currently positioned at is allowed — that is the
        service's retry path, and it is idempotent because memo entries are
        result-invariant.  ``victims`` overrides the chunk's victim list
        (the load-shedding hook); by default every victim in the chunk's
        window is diagnosed.
        """
        engine = self.engine
        if engine is None or self._engine_chunk is None:
            raise DiagnosisError("call open() before diagnose_chunk()")
        # A live clocked trace pins the health state frozen at this chunk's
        # seal cut for the duration of diagnosis: confidence and health
        # fields then depend only on the sealed prefix, never on telemetry
        # that raced in while the chunk sat in the diagnosis queue.
        pin = getattr(self.trace, "pin_chunk_telemetry", None)
        if pin is not None:
            pin(index)
        try:
            return self._diagnose_chunk_pinned(index, victims)
        finally:
            if pin is not None:
                self.trace.unpin_chunk_telemetry()

    def _diagnose_chunk_pinned(
        self, index: int, victims: Optional[List[Victim]]
    ) -> ChunkResult:
        engine = self.engine
        start, chunk_end = self.chunk_bounds(index)
        window_start = max(0, start - self.config.margin_ns)
        # Capture before the advance so the eviction sweep's carried/evicted
        # deltas are attributed to this chunk's ChunkResult.
        stats_before = engine.cache_stats
        if index == self._engine_chunk + 1:
            # Advance the generation and drop memo entries behind the
            # lookback window; everything else is carried.
            engine.advance_chunk(evict_before_ns=window_start)
            self._engine_chunk = index
        elif index != self._engine_chunk:
            raise DiagnosisError(
                f"non-sequential chunk {index}: engine is at {self._engine_chunk}"
            )
        if victims is None:
            victims = self._victims_in(start, chunk_end)
        diagnoses = engine.diagnose_all(
            victims, task_timeout_s=self.task_timeout_s, executor=self.executor
        )
        stats_after = engine.cache_stats
        health = self._chunk_health(diagnoses, window_start, chunk_end)
        return ChunkResult(
            start_ns=start,
            end_ns=chunk_end,
            victims=victims,
            diagnoses=diagnoses,
            margin_exceeded=self._count_margin_exceeded(diagnoses, window_start),
            carried_entries=stats_after.carried_entries
            - stats_before.carried_entries,
            evicted_entries=stats_after.evicted_entries
            - stats_before.evicted_entries,
            cross_chunk_hits=stats_after.cross_chunk_hits
            - stats_before.cross_chunk_hits,
            telemetry_completeness=health[0],
            quarantined_nfs=health[1],
            telemetry_gaps=health[2],
            low_evidence_culprits=health[3],
        )

    # -- iteration --------------------------------------------------------------

    def chunks(self) -> Iterator[ChunkResult]:
        """Yield per-chunk diagnoses in time order."""
        self.open(0)
        for index in range(self.n_chunks()):
            yield self.diagnose_chunk(index)

    def run(self) -> List[VictimDiagnosis]:
        """All chunk diagnoses concatenated (victim time order)."""
        results: List[VictimDiagnosis] = []
        for chunk in self.chunks():
            results.extend(chunk.diagnoses)
        return results
