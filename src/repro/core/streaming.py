"""Chunked (bounded-memory) online diagnosis.

The paper's offline stage analyses a whole trace at once; production runs
are long, so this module processes the trace in time chunks.  Two chunk
engines are provided:

* **engine reuse** (``StreamingConfig.reuse_engine=True``, the default):
  one :class:`MicroscopeEngine` is carried across chunks.  Diagnosis only
  ever looks backwards in time, so analyzers, path decompositions and
  local-score/PreSet memo entries built for earlier chunks stay valid for
  later ones; at each chunk boundary the engine's generation advances and
  memo entries whose queuing periods ended behind the lookback window are
  evicted (``MicroscopeEngine.advance_chunk``), which bounds memo memory
  while the carried rest keeps re-indexing cost at zero.  Because nothing
  the diagnosis reads is ever truncated, the concatenated output is
  bit-identical to batch ``diagnose_all`` for any chunk size — the margin
  only tunes memo retention.

* **per-chunk rebuild** (``reuse_engine=False``, the original mode): each
  chunk diagnoses against a margin-extended sub-trace built by
  ``_sub_trace`` — per-NF streams are bisect-sliced out of the sorted
  views and packets come from a sorted interval index, so the cost is
  O(window), not O(trace).  Windows are seeded with the standing queue at
  the boundary (pre-window arrivals still unread when the window opens),
  so a chunk starting mid-buildup keeps the queue it inherited.  With a
  sufficient margin the result equals batch diagnosis; an insufficient
  margin truncates queuing periods (the knob the paper's Figure 15
  bounds).

Both modes flag *margin-too-small* victims per chunk: queuing periods
that reach at or behind the lookback boundary, i.e. victims the rebuild
mode would (or did) truncate.

In this reproduction the full trace exists in memory; the value is the
algorithmic structure plus the equivalence property the tests pin.  A
production port would feed chunks from the record stream instead and
append to the per-NF views as data arrives.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.diagnosis import MicroscopeEngine, VictimDiagnosis
from repro.core.records import DiagTrace, NFView, PacketView
from repro.core.victims import Victim, VictimSelector
from repro.errors import DiagnosisError


@dataclass
class StreamingConfig:
    """Chunking parameters."""

    chunk_ns: int = 50_000_000
    #: Lookback margin: how much earlier data each chunk can see.  In
    #: rebuild mode it must exceed the longest culprit-to-victim gap
    #: (Figure 15) to match batch results exactly; in reuse mode it only
    #: controls how long memo entries are retained.
    margin_ns: int = 100_000_000
    #: Carry one engine (analyzers + memo caches) across chunks instead of
    #: rebuilding per chunk.  Reuse is exact for any margin and far faster;
    #: rebuild preserves the PR-1 bounded-sub-trace semantics.
    reuse_engine: bool = True

    def __post_init__(self) -> None:
        if self.chunk_ns <= 0:
            raise DiagnosisError(f"chunk size must be positive: {self.chunk_ns}")
        if self.margin_ns < 0:
            raise DiagnosisError(f"margin must be >= 0: {self.margin_ns}")


class _PacketWindowIndex:
    """Packets sorted by first activity, for O(log n + out) window queries.

    ``_sub_trace`` used to recompute every packet's activity interval per
    chunk; this index computes the intervals once and answers "any activity
    in [start, end)" with a bisect over first-activity times plus a scan of
    that prefix.
    """

    def __init__(self, trace: DiagTrace) -> None:
        entries: List[Tuple[int, int, int]] = []  # (first, last, pid)
        for pid, packet in trace.packets.items():
            first = packet.emitted_ns
            last = packet.exited_ns if packet.exited_ns >= 0 else packet.dropped_ns
            if last < 0:
                last = max((h.depart_ns for h in packet.hops), default=first)
            entries.append((first, last, pid))
        entries.sort()
        self._firsts = [e[0] for e in entries]
        self._entries = entries

    def pids_active(self, start_ns: int, end_ns: int) -> List[int]:
        """Pids with activity intersecting [start, end)."""
        hi = bisect.bisect_left(self._firsts, end_ns)
        return [pid for _first, last, pid in self._entries[:hi] if last >= start_ns]


def _slice_stream(
    stream: List[Tuple[int, int]], start_ns: int, end_ns: int
) -> List[Tuple[int, int]]:
    """Events with start <= t < end, sliced out of a time-sorted stream.

    ``(t,)`` compares below ``(t, pid)`` for every pid, so a one-element
    tuple bisects to the first event at or after ``t``.
    """
    lo = bisect.bisect_left(stream, (start_ns,))
    hi = bisect.bisect_left(stream, (end_ns,))
    return stream[lo:hi]


def _standing_arrivals(
    view: NFView, start_ns: int
) -> List[Tuple[int, int]]:
    """Pre-window arrivals of packets still queued at ``start_ns``.

    A queue is FIFO, so reads before the boundary consume the earliest
    arrivals first; whatever arrivals remain unconsumed are the standing
    queue the window boundary would otherwise amputate.
    """
    reads_before: Dict[int, int] = {}
    for t, pid in view.reads:
        if t >= start_ns:
            break
        reads_before[pid] = reads_before.get(pid, 0) + 1
    standing: List[Tuple[int, int]] = []
    for t, pid in view.arrivals:
        if t >= start_ns:
            break
        pending = reads_before.get(pid, 0)
        if pending:
            reads_before[pid] = pending - 1
        else:
            standing.append((t, pid))
    return standing


def _sub_trace(
    trace: DiagTrace,
    start_ns: int,
    end_ns: int,
    index: Optional[_PacketWindowIndex] = None,
    seed_queue: bool = False,
) -> DiagTrace:
    """Restrict a trace to packets with any activity inside [start, end).

    ``seed_queue=True`` additionally carries the standing queue across the
    window boundary: arrivals before ``start_ns`` whose reads happen at or
    after it are kept, so a window opening mid-buildup sees the queue it
    inherited instead of an empty one (the rebuild-mode streaming fix).
    """
    if index is None:
        index = _PacketWindowIndex(trace)
    packets: Dict[int, PacketView] = {
        pid: trace.packets[pid] for pid in index.pids_active(start_ns, end_ns)
    }
    nfs: Dict[str, NFView] = {}
    for name, view in trace.nfs.items():
        arrivals = _slice_stream(view.arrivals, start_ns, end_ns)
        if seed_queue and start_ns > 0:
            standing = _standing_arrivals(view, start_ns)
            if standing:
                arrivals = standing + arrivals
        nfs[name] = NFView(
            name=name,
            peak_rate_pps=view.peak_rate_pps,
            arrivals=arrivals,
            reads=_slice_stream(view.reads, start_ns, end_ns),
            departs=_slice_stream(view.departs, start_ns, end_ns),
            drops=_slice_stream(view.drops, start_ns, end_ns),
        )
    return DiagTrace(
        packets=packets,
        nfs=nfs,
        upstreams=trace.upstreams,
        sources=trace.sources,
        nf_types=trace.nf_types,
        telemetry=trace.telemetry,
    )


@dataclass
class ChunkResult:
    """Output of one streamed chunk."""

    start_ns: int
    end_ns: int
    victims: List[Victim]
    diagnoses: List[VictimDiagnosis]
    #: Victims whose queuing period reaches at or behind the lookback
    #: boundary — the margin is too small to bound them (rebuild mode
    #: truncated them; reuse mode diagnosed them exactly and flags them).
    margin_exceeded: int = 0
    #: Memo entries retained / dropped by this chunk's eviction sweep and
    #: memo hits served by entries carried from earlier chunks (reuse
    #: mode only; rebuild mode reports zeros).
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
        workers: Union[int, str, None] = None,
        task_timeout_s: Optional[float] = None,
        victim_threshold_ns: Optional[int] = None,
        executor=None,
        concurrent_pipelines: int = 1,
        **engine_kwargs,
    ) -> None:
        self.trace = trace
        self.config = config or StreamingConfig()
        self.victim_pct = victim_pct
        #: Persistent worker pool (fleet plane) forwarded to
        #: ``diagnose_all``; None means ``workers=N`` opens one per call.
        self.executor = executor
        #: Fleet fan-out hint for the ``workers="auto"`` resolver.
        self.concurrent_pipelines = concurrent_pipelines
        #: Absolute hop-latency victim threshold.  When set it replaces
        #: the percentile rule with the prefix-stable
        #: ``hop_latency_victims_over`` selection — required in live mode,
        #: where chunks are diagnosed before the trace has finished
        #: growing and a trace-global percentile would not be causal.
        self.victim_threshold_ns = victim_threshold_ns
        #: Per-chunk diagnosis parallelism, forwarded to ``diagnose_all``.
        self.workers = workers
        #: Per-shard watchdog deadline forwarded to ``diagnose_all`` —
        #: a wedged worker is killed and its victims retried serially.
        self.task_timeout_s = task_timeout_s
        #: Extra MicroscopeEngine arguments (e.g. ``memoize=False``).
        self.engine_kwargs = engine_kwargs
        self._all_victims: List[Victim] = []
        self._victim_arrivals: List[int] = []
        self.refresh_victims()
        self._packet_index: Optional[_PacketWindowIndex] = None

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
        #: The carried engine (reuse mode); exposed so callers can read
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
        latest = 0
        for view in self.trace.nfs.values():
            last = view.last_depart_ns()
            if last is not None:
                latest = max(latest, last)
        return latest

    @staticmethod
    def _count_margin_exceeded(
        diagnoses: List[VictimDiagnosis], window_start_ns: int, exact: bool
    ) -> int:
        """Victims whose queuing period escapes the lookback window.

        Reuse mode sees exact periods, so "starts strictly before the
        window" is a precise truncation predicate.  Rebuild mode only sees
        the already-clipped period; a period starting at the window's very
        first arrival (``first_arrival_idx == 0``) is the truncation
        signature (conservative: a real buildup beginning exactly there
        also matches).
        """
        if window_start_ns <= 0:
            return 0
        if exact:
            return sum(
                1
                for d in diagnoses
                if d.period is not None and d.period.start_ns < window_start_ns
            )
        return sum(
            1
            for d in diagnoses
            if d.period is not None and d.period.first_arrival_idx == 0
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
        """Position a fresh carried engine at ``start_chunk`` (reuse mode).

        This is the checkpoint-restore entry point: a service resuming
        mid-stream opens at the first unprocessed chunk and calls
        :meth:`diagnose_chunk` forward from there.  The fresh engine's memo
        layers are empty, which never changes results (memoization is
        result-invariant — each chunk's diagnoses depend only on the trace
        and its victims), so the resumed output is bit-identical to an
        uninterrupted run.  ``generation`` defaults to ``start_chunk``,
        matching the generation an uninterrupted run would carry there.
        """
        if not self.config.reuse_engine:
            raise DiagnosisError("open() requires reuse_engine=True")
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
        """Diagnose one chunk against the carried engine (reuse mode).

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
        diagnoses = (
            engine.diagnose_all(
                victims,
                workers=self.workers,
                task_timeout_s=self.task_timeout_s,
                executor=self.executor,
                concurrent_pipelines=self.concurrent_pipelines,
            )
            if victims
            else []
        )
        stats_after = engine.cache_stats
        health = self._chunk_health(diagnoses, window_start, chunk_end)
        return ChunkResult(
            start_ns=start,
            end_ns=chunk_end,
            victims=victims,
            diagnoses=diagnoses,
            margin_exceeded=self._count_margin_exceeded(
                diagnoses, window_start, exact=True
            ),
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
        if self.config.reuse_engine:
            yield from self._chunks_reused()
        else:
            yield from self._chunks_rebuilt()

    def _chunks_reused(self) -> Iterator[ChunkResult]:
        """One engine carried across chunks; exact for any margin."""
        self.open(0)
        for index in range(self.n_chunks()):
            yield self.diagnose_chunk(index)

    def _chunks_rebuilt(self) -> Iterator[ChunkResult]:
        """PR-1 semantics: a fresh engine per chunk over a bounded sub-trace."""
        end = self._end_ns()
        chunk = self.config.chunk_ns
        margin = self.config.margin_ns
        if self._packet_index is None:
            self._packet_index = _PacketWindowIndex(self.trace)
        start = 0
        while start <= end:
            chunk_end = start + chunk
            window_start = max(0, start - margin)
            victims = self._victims_in(start, chunk_end)
            if victims:
                # seed_queue carries the standing queue across the window
                # boundary, so a chunk opening mid-buildup no longer loses
                # the queue it inherited (ROADMAP open item).
                sub = _sub_trace(
                    self.trace,
                    window_start,
                    chunk_end,
                    index=self._packet_index,
                    seed_queue=True,
                )
                engine = MicroscopeEngine(sub, **self.engine_kwargs)
                diagnoses = engine.diagnose_all(
                    victims,
                    workers=self.workers,
                    task_timeout_s=self.task_timeout_s,
                    executor=self.executor,
                    concurrent_pipelines=self.concurrent_pipelines,
                )
            else:
                diagnoses = []
            health = self._chunk_health(diagnoses, window_start, chunk_end)
            yield ChunkResult(
                start_ns=start,
                end_ns=chunk_end,
                victims=victims,
                diagnoses=diagnoses,
                margin_exceeded=self._count_margin_exceeded(
                    diagnoses, window_start, exact=False
                ),
                telemetry_completeness=health[0],
                quarantined_nfs=health[1],
                telemetry_gaps=health[2],
                low_evidence_culprits=health[3],
            )
            start = chunk_end

    def run(self) -> List[VictimDiagnosis]:
        """All chunk diagnoses concatenated (victim time order)."""
        results: List[VictimDiagnosis] = []
        for chunk in self.chunks():
            results.extend(chunk.diagnoses)
        return results
