"""The Microscope diagnosis engine (sections 4.1-4.3, Figures 4 and 7).

Per victim the engine:

1. extracts the queuing period at the victim NF and computes local scores
   (``Si`` for input workload, ``Sp`` for slow local processing),
2. if ``Si`` is positive, runs propagation (timespan) analysis over the
   PreSet packets to split ``Si`` among the traffic source and upstream
   NFs,
3. recursively re-diagnoses each blamed upstream NF at the queuing period
   active when the first PreSet packet arrived there, splitting that NF's
   share into its own local and input components (Figure 7),
4. emits a list of :class:`Culprit` records whose scores sum to the queue
   length the victim experienced.

Recursion terminates at traffic sources, when scores vanish, when no
queuing data exists upstream, or at ``max_depth`` (the paper observes at
most five levels on the 16-NF topology).

Fast path (on by default, ``memoize=True``): victims of the same queue
buildup repeat each other's work — recursion converges on identical
upstream periods, and depth-0 PreSets of later victims extend earlier
victims' PreSets.  The engine therefore memoizes per-period local scores,
PreSets (inside :class:`QueuingAnalyzer`), and path decompositions
(:class:`ColumnarPathDecomposition`, keyed by ``(nf, first_arrival_idx)``
so any PreSet prefix of the same buildup reuses one walk).  Memoization is
result-invariant: every mode computes through the same code path, so
culprit lists are bit-identical with it on or off.

``diagnose_all`` runs victims serially in this process.  Handed an
``executor`` (a fleet's :class:`repro.fleet.WorkerPool`), it ships the
whole batch to that pool as one task on one warm worker, whose results
are identical to the serial output (see
:meth:`repro.fleet.WorkerPool.diagnose` for the dispatch contract).  This
module starts no process itself: it keeps the algorithm, the wire codec
workers answer in (also the service's journal format) and the two
worker-side entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarPathDecomposition
from repro.core.local import LocalScores, local_scores, local_scores_batch
from repro.core.propagation import (
    EntityShare,
    PathAttribution,
    propagation_scores,
)
from repro.core.queuing import QueuingAnalyzer, QueuingPeriod
from repro.core.records import DiagTrace
from repro.core.victims import Victim
from repro.errors import DiagnosisError, TraceError


#: Valid culprit kinds (see :class:`Culprit`).
CULPRIT_KINDS = ("local", "source", "low-evidence")

@dataclass(frozen=True)
class Culprit:
    """One attributed cause for one victim.

    ``kind`` is ``'local'`` (slow processing at ``location``, an NF),
    ``'source'`` (bursty input traffic from ``location``, a source), or
    ``'low-evidence'`` (recursion stopped at ``location`` because its
    telemetry was quarantined — the blame reached it but cannot be split
    further).  ``culprit_pids`` are the packets implicated — the
    queuing-period packets for local culprits, the PreSet path subset for
    source culprits.

    ``confidence`` in [0, 1] is how complete the telemetry behind this
    attribution was: the product of per-NF completeness ratios along the
    recursion chain that produced it.  Strict mode (no telemetry health on
    the trace) always reports 1.0, keeping legacy output bit-identical.
    """

    kind: str
    location: str
    score: float
    culprit_pids: Tuple[int, ...]
    victim_pid: int
    victim_nf: str
    depth: int
    culprit_time_ns: int
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CULPRIT_KINDS:
            raise DiagnosisError(f"unknown culprit kind {self.kind!r}")


@dataclass
class VictimDiagnosis:
    """Diagnosis outcome for one victim."""

    victim: Victim
    culprits: List[Culprit] = field(default_factory=list)
    local: Optional[LocalScores] = None
    period: Optional[QueuingPeriod] = None
    attributions: List[PathAttribution] = field(default_factory=list)
    recursion_depth: int = 0

    @property
    def total_score(self) -> float:
        return sum(c.score for c in self.culprits)

    @property
    def confidence(self) -> float:
        """Score-weighted mean culprit confidence (1.0 when undiagnosed)."""
        total = self.total_score
        if total <= 0:
            return 1.0
        return sum(c.score * c.confidence for c in self.culprits) / total


@dataclass
class CacheStats:
    """Hit/miss counters for the engine's memo layers.

    The cross-chunk counters only move when a streaming driver calls
    :meth:`MicroscopeEngine.advance_chunk` between victim batches:
    ``cross_chunk_hits`` counts memo hits on entries created in an earlier
    chunk, ``carried_entries``/``evicted_entries`` accumulate what each
    eviction sweep kept and dropped.
    """

    local_hits: int = 0
    local_misses: int = 0
    decomp_hits: int = 0
    decomp_misses: int = 0
    preset_hits: int = 0
    preset_misses: int = 0
    cross_chunk_hits: int = 0
    carried_entries: int = 0
    evicted_entries: int = 0
    #: Pooled ``diagnose_all`` tasks that lost their worker process and
    #: were retried serially in the caller (``WorkerPool.diagnose``).
    worker_failures: int = 0
    #: Subset of ``worker_failures`` caused by a task blowing through the
    #: per-task deadline (``task_timeout_s``): its worker was presumed
    #: wedged and killed, and the victims were retried serially.
    worker_timeouts: int = 0

    @property
    def hits(self) -> int:
        return self.local_hits + self.decomp_hits + self.preset_hits

    @property
    def misses(self) -> int:
        return self.local_misses + self.decomp_misses + self.preset_misses


class MicroscopeEngine:
    """Offline diagnosis over a :class:`DiagTrace`."""

    def __init__(
        self,
        trace: DiagTrace,
        max_depth: int = 8,
        min_score: float = 1e-3,
        queue_threshold: int = 0,
        memoize: bool = True,
    ) -> None:
        if max_depth < 1:
            raise DiagnosisError(f"max_depth must be >= 1, got {max_depth}")
        self.trace = trace
        self.max_depth = max_depth
        self.min_score = min_score
        self.memoize = memoize
        self._analyzers: Dict[str, QueuingAnalyzer] = {}
        self._queue_threshold = queue_threshold
        # Period-keyed memo layers (see module docstring).
        self._local_cache: Dict[QueuingPeriod, LocalScores] = {}
        self._local_hits = 0
        self._local_misses = 0
        self._decomps: Dict[Tuple[str, int], ColumnarPathDecomposition] = {}
        self._decomp_hits = 0
        self._decomp_misses = 0
        # Cross-chunk state (streaming reuse; see advance_chunk): entries are
        # stamped with the chunk generation that created them, and decomps
        # remember the latest period end they served for eviction.
        self._chunk_generation = 0
        self._cross_hits = 0
        self._carried_entries = 0
        self._evicted_entries = 0
        self._local_gen: Dict[QueuingPeriod, int] = {}
        self._decomp_gen: Dict[Tuple[str, int], int] = {}
        self._decomp_end: Dict[Tuple[str, int], int] = {}
        self._worker_failures = 0
        self._worker_timeouts = 0
        #: Dispatch telemetry of the most recent pooled ``diagnose_all``:
        #: ``{"mode": "shm" | "serial", "payload_bytes_per_task": int | None}``,
        #: written by ``WorkerPool.diagnose``.
        self.last_dispatch: Optional[Dict[str, object]] = None

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregated hit/miss counters across all memo layers."""
        preset_hits = sum(a.preset_hits for a in self._analyzers.values())
        preset_misses = sum(a.preset_misses for a in self._analyzers.values())
        preset_cross = sum(a.preset_cross_hits for a in self._analyzers.values())
        return CacheStats(
            local_hits=self._local_hits,
            local_misses=self._local_misses,
            decomp_hits=self._decomp_hits,
            decomp_misses=self._decomp_misses,
            preset_hits=preset_hits,
            preset_misses=preset_misses,
            cross_chunk_hits=self._cross_hits + preset_cross,
            carried_entries=self._carried_entries,
            evicted_entries=self._evicted_entries,
            worker_failures=self._worker_failures,
            worker_timeouts=self._worker_timeouts,
        )

    @property
    def chunk_generation(self) -> int:
        """The streaming chunk generation this engine is positioned at."""
        return self._chunk_generation

    def restore_generation(self, generation: int) -> None:
        """Fast-forward the chunk generation (checkpoint restore).

        A service resuming at chunk *k* builds a fresh engine whose memo
        layers are empty; results are unaffected (memoization is
        result-invariant), but the generation counter must match the
        uninterrupted run so cross-chunk stats attribution and subsequent
        ``advance_chunk`` sweeps line up.  Only forward jumps make sense.
        """
        if generation < self._chunk_generation:
            raise DiagnosisError(
                f"cannot rewind generation {self._chunk_generation} -> {generation}"
            )
        self._chunk_generation = generation
        for analyzer in self._analyzers.values():
            analyzer.generation = generation

    # -- telemetry confidence ---------------------------------------------------

    def _nf_confidence(self, nf: str) -> float:
        """Evidence completeness at ``nf`` (1.0 in strict mode)."""
        telemetry = self.trace.telemetry
        if telemetry is None:
            return 1.0
        return telemetry.nf_confidence(nf)

    def _quarantined(self, nf: str) -> bool:
        telemetry = self.trace.telemetry
        return telemetry is not None and nf in telemetry.quarantined

    def analyzer(self, nf: str) -> QueuingAnalyzer:
        cached = self._analyzers.get(nf)
        if cached is None:
            view = self.trace.nfs.get(nf)
            if view is None:
                raise DiagnosisError(f"no trace data for NF {nf!r}")
            cached = QueuingAnalyzer(
                view,
                threshold=self._queue_threshold,
                cache_presets=self.memoize,
            )
            cached.generation = self._chunk_generation
            self._analyzers[nf] = cached
        return cached

    # -- cross-chunk reuse ------------------------------------------------------

    def advance_chunk(self, evict_before_ns: Optional[int] = None) -> None:
        """Mark a streaming chunk boundary (and optionally bound memory).

        Carried state — analyzers and every memo entry — stays valid across
        the boundary because diagnosis only ever looks backwards in time;
        the generation bump lets ``cache_stats.cross_chunk_hits`` attribute
        later hits to earlier chunks.  With ``evict_before_ns`` set, memo
        entries whose periods ended before that time are dropped: they sit
        behind the advancing lookback window, so retaining them only costs
        memory.  Eviction never changes results — a re-referenced entry is
        recomputed identically.
        """
        self._chunk_generation += 1
        carried = evicted = 0
        for analyzer in self._analyzers.values():
            analyzer.generation = self._chunk_generation
            if evict_before_ns is not None:
                kept, dropped = analyzer.evict_presets_before(evict_before_ns)
                carried += kept
                evicted += dropped
        if evict_before_ns is not None:
            stale = [
                p for p in self._local_cache if p.end_ns < evict_before_ns
            ]
            for period in stale:
                del self._local_cache[period]
                self._local_gen.pop(period, None)
            evicted += len(stale)
            carried += len(self._local_cache)
            stale_keys = [
                key
                for key, end_ns in self._decomp_end.items()
                if end_ns < evict_before_ns
            ]
            for key in stale_keys:
                self._decomps.pop(key, None)
                self._decomp_gen.pop(key, None)
                del self._decomp_end[key]
            evicted += len(stale_keys)
            carried += len(self._decomps)
        self._carried_entries += carried
        self._evicted_entries += evicted

    def _effective_peak(self, nf: str) -> float:
        """Peak rate of ``nf`` in observed-trace units.

        Under record loss the trace holds only a ``retention`` fraction
        of the NF's true arrivals (a record lost anywhere on a packet's
        chain removes the whole packet), so comparing observed input
        counts against the nominal peak rate systematically understates
        the input score — the queue looks locally caused even when an
        upstream burst built it.  Scaling the peak by the same fraction
        keeps eqs. (1)/(2) consistent with the sampled trace.  Complete
        (or absent) telemetry skips the scaling entirely, so strict-mode
        arithmetic is bit-identical.
        """
        peak = self.trace.nfs[nf].peak_rate_pps
        telemetry = self.trace.telemetry
        if telemetry is None:
            return peak
        retention = telemetry.nf_retention(nf)
        if 0.0 < retention < 1.0:
            return peak * retention
        return peak

    # -- memo layers ----------------------------------------------------------

    def _local_scores(self, period: QueuingPeriod, peak_rate_pps: float) -> LocalScores:
        if not self.memoize:
            return local_scores(period, peak_rate_pps)
        cached = self._local_cache.get(period)
        if cached is not None:
            self._local_hits += 1
            if self._local_gen.get(period, self._chunk_generation) != (
                self._chunk_generation
            ):
                self._cross_hits += 1
            return cached
        self._local_misses += 1
        scores = local_scores(period, peak_rate_pps)
        self._local_cache[period] = scores
        self._local_gen[period] = self._chunk_generation
        return scores

    def _new_decomposition(self, nf: str) -> ColumnarPathDecomposition:
        """A fresh path decomposition for PreSets at ``nf`` — kept apart so
        the test oracle engine can substitute the reference object walk."""
        return ColumnarPathDecomposition(self.trace, nf)

    def _decomposition(
        self, nf: str, period: QueuingPeriod
    ) -> ColumnarPathDecomposition:
        """The path decomposition for one queue buildup.

        Shared when memoizing, keyed by ``(nf, first_arrival_idx)``: every
        victim of the same buildup sees a PreSet that extends earlier
        victims', so one decomposition serves them all via prefix queries.
        """
        if not self.memoize:
            return self._new_decomposition(nf)
        key = (nf, period.first_arrival_idx)
        decomp = self._decomps.get(key)
        if decomp is None:
            self._decomp_misses += 1
            decomp = self._new_decomposition(nf)
            self._decomps[key] = decomp
            self._decomp_gen[key] = self._chunk_generation
        else:
            self._decomp_hits += 1
            if self._decomp_gen.get(key, self._chunk_generation) != (
                self._chunk_generation
            ):
                self._cross_hits += 1
        end_ns = self._decomp_end.get(key, -1)
        if period.end_ns > end_ns:
            self._decomp_end[key] = period.end_ns
        return decomp

    # -- top-level ------------------------------------------------------------

    def diagnose(self, victim: Victim) -> VictimDiagnosis:
        """Diagnose one victim; see the module docstring for the steps."""
        analyzer = self.analyzer(victim.nf)
        if victim.kind == "drop":
            period = analyzer.period_at(victim.arrival_ns)
        else:
            period = analyzer.period_for_arrival(victim.pid, victim.arrival_ns)
        result = VictimDiagnosis(victim=victim, period=period)
        confidence = self._nf_confidence(victim.nf)
        if period is None or period.queue_len <= 0:
            # No queue behind the problem: in-NF misbehaviour (section 7).
            result.culprits.append(
                Culprit(
                    kind="local",
                    location=victim.nf,
                    score=1.0,
                    culprit_pids=(victim.pid,),
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=0,
                    culprit_time_ns=victim.arrival_ns,
                    confidence=confidence,
                )
            )
            return result

        scores = self._local_scores(period, self._effective_peak(victim.nf))
        result.local = scores
        preset = analyzer.preset_pids(period)
        if scores.sp > self.min_score:
            result.culprits.append(
                Culprit(
                    kind="local",
                    location=victim.nf,
                    score=scores.sp,
                    culprit_pids=tuple(preset),
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=0,
                    culprit_time_ns=period.start_ns,
                    confidence=confidence,
                )
            )
        if scores.si > self.min_score:
            self._attribute_input(
                nf=victim.nf,
                period=period,
                preset=preset,
                si=scores.si,
                victim=victim,
                depth=0,
                result=result,
                confidence=confidence,
            )
        return result

    def diagnose_all(
        self,
        victims: Sequence[Victim],
        task_timeout_s: Optional[float] = None,
        executor=None,
    ) -> List[VictimDiagnosis]:
        """Diagnose every victim, in victim order.

        Without an ``executor`` the batch runs serially in this thread.
        With one (a :class:`repro.fleet.WorkerPool` a fleet shares across
        its pipelines) the batch is one task on one warm worker, so a
        pipeline's chunk computes outside this process while sibling
        threads journal; the output is identical to the serial one.

        ``task_timeout_s`` is the pool's per-task watchdog: a task that
        misses it has its worker killed, and a lost task (timed out,
        crashed or errored) is diagnosed serially here, counted in
        ``cache_stats.worker_timeouts``/``worker_failures``.
        """
        if executor is not None:
            return executor.diagnose(self, victims, task_timeout_s)
        if len(victims) > 1:
            self._prefill_periods(victims)
        return [self.diagnose(victim) for victim in victims]

    # -- dispatcher contract (what a worker pool needs from the engine) ---------

    def worker_init_args(self) -> tuple:
        """Constructor arguments that rebuild this engine in a worker
        process (``_parallel_worker_init(*args)``)."""
        return (
            self.trace,
            self.max_depth,
            self.min_score,
            self._queue_threshold,
            self.memoize,
        )

    def record_worker_failure(self, timed_out: bool = False) -> None:
        """Count one task the pool lost (and will have retried serially)."""
        self._worker_failures += 1
        if timed_out:
            self._worker_timeouts += 1

    def _prefill_periods(self, victims: Sequence[Victim]) -> None:
        """Resolve the depth-0 recursion frontier in one vectorized pass.

        All non-drop victims at one NF have their queuing periods gathered
        from the analyzer index in a single batched call
        (:meth:`QueuingAnalyzer.periods_for_arrivals`); ``diagnose`` then
        consumes the parked hints instead of doing per-victim index walks.
        Periods are not memo-counted, so parking them leaves
        ``cache_stats`` untouched, and the hints are integer-identical to
        per-victim lookups.  With memoization on, the resolved buildups'
        local scores are additionally computed as one vectorized batch
        (:func:`local_scores_batch`, bit-identical to scalar calls) and
        seeded into the memo under the same miss accounting the per-victim
        path would have charged.
        """
        by_nf: Dict[str, List[Tuple[int, int]]] = {}
        for victim in victims:
            if victim.kind == "drop" or victim.nf not in self.trace.nfs:
                continue
            by_nf.setdefault(victim.nf, []).append(
                (victim.pid, victim.arrival_ns)
            )
        for nf, pairs in by_nf.items():
            analyzer = self.analyzer(nf)
            try:
                analyzer.periods_for_arrivals(pairs)
            except TraceError:
                # A victim arrival outside the stream: drop the partial
                # batch and let diagnose() surface the error (or not) at
                # exactly the victim it belongs to.
                analyzer._period_hints.clear()
                continue
            if not self.memoize:
                continue
            # Unique buildups that diagnose() would score (queue backed up,
            # not yet memoized), in hint order.
            fresh: List[QueuingPeriod] = []
            seen = set()
            for pair in pairs:
                period = analyzer._period_hints.get(pair)
                if (
                    period is None
                    or period.queue_len <= 0
                    or period in seen
                    or period in self._local_cache
                ):
                    continue
                seen.add(period)
                fresh.append(period)
            if not fresh:
                continue
            peak = self._effective_peak(nf)
            for period, scores in zip(fresh, local_scores_batch(fresh, peak)):
                self._local_misses += 1  # same charge as the scalar path
                self._local_cache[period] = scores
                self._local_gen[period] = self._chunk_generation

    # -- recursion ------------------------------------------------------------

    def _attribute_input(
        self,
        nf: str,
        period: QueuingPeriod,
        preset: List[int],
        si: float,
        victim: Victim,
        depth: int,
        result: VictimDiagnosis,
        confidence: float = 1.0,
    ) -> None:
        peak = self._effective_peak(nf)
        texp_ns = period.n_input / peak * 1e9
        shares, attributions = propagation_scores(
            self.trace,
            nf,
            preset,
            si,
            texp_ns,
            decomposition=self._decomposition(nf, period),
        )
        if depth == 0:
            result.attributions = attributions
        if not shares:
            # Can't trace upstream (e.g. no packet metadata): keep the blame
            # at this NF's input as a source-side unknown.
            result.culprits.append(
                Culprit(
                    kind="source",
                    location="<unattributed>",
                    score=si,
                    culprit_pids=tuple(preset),
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=depth,
                    culprit_time_ns=victim.arrival_ns,
                    confidence=confidence,
                )
            )
            return
        for share in shares:
            if share.score <= self.min_score:
                continue
            if share.is_source:
                result.culprits.append(
                    Culprit(
                        kind="source",
                        location=share.name,
                        score=share.score,
                        culprit_pids=share.subset_pids,
                        victim_pid=victim.pid,
                        victim_nf=victim.nf,
                        depth=depth,
                        culprit_time_ns=self._earliest_emit(
                            share.subset_pids, victim.arrival_ns
                        ),
                        confidence=confidence,
                    )
                )
            else:
                self._recurse_nf(share, victim, depth, result, confidence)

    def _recurse_nf(
        self,
        share: EntityShare,
        victim: Victim,
        depth: int,
        result: VictimDiagnosis,
        confidence: float = 1.0,
    ) -> None:
        nf = share.name
        result.recursion_depth = max(result.recursion_depth, depth + 1)
        # propagation_scores precomputes the earliest subset arrival; the
        # scan only runs for externally built shares without one.
        first = share.first_hop_arrival
        if first is None:
            first = self._first_preset_arrival(nf, share.subset_pids)
        if self._quarantined(nf):
            # The blame trail reaches an NF whose telemetry failed
            # validation: its queuing record cannot be trusted enough to
            # split the share into local/input, so recursion stops with an
            # explicit low-evidence marker rather than a confident guess.
            result.culprits.append(
                Culprit(
                    kind="low-evidence",
                    location=nf,
                    score=share.score,
                    culprit_pids=share.subset_pids,
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=depth + 1,
                    culprit_time_ns=(
                        first[1] if first is not None else victim.arrival_ns
                    ),
                    confidence=0.0,
                )
            )
            return
        confidence *= self._nf_confidence(nf)
        period = None
        if first is not None and depth + 1 < self.max_depth:
            first_pid, first_arrival = first
            try:
                period = self.analyzer(nf).period_for_arrival(
                    first_pid, first_arrival
                )
            except TraceError:
                # The upstream arrival lies outside the available trace
                # window (e.g. chunked diagnosis with a short lookback):
                # fall back to blaming the NF locally rather than failing.
                period = None
        if period is None or period.queue_len <= 0:
            # The timespan squeeze at this NF was purely local (e.g. an
            # interrupt stalling an empty-queue NF): blame it here.
            result.culprits.append(
                Culprit(
                    kind="local",
                    location=nf,
                    score=share.score,
                    culprit_pids=share.subset_pids,
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=depth + 1,
                    culprit_time_ns=(
                        first[1] if first is not None else victim.arrival_ns
                    ),
                    confidence=confidence,
                )
            )
            return
        scores = self._local_scores(period, self._effective_peak(nf))
        if scores.total <= 0:
            sp_share, si_share = share.score, 0.0
        else:
            sp_share = share.score * scores.sp / scores.total
            si_share = share.score * scores.si / scores.total
        preset = self.analyzer(nf).preset_pids(period)
        if sp_share > self.min_score:
            result.culprits.append(
                Culprit(
                    kind="local",
                    location=nf,
                    score=sp_share,
                    culprit_pids=tuple(preset),
                    victim_pid=victim.pid,
                    victim_nf=victim.nf,
                    depth=depth + 1,
                    culprit_time_ns=period.start_ns,
                    confidence=confidence,
                )
            )
        if si_share > self.min_score:
            self._attribute_input(
                nf=nf,
                period=period,
                preset=preset,
                si=si_share,
                victim=victim,
                depth=depth + 1,
                result=result,
                confidence=confidence,
            )

    # -- helpers ---------------------------------------------------------------

    def _first_preset_arrival(
        self, nf: str, pids: Sequence[int]
    ) -> Optional[Tuple[int, int]]:
        """Earliest ``(pid, arrival_ns)`` among ``pids`` at ``nf``, ties to
        the first pid in ``pids`` order; None when none of them arrived."""
        cols = self.trace.columns()
        code = cols.nf_code.get(nf)
        return None if code is None else cols.first_preset_arrival(code, pids)

    def _earliest_emit(self, pids: Sequence[int], fallback_ns: int) -> int:
        """Earliest emit time among ``pids``, or ``fallback_ns``.

        The fallback matters when none of the pids exist in the trace
        (e.g. a chunked sub-trace whose margin cut them off): reporting 0
        would put the culprit at the epoch and wreck time-gap statistics,
        so the victim's own arrival time stands in instead.
        """
        earliest = self.trace.columns().earliest_emit(pids)
        return fallback_ns if earliest is None else earliest


# -- compact worker wire format ----------------------------------------------
#
# Pickling full VictimDiagnosis trees back from pool workers dominates IPC
# cost: every Culprit/LocalScores/QueuingPeriod/PathAttribution instance
# pays per-object pickle overhead, and the victim objects round-trip even
# though the parent already holds them.  Workers therefore return one flat
# tuple of primitives per victim; the parent rebuilds the dataclasses
# around the victims it submitted.  Reconstruction is deterministic and
# field-exact, so pooled output stays bit-identical to serial output
# (pinned by tests/core/test_fastpath.py).
#
# Layout per diagnosis (victim-dependent fields are *omitted* — every
# culprit carries victim_pid/victim_nf == victim.pid/victim.nf, the period
# nf is the victim nf, and LocalScores duplicates the period's counts):
#
#   (culprits, period, local, attributions, recursion_depth)
#     culprits:     ((kind, location, score, culprit_pids, depth, time_ns,
#                     confidence), ...)
#     period:       (start, end, first_idx, last_idx, n_input, n_processed) | None
#     local:        (si, sp, expected) | None
#     attributions: ((path, subset_pids, timespans, contributions, share), ...)

_Wire = Tuple[tuple, Optional[tuple], Optional[tuple], tuple, int]


def _diagnosis_to_wire(diagnosis: VictimDiagnosis) -> _Wire:
    period = diagnosis.period
    local = diagnosis.local
    return (
        tuple(
            (
                c.kind,
                c.location,
                c.score,
                c.culprit_pids,
                c.depth,
                c.culprit_time_ns,
                c.confidence,
            )
            for c in diagnosis.culprits
        ),
        None
        if period is None
        else (
            period.start_ns,
            period.end_ns,
            period.first_arrival_idx,
            period.last_arrival_idx,
            period.n_input,
            period.n_processed,
        ),
        None if local is None else (local.si, local.sp, local.expected),
        tuple(
            (a.path, a.subset_pids, a.timespans_ns, a.contributions, a.share_of_si)
            for a in diagnosis.attributions
        ),
        diagnosis.recursion_depth,
    )


def _diagnosis_from_wire(victim: Victim, wire: _Wire) -> VictimDiagnosis:
    culprits_w, period_w, local_w, attributions_w, depth = wire
    period = None
    if period_w is not None:
        start, end, first_idx, last_idx, n_input, n_processed = period_w
        period = QueuingPeriod(
            nf=victim.nf,
            start_ns=start,
            end_ns=end,
            first_arrival_idx=first_idx,
            last_arrival_idx=last_idx,
            n_input=n_input,
            n_processed=n_processed,
        )
    local = None
    if local_w is not None:
        si, sp, expected = local_w
        local = LocalScores(
            si=si,
            sp=sp,
            n_input=period.n_input,
            n_processed=period.n_processed,
            expected=expected,
            period=period,
        )
    return VictimDiagnosis(
        victim=victim,
        culprits=[
            Culprit(
                kind=kind,
                location=location,
                score=score,
                culprit_pids=pids,
                victim_pid=victim.pid,
                victim_nf=victim.nf,
                depth=c_depth,
                culprit_time_ns=time_ns,
                confidence=conf,
            )
            for kind, location, score, pids, c_depth, time_ns, conf in culprits_w
        ],
        local=local,
        period=period,
        attributions=[
            PathAttribution(
                path=path,
                subset_pids=subset,
                timespans_ns=spans,
                contributions=contribs,
                share_of_si=share,
            )
            for path, subset, spans, contribs, share in attributions_w
        ],
        recursion_depth=depth,
    )


# -- worker-side entry points ---------------------------------------------------
#
# ``repro.fleet.pool`` workers resolve both through this module's globals at
# call time, so a fork-inherited monkeypatch of either (how the watchdog
# tests wedge or crash a worker) takes effect in the child.

_WORKER_ENGINE: Optional[MicroscopeEngine] = None


def _parallel_worker_init(*engine_args) -> None:
    """Build this worker's engine from ``MicroscopeEngine.worker_init_args()``."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = MicroscopeEngine(*engine_args)


def _parallel_worker_diagnose(victims: List[Victim]) -> List[_Wire]:
    assert _WORKER_ENGINE is not None, "worker pool used before initialization"
    if len(victims) > 1:
        _WORKER_ENGINE._prefill_periods(victims)
    return [_diagnosis_to_wire(_WORKER_ENGINE.diagnose(victim)) for victim in victims]


#: Public aliases: the wire codec doubles as the service's journal format
#: (JSON-safe after tuple->list conversion), so it is part of the API.
diagnosis_to_wire = _diagnosis_to_wire
diagnosis_from_wire = _diagnosis_from_wire
