"""The always-on diagnosis service: crash-only chunked diagnosis.

:class:`DiagnosisService` drives :class:`~repro.core.streaming.StreamingDiagnosis`
chunk by chunk under a per-chunk commit protocol:

1. ``chunk-start``          — select the chunk's victims, shed over budget,
2. diagnose (watchdogged, retried with exponential backoff + jitter),
3. ``after-diagnose``       — results exist only in memory,
4. journal append + fsync   (``mid-journal`` can tear the write),
5. ``after-journal``        — journal is ahead of the checkpoint,
6. checkpoint commit        (``mid-checkpoint`` / ``after-checkpoint-file`` /
   ``corrupt-checkpoint`` fire inside :meth:`Checkpointer.save`),
7. ``after-checkpoint``     — chunk fully committed.

Kill the process at *any* of those points and a restarted service resumes
at the last committed chunk boundary: the recovery ladder selects the
newest checkpoint that validates, the journal is truncated back to the
offset that checkpoint covers (discarding torn or uncovered tails), and
diagnosis — which is deterministic and memo-result-invariant — re-runs
the interrupted chunk to byte-identical journal lines.  There is no
repair path anywhere: recovery is selection plus truncation.

The commit path writes each verdict once and never reads it back:
:class:`ServiceReport` lists the diagnoses of the chunks whose journal
append returned, minus those compaction has since folded away — exactly
what ``journal.diagnoses()`` would decode.  The journal itself is read
only on resume (tally rebuild, the report's prefix) and by compaction.

Load shedding is explicit and never silent: when a chunk's victim list
exceeds ``max_victims_per_chunk``, the keep-set retains the worst victims
(drops first, then by metric) and every shed pid is journalled with the
chunk and counted in :class:`ServiceStats`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Deque, List, Optional, Tuple, Union

import zlib

from repro.aggregation.sketches import BoundedCulpritTally, tally_from_payload
from repro.aggregation.tallies import CulpritTally
from repro.core.diagnosis import VictimDiagnosis
from repro.core.records import DiagTrace
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import Victim
from repro.errors import (
    CheckpointError,
    IngestError,
    ServiceError,
    ServiceStopped,
    TransientError,
)
from repro.ingest.watermark import SNAPSHOT_VERSION
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    canonical_payload_bytes,
)
from repro.service.journal import (
    ResultJournal,
    chunk_record,
    dead_letter_record,
    tally_record,
)
from repro.service.source import FixedTraceSource, trace_fingerprint
from repro.util.retry import RetryPolicy, backoff_delay, retry_call
from repro.util.rng import substream

# v3: sketch-backed aggregation (tally_budget joins the fingerprint —
# budgeted and exact tallies accumulate differently, so their checkpoints
# must never cross-resume).  v2 introduced live mode, absolute victim
# thresholds, and the tally digest.
SERVICE_STATE_VERSION = 3


@dataclass
class ServiceConfig:
    """Operating parameters of one service instance."""

    state_dir: Union[str, Path]
    chunk_ns: int = 50_000_000
    margin_ns: int = 100_000_000
    victim_pct: float = 99.0
    #: Absolute hop-latency victim threshold (ns).  When set it replaces
    #: the percentile rule; **required in live mode**, where victim
    #: selection must be prefix-stable (a trace-global percentile over a
    #: still-growing trace is not causal).
    victim_threshold_ns: Optional[int] = None
    #: Append a rolling tally snapshot to the journal every N chunks and
    #: checkpoint only a {crc32, snapshot_offset} digest, so checkpoint
    #: size stays flat no matter how long the run (0 = snapshot never;
    #: restores then replay the whole journal to rebuild the tally).
    tally_compact_every: int = 8
    #: Watchdog deadline per pooled chunk task (fleet mode); a wedged
    #: worker is killed and its victims retried serially (surfaced as
    #: ``worker_timeouts``).
    task_timeout_s: Optional[float] = None
    #: Load-shedding budget: max victims diagnosed per chunk (None = all).
    max_victims_per_chunk: Optional[int] = None
    #: Transient-failure retry policy: up to ``max_retries`` re-attempts
    #: with ``base * 2**attempt`` backoff (capped), jittered by the
    #: checkpointed RNG so schedules replay identically after a resume.
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter_seed: int = 0
    #: Checkpoint generations retained (>= 2: corrupt-newest fallback).
    keep_checkpoints: int = 2
    #: fsync everything (tests on tmpfs may turn this off for speed).
    durable: bool = True
    #: Bounded memory: entry budget for the culprit tally (None = exact,
    #: unbounded).  With a budget the tally is a weighted SpaceSaving
    #: sketch — exact while distinct culprits fit, error-bounded above —
    #: and the budget joins the fingerprint (it changes journalled tally
    #: snapshots, so budgeted and exact runs must never cross-resume).
    tally_budget: Optional[int] = None
    #: Bounded disk: seal the journal's active file into a segment once it
    #: reaches this many bytes (0 = never rotate).  Rotation is physical
    #: layout only — logical offsets and bytes are unchanged.
    journal_rotate_bytes: int = 0
    #: Fold sealed segments older than every retained checkpoint's needs
    #: into the compaction header once they exceed this many bytes
    #: (0 = never).  Requires ``tally_compact_every > 0``: without tally
    #: snapshots every checkpoint replays the journal from offset zero,
    #: pinning the compaction floor there forever.
    journal_compact_bytes: int = 0
    #: Bounded replay: snapshot the ingest state (transport cursors, feed
    #: buffers, builder) every N committed chunks, so recovery replays a
    #: bounded suffix of the transport instead of the whole run
    #: (0 = never snapshot; recovery then re-ingests from record zero).
    ingest_checkpoint_every: int = 0
    #: Bounded memory, ingest side: prune builder state more than this
    #: many chunks behind the next chunk at each boundary.  None derives
    #: ``ceil(margin_ns / chunk_ns) + 2`` when ingest snapshots are on and
    #: disables pruning otherwise; explicit values are clamped up to the
    #: margin so no future chunk's window is ever eaten.
    replay_retain_chunks: Optional[int] = None
    #: After the retry budget, journal a ``chunk_failed`` dead letter and
    #: keep going instead of failing the whole service (False = raise,
    #: the fail-stop default).
    dead_letter_chunks: bool = False

    def fingerprint(self, source) -> dict:
        """Identity stamped into checkpoints: resume must match exactly.

        Anything that changes which victims exist or how chunks are cut
        makes old checkpoints meaningless, so it all goes in.  ``source``
        is a TelemetrySource (fingerprinted by its own notion of
        identity) or a bare trace."""
        source_fp = (
            source.fingerprint()
            if hasattr(source, "fingerprint")
            else trace_fingerprint(source)
        )
        return {
            "state_version": SERVICE_STATE_VERSION,
            "chunk_ns": self.chunk_ns,
            "margin_ns": self.margin_ns,
            "victim_pct": self.victim_pct,
            "victim_threshold_ns": self.victim_threshold_ns,
            "tally_compact_every": self.tally_compact_every,
            "tally_budget": self.tally_budget,
            "jitter_seed": self.jitter_seed,
            "trace": source_fp,
        }


@dataclass
class ServiceStats:
    """Everything the service did, including what it survived.

    Rides inside the checkpoint payload, so counters accumulated before a
    crash are not lost — ``resumes`` and friends then record the recovery
    itself.  All fields are ints/floats: the payload is pure JSON.
    """

    chunks_done: int = 0
    victims_diagnosed: int = 0
    #: Load shedding (never silent): victims dropped over budget, and in
    #: how many chunks the budget bit.
    victims_shed: int = 0
    shed_chunks: int = 0
    #: Transient-failure handling.
    transient_failures: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    #: Hung/killed pool workers (deltas pulled from the engine).
    worker_failures: int = 0
    worker_timeouts: int = 0
    #: Durability.
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    journal_bytes: int = 0
    #: Recovery: set by the run that performs it, then carried forward.
    resumes: int = 0
    corrupt_checkpoints: int = 0
    checkpoint_fallbacks: int = 0
    journal_bytes_truncated: int = 0
    #: Live ingestion (absolute values synced from the TelemetrySource —
    #: a restarted service re-ingests from the transport's beginning, so
    #: overwrites, never accumulation, keep them restart-consistent).
    ingest_records_applied: int = 0
    ingest_records_pulled: int = 0
    ingest_duplicates: int = 0
    ingest_rejects: int = 0
    ingest_gaps: int = 0
    ingest_quarantined: int = 0
    ingest_transport_failures: int = 0
    ingest_disconnects: int = 0
    ingest_retries: int = 0
    ingest_reconnects: int = 0
    ingest_sheds: int = 0
    ingest_peak_buffered: int = 0
    ingest_evictions: int = 0
    #: Clock-fault tolerance (zero when clock models are disabled).
    ingest_clock_faults: int = 0
    ingest_clock_repairs: int = 0
    ingest_clock_updates: int = 0
    ingest_clock_uncertainty_ns: int = 0
    #: Endurance: bounded replay, dead letters, journal rotation.
    #: ``bounded_resumes``/``full_replays`` classify each live-mode resume
    #: by whether an ingest snapshot bounded the transport replay.
    bounded_resumes: int = 0
    full_replays: int = 0
    ingest_snapshots: int = 0
    ingest_snapshot_bytes: int = 0
    chunks_dead_lettered: int = 0
    journal_rotations: int = 0
    journal_compactions: int = 0
    journal_bytes_compacted: int = 0

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: dict) -> "ServiceStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class ServiceReport:
    """Final output of :meth:`DiagnosisService.run`."""

    diagnoses: List[VictimDiagnosis]
    tally: CulpritTally
    stats: ServiceStats
    n_chunks: int


def shed_victims(
    victims: List[Victim], budget: Optional[int]
) -> Tuple[List[Victim], List[Victim]]:
    """(kept, shed) under ``budget``, retaining the worst victims.

    Priority: drops before latency victims, then higher metric; ties break
    on (arrival, pid) so the keep-set is deterministic.  Kept victims stay
    in their original arrival order — diagnosis order must not depend on
    whether shedding ran.
    """
    if budget is None or len(victims) <= budget:
        return victims, []
    ranked = sorted(
        victims,
        key=lambda v: (v.kind != "drop", -v.metric, v.arrival_ns, v.pid),
    )
    keep_pids = {v.pid for v in ranked[:budget]}
    kept = [v for v in victims if v.pid in keep_pids]
    shed = [v for v in victims if v.pid not in keep_pids]
    return kept, shed


class DiagnosisService:
    """Supervised continuous diagnosis over one trace with crash recovery.

    ``clock``/``sleep`` are injectable for tests (backoff without real
    waiting); ``faults`` is the :mod:`repro.service.crashsim` injector and
    ``flaky`` a transient-failure schedule — both None in production.
    """

    def __init__(
        self,
        trace: Union[DiagTrace, object],
        config: ServiceConfig,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        faults=None,
        flaky=None,
        executor=None,
        stop_check: Optional[Callable[[], bool]] = None,
        pipeline: str = "",
        inflight=None,
    ) -> None:
        # A bare DiagTrace is the replay path: wrap it in the fixed
        # source so the run loop sees one TelemetrySource shape.
        if hasattr(trace, "pump"):
            self.source = trace
        else:
            self.source = FixedTraceSource(trace, chunk_ns=config.chunk_ns)
        self.trace = self.source.trace
        if self.source.live:
            if self.source.chunk_ns != config.chunk_ns:
                raise ServiceError(
                    f"source seals {self.source.chunk_ns}ns chunks but the "
                    f"service diagnoses {config.chunk_ns}ns chunks"
                )
            if config.victim_threshold_ns is None:
                raise ServiceError(
                    "live mode requires victim_threshold_ns: percentile "
                    "victim selection is not causal over a growing trace"
                )
        if config.journal_compact_bytes and not config.tally_compact_every:
            raise ServiceError(
                "journal compaction requires tally snapshots "
                "(tally_compact_every > 0): without them every checkpoint "
                "replays the journal from offset zero, so the compaction "
                "floor never rises"
            )
        self.config = config
        self.clock = clock
        self.sleep = sleep
        self.faults = faults
        self.flaky = flaky
        #: Persistent worker pool shared across pipelines (fleet mode):
        #: each chunk becomes one task on one warm worker.  None means
        #: chunks diagnose serially in this thread — the service never
        #: keeps a pool on its own; injection is the opt-in.
        self.executor = executor
        #: Supervisor stop order, polled at chunk boundaries only: a
        #: sibling pipeline's crash stops this one *between* committed
        #: chunks, never inside one, via :class:`ServiceStopped`.
        self.stop_check = stop_check
        #: Name under the fleet supervisor (diagnostics only).
        self.pipeline = pipeline
        #: Fleet in-flight chunk counter: ``inflight.chunk()`` wraps each
        #: chunk's commit protocol.  Telemetry only — it never blocks and
        #: never changes what a chunk computes.
        self.inflight = inflight
        state_dir = Path(config.state_dir)
        self.checkpointer = Checkpointer(
            state_dir / "checkpoints",
            keep=config.keep_checkpoints,
            durable=config.durable,
        )
        self.journal = ResultJournal(
            state_dir / "journal.jsonl", durable=config.durable
        )
        #: Bounded replay: a second checkpoint ladder for ingest snapshots.
        #: Strictly an optimization — a lost or unusable snapshot only
        #: means a full transport replay, never wrong output — so it is
        #: created only when the feature is on and the source is live.
        self.ingest_checkpointer: Optional[Checkpointer] = None
        if config.ingest_checkpoint_every and self.source.live:
            self.ingest_checkpointer = Checkpointer(
                state_dir / "ingest",
                keep=config.keep_checkpoints,
                durable=config.durable,
            )
        retain = config.replay_retain_chunks
        if retain is None and config.ingest_checkpoint_every:
            retain = -(-config.margin_ns // config.chunk_ns) + 2
        if retain is not None:
            # Never prune into a future chunk's diagnosis window: chunk k's
            # window reaches margin_ns behind k*chunk_ns.
            retain = max(retain, -(-config.margin_ns // config.chunk_ns) + 1)
        self._retain_chunks: Optional[int] = retain
        self.stream = StreamingDiagnosis(
            self.trace,
            StreamingConfig(chunk_ns=config.chunk_ns, margin_ns=config.margin_ns),
            victim_pct=config.victim_pct,
            victim_threshold_ns=config.victim_threshold_ns,
            task_timeout_s=config.task_timeout_s,
            executor=executor,
        )
        self.stats = ServiceStats()
        self.tally = self._make_tally()
        #: Journal offset of the newest tally snapshot (None = no snapshot
        #: yet; tally rebuilds replay the journal from this point).
        self._tally_ref: Optional[int] = None
        self._fingerprint = config.fingerprint(self.source)
        self._rng = substream(config.jitter_seed, "service-backoff")
        self._retry_policy = RetryPolicy(
            max_retries=config.max_retries,
            base_s=config.backoff_base_s,
            cap_s=config.backoff_cap_s,
        )
        #: ``ServiceReport.diagnoses`` in the making: (journal end offset,
        #: diagnoses) per retained diagnosed chunk, oldest first.  Filled
        #: as chunks commit and trimmed as compaction folds their records,
        #: so it always equals ``journal.chunk_diagnoses()`` without the
        #: commit path ever reading the journal back.
        self._reported: Deque[Tuple[int, List[VictimDiagnosis]]] = deque()
        # Engine worker counters are absolute per engine instance; the
        # service accumulates deltas so they survive engine re-opens.
        self._worker_failures_seen = 0
        self._worker_timeouts_seen = 0
        # High-water marks for the clock kill-points: a point fires when
        # the synced absolute counter moves past what this run has seen.
        self._clock_updates_seen = 0
        self._clock_faults_seen = 0

    # -- recovery ---------------------------------------------------------------

    def _make_tally(self) -> CulpritTally:
        """Fresh tally of the configured flavour (exact or budgeted)."""
        if self.config.tally_budget is not None:
            return BoundedCulpritTally(budget=self.config.tally_budget)
        return CulpritTally()

    def _ingest_fingerprint(self) -> dict:
        """Identity stamped into ingest snapshots.

        Includes the snapshot cadence and retention horizon on top of the
        service fingerprint: a snapshot taken under a different pruning
        schedule holds a differently pruned state, and restoring it would
        diverge from the uninterrupted run it must be byte-identical to.
        """
        return {
            "service": self._fingerprint,
            "snapshot_version": SNAPSHOT_VERSION,
            "every": self.config.ingest_checkpoint_every,
            "retain": self._retain_chunks,
        }

    def _restore_ingest(self, next_chunk: int) -> None:
        """Bound the transport replay with the newest usable snapshot.

        Usable means: fingerprint matches, and the snapshot's boundary is
        at or before the service's resume point (a snapshot *ahead* of the
        resume point would skip chunks the service still has to diagnose).
        Anything else — including a fingerprint mismatch, which for the
        *service* ladder is fatal — just falls back to a full replay:
        snapshots are an optimization, never a correctness requirement.
        """
        if not self.source.live or next_chunk <= 0:
            return
        if self.ingest_checkpointer is None:
            self.stats.full_replays += 1
            return
        fingerprint = self._ingest_fingerprint()
        newest = None
        restored = False
        for loaded in self.ingest_checkpointer.load_ladder():
            if newest is None:
                newest = loaded
            payload = loaded.payload
            if (
                payload.get("kind") != "ingest"
                or payload.get("fingerprint") != fingerprint
                or payload.get("next_chunk", 0) > next_chunk
            ):
                continue
            try:
                self.source.restore_state(payload["source"])
            except (IngestError, KeyError, TypeError, ValueError):
                continue
            restored = True
            break
        if newest is not None:
            # Continue numbering past the newest valid generation even on
            # a full replay, so fresh snapshots never collide with stale
            # files from before the crash.
            self.ingest_checkpointer.resume_from(newest)
        if restored:
            self.stats.bounded_resumes += 1
        else:
            self.stats.full_replays += 1

    def _restore(self) -> int:
        """Select a resume point; returns the first chunk still to do.

        Walks the checkpoint ladder newest-first.  A rung is usable when
        its fingerprint matches this service and the journal still holds
        the bytes it covers; unusable-but-valid rungs with a *different*
        fingerprint are a config/trace mismatch and fatal.  With no usable
        rung the service starts fresh — discarding any journal bytes, which
        no checkpoint vouches for.
        """
        for loaded in self.checkpointer.load_ladder():
            payload = loaded.payload
            if payload.get("fingerprint") != self._fingerprint:
                raise CheckpointError(
                    f"checkpoint generation {loaded.generation} in "
                    f"{self.checkpointer.directory} was written by a different "
                    "service configuration or trace; refusing to resume"
                )
            try:
                discarded = self.journal.truncate_to(payload["journal_offset"])
                tally = self._rebuild_tally(payload["tally_digest"])
            except ServiceError:
                # Journal lost (or corrupted) bytes this rung relies on:
                # fall back a rung.
                continue
            self.stats = ServiceStats.from_payload(payload["stats"])
            self.tally = tally
            self._tally_ref = payload["tally_digest"]["snapshot_offset"]
            self._rng.bit_generator.state = payload["rng_state"]
            self.stats.resumes += 1
            self.stats.corrupt_checkpoints += len(loaded.corrupt)
            if loaded.fell_back or loaded.corrupt:
                self.stats.checkpoint_fallbacks += 1
            self.stats.journal_bytes_truncated += discarded
            self.checkpointer.resume_from(loaded)
            self._restore_ingest(payload["next_chunk"])
            return payload["next_chunk"]
        # Fresh start (possibly because every generation was corrupt).
        self.stats.corrupt_checkpoints += len(self.checkpointer.rejected)
        if self.checkpointer.rejected:
            self.stats.resumes += 1
            self.stats.checkpoint_fallbacks += 1
        self.stats.journal_bytes_truncated += self.journal.truncate_to(0)
        return 0

    def _rebuild_tally(self, digest: dict) -> CulpritTally:
        """Reconstruct the culprit tally from its journalled snapshot.

        The checkpoint carries only ``{crc32, snapshot_offset}``; the full
        tally lives in the journal as the newest tally snapshot record,
        plus the chunk records appended after it (replayed here — per-chunk
        ``update`` with wire-decoded diagnoses reproduces the original
        float accumulation exactly, since the JSON wire round-trips floats
        bit-for-bit and preserves order).  A CRC mismatch means the
        journal region this rung relies on was damaged: raise, so the
        caller falls down the ladder.
        """
        snapshot_offset = digest["snapshot_offset"]
        tally = self._make_tally()
        replay_from = 0
        if snapshot_offset is not None:
            _chunk, body, replay_from = self.journal.record_at(snapshot_offset)
            if body.get("kind") != "tally":
                raise ServiceError(
                    f"checkpoint tally digest points at offset "
                    f"{snapshot_offset}, which is not a tally snapshot"
                )
            tally = tally_from_payload(body["tally"])
        elif self.journal.retained_from:
            # No snapshot but the journal was compacted: the pre-floor
            # chunk records live folded inside the compaction header.
            compacted = self.journal.compacted_tally_payload()
            if compacted is not None:
                tally = tally_from_payload(compacted)
                replay_from = self.journal.retained_from
        for _end, diagnoses in self.journal.chunk_diagnoses(replay_from):
            tally.update(diagnoses)
        crc = zlib.crc32(canonical_payload_bytes(tally.to_payload()))
        if crc != digest["crc32"]:
            raise ServiceError(
                "rebuilt tally does not match the checkpointed digest CRC"
            )
        return tally

    # -- per-chunk protocol -----------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(self._retry_policy, attempt, self._rng)

    def _diagnose_with_retry(self, index: int, victims: List[Victim]):
        """Retry transient chunk failures with jittered backoff.

        Catches ``Exception`` only: :class:`SimulatedCrash` (and real
        SIGKILL) are BaseException and always unwind the process.  The
        jitter comes from the checkpointed RNG via the shared
        :mod:`repro.util.retry` helper, so restored runs replay the
        identical delay schedule.
        """

        def attempt_chunk():
            if self.flaky is not None and self.flaky.should_fail(index):
                raise TransientError(f"injected transient failure in chunk {index}")
            return self.stream.diagnose_chunk(index, victims=victims)

        def on_failure(exc: BaseException, attempt: int) -> None:
            self.stats.transient_failures += 1

        def on_retry(delay: float) -> None:
            self.stats.retries += 1
            self.stats.backoff_total_s += delay

        return retry_call(
            attempt_chunk,
            self._retry_policy,
            self._rng,
            sleep=self.sleep,
            retry_on=Exception,
            on_failure=on_failure,
            on_retry=on_retry,
            give_up=lambda exc, attempts: ServiceError(
                f"chunk {index} failed after {attempts} attempts: {exc}"
            ),
        )

    def _harvest_worker_stats(self) -> None:
        engine = self.stream.engine
        if engine is None:
            return
        cache = engine.cache_stats
        self.stats.worker_failures += (
            cache.worker_failures - self._worker_failures_seen
        )
        self.stats.worker_timeouts += (
            cache.worker_timeouts - self._worker_timeouts_seen
        )
        self._worker_failures_seen = cache.worker_failures
        self._worker_timeouts_seen = cache.worker_timeouts

    def _checkpoint_payload(self, next_chunk: int, journal_offset: int) -> dict:
        # The tally itself stays out of the payload: its size grows with
        # the number of distinct culprits seen, which would make
        # checkpoints grow without bound on long runs.  The digest pins
        # the exact value (CRC over the canonical payload) while the data
        # lives in the journal (snapshot + replayable chunk records).
        tally_crc = zlib.crc32(canonical_payload_bytes(self.tally.to_payload()))
        return {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self._fingerprint,
            "next_chunk": next_chunk,
            "journal_offset": journal_offset,
            "stats": self.stats.to_payload(),
            "tally_digest": {"crc32": tally_crc, "snapshot_offset": self._tally_ref},
            "rng_state": self._rng.bit_generator.state,
        }

    def _check_stop(self) -> None:
        """Honour a supervisor stop order at a chunk boundary.

        :class:`ServiceStopped` is BaseException, like a simulated crash:
        it unwinds past the retry machinery, and because it only ever
        fires *between* chunk commits the journal/checkpoint pair it
        leaves behind is exactly what a kill at a chunk boundary leaves —
        a restart resumes byte-identically.
        """
        if self.stop_check is not None and self.stop_check():
            raise ServiceStopped(self.pipeline)

    def _process_chunk(
        self, index: int, ingest_sheds: Tuple = (), ingest_evictions: int = 0
    ) -> None:
        self._check_stop()
        if self.inflight is None:
            self._process_chunk_inner(index, ingest_sheds, ingest_evictions)
            return
        with self.inflight.chunk():
            self._process_chunk_inner(index, ingest_sheds, ingest_evictions)

    def _process_chunk_inner(
        self, index: int, ingest_sheds: Tuple = (), ingest_evictions: int = 0
    ) -> None:
        faults = self.faults
        if faults is not None:
            faults.kill("chunk-start", index)
        victims = self.stream.victims_for_chunk(index)
        kept, shed = shed_victims(victims, self.config.max_victims_per_chunk)
        try:
            result = self._diagnose_with_retry(index, kept)
        except ServiceError as exc:
            if not self.config.dead_letter_chunks:
                raise
            self._dead_letter_chunk(index, kept, str(exc))
            return
        self._harvest_worker_stats()
        if faults is not None:
            faults.kill("after-diagnose", index)
        shed_pids = tuple(v.pid for v in shed)
        offset = self.journal.append(
            index,
            chunk_record(
                result,
                shed_pids,
                ingest_sheds=ingest_sheds,
                ingest_evictions=ingest_evictions,
            ),
            faults=faults,
        )
        self._reported.append((offset, result.diagnoses))
        if faults is not None:
            faults.kill("after-journal", index)
        # Everything below folds the chunk into checkpointed state; the
        # checkpoint optimistically counts itself (an uncommitted one is
        # never loaded, so the restored count stays consistent).
        self.tally.update(result.diagnoses)
        every = self.config.tally_compact_every
        if every and (index + 1) % every == 0:
            # Snapshot the tally *behind* the chunk record; a crash before
            # the checkpoint truncates both away and the re-run re-appends
            # both byte-identically.
            snapshot_start = offset
            offset = self.journal.append(
                index, tally_record(self.tally), faults=faults
            )
            self._tally_ref = snapshot_start
        self.stats.chunks_done += 1
        self.stats.victims_diagnosed += len(result.diagnoses)
        if shed:
            self.stats.victims_shed += len(shed)
            self.stats.shed_chunks += 1
        self._commit_chunk(index, offset)

    def _dead_letter_chunk(self, index: int, kept: List[Victim], cause: str) -> None:
        """Journal a poison chunk and move on (opt-in, never silent).

        The dead letter rides the same commit protocol as a diagnosis: a
        crash anywhere around it truncates and re-runs the chunk, and the
        re-run — same victims, same exhausted retry budget, same cause
        string — re-appends the identical record.
        """
        faults = self.faults
        self._harvest_worker_stats()
        # The carried engine may still be positioned behind the poisoned
        # chunk (a failure can fire before any diagnosis ran); advance it
        # so the next chunk's sequential-visit contract holds.
        self.stream.skip_chunk(index)
        chunk_ns = self.config.chunk_ns
        body = dead_letter_record(
            cause=cause,
            attempts=self.config.max_retries + 1,
            start_ns=index * chunk_ns,
            end_ns=(index + 1) * chunk_ns,
            victims=kept,
        )
        offset = self.journal.append(index, body, faults=faults)
        if faults is not None:
            faults.kill("after-journal", index)
        self.stats.chunks_done += 1
        self.stats.chunks_dead_lettered += 1
        self._commit_chunk(index, offset)

    def _commit_chunk(self, index: int, offset: int) -> None:
        """Common commit tail: checkpoint, then bound the journal's disk."""
        faults = self.faults
        self.stats.journal_bytes = offset
        self.stats.checkpoints_written += 1
        self.checkpointer.save(
            self._checkpoint_payload(index + 1, offset), faults=faults, chunk=index
        )
        self.stats.checkpoint_bytes = self.checkpointer.last_nbytes
        self._maintain_journal(index)
        if faults is not None:
            faults.kill("after-checkpoint", index)

    def _maintain_journal(self, index: int) -> None:
        """Rotate and compact the journal inside fixed disk bounds.

        Runs after the checkpoint commits so the compaction floor sees the
        freshest ladder.  Both operations change physical layout only —
        logical offsets and ``read_bytes()`` over the retained range are
        untouched — so a crash at any point here recovers like a crash at
        the chunk boundary.
        """
        config = self.config
        if config.journal_rotate_bytes and self.journal.maybe_rotate(
            config.journal_rotate_bytes, faults=self.faults, chunk_index=index
        ):
            self.stats.journal_rotations += 1
        if not config.journal_compact_bytes:
            return
        sealed = sum(seg["nbytes"] for seg in self.journal.segments())
        if sealed < config.journal_compact_bytes:
            return
        floor = self._compaction_floor()
        if floor is None or floor <= self.journal.retained_from:
            return
        reclaimed = self.journal.compact(
            floor,
            seed_tally=self._make_tally(),
            faults=self.faults,
            chunk_index=index,
        )
        if reclaimed:
            self.stats.journal_compactions += 1
            self.stats.journal_bytes_compacted += reclaimed
            # The folded records are gone from the journal; the report
            # says what the journal retains, no more.
            retained_from = self.journal.retained_from
            while self._reported and self._reported[0][0] <= retained_from:
                self._reported.popleft()

    def _compaction_floor(self) -> Optional[int]:
        """Lowest journal offset any retained checkpoint could still need.

        Every rung may truncate to its ``journal_offset`` and replay its
        tally from ``snapshot_offset``; compaction must never eat either.
        A rung without a tally snapshot replays from offset zero and pins
        the floor there.
        """
        floor: Optional[int] = None
        for loaded in self.checkpointer.load_ladder():
            payload = loaded.payload
            if payload.get("fingerprint") != self._fingerprint:
                continue
            need = payload["journal_offset"]
            snapshot = payload["tally_digest"]["snapshot_offset"]
            need = 0 if snapshot is None else min(need, snapshot)
            floor = need if floor is None else min(floor, need)
        return floor

    # -- live mode --------------------------------------------------------------

    def _sync_ingest_stats(self) -> None:
        """Absolute overwrite from the source (replay-consistent; see stats)."""
        for key, value in self.source.ingest_stats().items():
            name = f"ingest_{key}"
            if hasattr(self.stats, name):
                setattr(self.stats, name, value)

    def _maintain_ingest(self, index: int) -> None:
        """Prune ingest state and maybe snapshot it, at a chunk boundary.

        Runs *before* chunk ``index`` is diagnosed so the cumulative
        eviction counter journalled with the chunk is path-independent:
        pruning is convergent (one prune at the current cut reaches the
        same state and the same cumulative counts as the sequence of
        per-boundary prunes a never-interrupted run performed), so a
        restart that re-ingested without intermediate prunes catches up
        with a single prune here and journals identical bytes.
        """
        source = self.source
        if not source.live:
            return
        if self._retain_chunks is not None:
            cut = (index - self._retain_chunks) * self.config.chunk_ns
            if cut > 0:
                source.prune_before(cut)
                self._sync_ingest_stats()
        every = self.config.ingest_checkpoint_every
        if (
            self.ingest_checkpointer is None
            or not every
            or index == 0
            or index % every
        ):
            return
        state = source.snapshot_state()
        if state is None:
            return  # transport can't report its position: full replay only
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "ingest",
            "fingerprint": self._ingest_fingerprint(),
            "next_chunk": index,
            "source": state,
        }
        # faults=None: the mid-checkpoint tear points belong to the service
        # ladder; the endurance suite crashes here via its own kill-point.
        self.ingest_checkpointer.save(payload, faults=None, chunk=index)
        self.stats.ingest_snapshots += 1
        self.stats.ingest_snapshot_bytes = self.ingest_checkpointer.last_nbytes
        if self.faults is not None:
            self.faults.kill("after-ingest-snapshot", index)

    def _run_live(self, next_chunk: int) -> int:
        """Pump the source and diagnose chunks as the barrier seals them.

        On resume (``next_chunk > 0``) the source re-ingests from the
        transport's beginning — deterministically, since transports and
        fault schedules are seeded — and already-journalled chunks are
        simply skipped as they re-seal; only chunks from ``next_chunk`` on
        are diagnosed and journalled, so no sealed chunk is ever
        duplicated or lost.

        The ingest kill-points use the next-chunk-to-diagnose as their
        chunk coordinate (they fire between chunks, not inside one).
        """
        source = self.source
        faults = self.faults
        processed = next_chunk
        while True:
            self._check_stop()
            if faults is not None:
                faults.kill("ingest-pump", processed)
            source.pump()
            if faults is not None:
                faults.kill("ingest-apply", processed)
            self._sync_ingest_stats()
            # Clock kill-points: fire when this pump advanced a clock
            # model or detected a fault — the crash lands between the
            # model update and the chunk commit, the exact window the
            # snapshot ladder must make invisible.
            if self.stats.ingest_clock_updates > self._clock_updates_seen:
                self._clock_updates_seen = self.stats.ingest_clock_updates
                if faults is not None:
                    faults.kill("clock-update", processed)
            if self.stats.ingest_clock_faults > self._clock_faults_seen:
                self._clock_faults_seen = self.stats.ingest_clock_faults
                if faults is not None:
                    faults.kill("clock-fault", processed)
            while processed < source.sealed_through():
                index = processed
                if faults is not None:
                    faults.kill("after-seal", index)
                # Boundary maintenance first: prune state no future chunk
                # can touch (and maybe snapshot the ingest side), so the
                # eviction counter journalled below is already current.
                self._maintain_ingest(index)
                # The trace grew since the last chunk: re-select victims
                # (prefix-stable, so old chunks' victims never change) and
                # re-open a fresh engine over the current trace contents.
                self.stream.refresh_victims()
                self.stream.open(index, generation=index)
                self._worker_failures_seen = 0
                self._worker_timeouts_seen = 0
                self._process_chunk(
                    index,
                    ingest_sheds=source.sheds_for_chunk(index),
                    ingest_evictions=self.stats.ingest_evictions,
                )
                processed += 1
            if source.exhausted() and processed >= source.final_chunks():
                return source.final_chunks()

    # -- entry point ------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Process every remaining chunk; resume from checkpoints first."""
        next_chunk = self._restore()
        # The one journal read of a run: what an earlier process committed.
        # A fresh start has just truncated the journal to nothing.
        self._reported = deque(self.journal.chunk_diagnoses() if next_chunk else ())
        if self.source.live:
            n_chunks = self._run_live(next_chunk)
        else:
            n_chunks = self.stream.n_chunks()
            if next_chunk < n_chunks:
                self.stream.open(next_chunk, generation=next_chunk)
                self._worker_failures_seen = 0
                self._worker_timeouts_seen = 0
                for index in range(next_chunk, n_chunks):
                    self._process_chunk(index)
        diagnoses = [d for _end, chunk in self._reported for d in chunk]
        self._reported.clear()  # handed over: the service keeps no verdicts
        return ServiceReport(
            diagnoses=diagnoses,
            tally=self.tally,
            stats=self.stats,
            n_chunks=n_chunks,
        )
