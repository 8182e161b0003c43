"""Incremental trace building under a low-watermark sealing barrier.

:class:`IncrementalTrace` *is* a :class:`~repro.core.records.DiagTrace`
that grows in place as telemetry records drain out of a
:class:`~repro.ingest.feed.TelemetryFeed`.  Two invariants make the
result interchangeable with an offline trace:

* **Apply order is the global merge order.**  A record is applied only
  once its timestamp is below the *horizon* — the minimum watermark over
  every stream that can still deliver data — or at the horizon and
  cleared by the name-ordered tie rule (see :meth:`IncrementalTrace._drain`),
  and records are admitted one at a time in ``(time_ns, stream, seq)``
  order through a heap of stream heads.  Every future record on any
  stream carries a timestamp at or above the horizon (streams are
  time-monotone), so the concatenation of all drains is one globally
  sorted sequence no matter how the transport interleaved the streams.
  On clean input that sequence reproduces the offline construction
  order exactly — packet row order, hop order, per-NF
  stream contents — which is what the bit-identity tests pin.

* **Sealing is conservative.**  Chunk ``k`` (covering
  ``[k*chunk_ns, (k+1)*chunk_ns)``) is *sealed* — safe to diagnose,
  journal and checkpoint — only once the applied horizon has passed its
  end by ``seal_margin_ns``.  The margin buys the diagnosis the same
  look-ahead the offline streaming engine gets from having the whole
  trace: periods of chunk-``k`` victims may extend past the chunk end,
  and sealing early would diagnose them against a still-growing tail.

Degraded telemetry never crashes the builder.  Sequence gaps become
``loss`` :class:`~repro.collector.health.TelemetryGap`\\ s, repeated
sequence numbers are deduplicated, time regressions and malformed
payloads are rejected with gaps, and records whose packet identity never
arrived (the emit was lost) become ``chain-break`` gaps — all feeding the
same :class:`~repro.collector.health.TelemetryHealth` machinery the
tolerant reconstructor uses, so diagnosis confidence degrades instead of
output corrupting.  A stream that stalls while its peers advance past the
*straggler timeout* is quarantined: the barrier stops waiting for it,
chunks seal anyway, and the quarantine gap makes the missing evidence
explicit.

The trace is stored as columns from the first record on.  Each applied
record appends one row to a growable int64 buffer of its kind — emits to
the packet table (whose exit/drop/last-depart fields later records update
in place), hops (with their topological depth) and drops to their own —
and a ``pid -> (row, emitted_ns)`` map serves the duplicate-emit and
chain-break checks and the clock layer's pair observations.
:meth:`IncrementalTrace.columns` snapshots the buffers into a fresh
:class:`~repro.core.columnar.TraceColumns` after any change: live rows in
emit order, each packet's hops stably ordered by depth (so a hop admitted
downstream-first still lands in path order), per-NF streams sorted by
``(t, pid)``.  :meth:`IncrementalTrace.prune_before` works on the arrays
too: it clears evicted rows from an alive mask and compacts the buffers
once dead rows outnumber live ones.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.core.columnar import CodeTable, TraceColumns, derive_streams, hop_starts
from repro.core.records import DiagTrace
from repro.errors import IngestError
from repro.ingest.feed import TelemetryFeed
from repro.ingest.records import TelemetryRecord
from repro.time.model import ClockBank, ClockConfig, ClockFault

#: Sentinel for "no chunk telemetry pinned" (None is a valid pin: it
#: means the health state at that chunk's seal cut was still clean).
_UNPINNED = object()


@dataclass
class IngestConfig:
    """Sealing-barrier parameters of one :class:`IncrementalTrace`."""

    #: Chunk width — must match the diagnosing service's ``chunk_ns``.
    chunk_ns: int = 50_000_000
    #: How far the applied horizon must clear a chunk's end before the
    #: chunk seals.  Must cover the longest in-flight residence a victim's
    #: queuing period can extend past the chunk boundary.
    seal_margin_ns: int = 100_000_000
    #: Quarantine a stalled stream once the fastest stream leads it by
    #: this much (None = wait forever; the default for clean transports).
    straggler_timeout_ns: Optional[int] = None
    #: Enable online clock-fault tolerance.  None merges on the raw
    #: timestamps (identity repair: no clock model, fault or clamp; a
    #: record older than its stream's last admitted one is rejected as a
    #: ``reorder`` gap).  With a :class:`~repro.time.model.ClockConfig`,
    #: per-stream clock models repair timestamps, raise typed faults, and
    #: widen the sealing barrier by each stream's uncertainty bound.
    clock: Optional[ClockConfig] = None

    def __post_init__(self) -> None:
        if self.chunk_ns <= 0:
            raise IngestError(f"chunk_ns must be positive: {self.chunk_ns}")
        if self.seal_margin_ns < 0:
            raise IngestError(
                f"seal_margin_ns must be non-negative: {self.seal_margin_ns}"
            )


#: Packet buffer row: pid, emitted, exited, dropped_ns, dropped_nf,
#: source, five flow fields, and the latest hop departure (0 before any).
_PK = 12
_EXIT, _DROP_NS, _DROP_NF, _LAST = 2, 3, 4, 11
#: Hop buffer row: packet row, depth, nf, arrival, read, depart.
_HOP = 6
#: Drop buffer row: packet row, nf, time.
_DROP = 3
#: Compact the buffers once at least this many evicted rows are dead
#: weight and they outnumber the live rows.
_COMPACT_MIN = 1024


def _queue_empty_cut(arrivals, reads, cut_ns: int) -> int:
    """Largest ``b <= cut_ns`` where one NF's queue is empty at ``b``.

    ``arrivals``/``reads`` are the NF's sorted arrival/read times (only
    those below ``cut_ns`` matter).  Queue depth just before ``b`` is
    ``#{arrivals < b} - #{reads < b}`` (drops live in a separate stream
    and never enter the balance).  When it is positive, any empty point
    must see at most ``j`` (the read count) arrivals, i.e. lie at or below
    arrival ``j``'s timestamp — jump there and re-test.  The arrival index
    strictly decreases each round, so this terminates (at 0 in the worst
    case).
    """
    b = cut_ns
    while b > 0:
        i = int(arrivals.searchsorted(b))
        j = int(reads.searchsorted(b))
        if i == j:
            return b
        b = int(arrivals[j])
    return 0


class IncrementalTrace(DiagTrace):
    """A DiagTrace that grows from live telemetry streams.

    ``packets`` must be empty (records grow the trace); ``nfs`` maps each
    NF to its peak rate in packets per second.
    """

    #: The latest columns snapshot, valid while ``_snapshot_at`` equals
    #: the generation counter.
    _snapshot: Optional[TraceColumns] = None
    _snapshot_at = -1

    def __init__(
        self,
        packets: Dict[int, object],
        nfs: Dict[str, float],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        config: Optional[IngestConfig] = None,
    ) -> None:
        if packets:
            raise IngestError("an IncrementalTrace starts empty")
        self._adopt(None, list(nfs), upstreams, sources, nf_types, None)
        self._nf_names = sorted(nfs)
        self._nf_code = {name: code for code, name in enumerate(self._nf_names)}
        self._peak_rates = [nfs[name] for name in self._nf_names]
        self._source_code = CodeTable(sorted(sources))
        self._pk = array("q")
        self._hops = array("q")
        self._drops = array("q")
        #: One flag per packet row: cleared when prune evicts the packet.
        self._alive = bytearray()
        #: Live packets: ``pid -> (row, emitted_ns)``.
        self._rows: Dict[int, Tuple[int, int]] = {}
        self.config = config or IngestConfig()
        self.health = TelemetryHealth()
        #: Health state frozen at each chunk's seal cut.
        #: Live cumulative health keeps evolving from records *beyond* a
        #: sealed chunk's barrier, and how far beyond depends on delivery
        #: pacing — so diagnosing a chunk against live health would bake
        #: transport timing into the journal bytes.  The snapshot taken
        #: exactly when the admitted prefix first covers the chunk's
        #: barrier is a pure function of the record streams.
        self._chunk_health: Dict[int, Optional[TelemetryHealth]] = {}
        self._next_health_chunk = 0
        #: Per-stream online clock models (None: raw timestamps).
        self.clock: Optional[ClockBank] = (
            ClockBank(self.config.clock) if self.config.clock is not None else None
        )
        self._next_seq: Dict[str, int] = {}
        self._last_time: Dict[str, int] = {}
        self._ok: Dict[str, int] = {}
        self._lost: Dict[str, int] = {}
        self._excluded: Set[str] = set()
        self._applied_horizon = -1
        #: Latest departure or drop applied: sizes the run (``n_chunks``).
        self._max_depart_ns = 0
        self._complete = False
        self.records_applied = 0
        self.duplicates = 0
        self.rejects = 0
        #: Health-gap entries and packets evicted by :meth:`prune_before`
        #: (the state itself is gone; the cumulative counts keep
        #: ``ingest_stats`` monotone and are journalled per chunk so
        #: eviction is auditable).
        self.gaps_evicted = 0
        self.packets_evicted = 0
        #: Topological depth per node (sources 0, NFs 1 + max upstream).
        #: Depths strictly increase along any packet path, so they give
        #: each hop a batching-independent position in ``packet.hops``
        #: even when a clock-fault transient lets the pick-min merge
        #: admit a downstream hop before an upstream one (see
        #: :meth:`_apply`).
        self._depth: Dict[str, int] = {name: 0 for name in sources}
        for _ in range(len(upstreams) + 1):
            changed = False
            for nf, preds in upstreams.items():
                depth = 1 + max(
                    (self._depth.get(pred, 0) for pred in preds), default=0
                )
                if self._depth.get(nf) != depth:
                    self._depth[nf] = depth
                    changed = True
            if not changed:
                break

    @classmethod
    def for_topology(
        cls, topology, config: Optional[IngestConfig] = None
    ) -> "IncrementalTrace":
        """Empty trace carrying the same identity ``from_sim_result`` builds."""
        rates = dict(topology.peak_rates_pps())
        return cls(
            packets={},
            nfs={name: rates[name] for name in topology.nfs},
            upstreams={name: topology.predecessors(name) for name in topology.nfs},
            sources=set(topology.sources),
            nf_types=topology.nf_types(),
            config=config,
        )

    # -- health accounting ------------------------------------------------------

    #: Class-level default so the ``telemetry`` property works from the
    #: first assignment on.
    _pinned_telemetry = _UNPINNED

    @property
    def telemetry(self):
        """Live health (or None while strict) — or the pinned per-chunk
        snapshot while a chunk diagnosis is in flight."""
        if self._pinned_telemetry is not _UNPINNED:
            return self._pinned_telemetry
        return self._telemetry

    @telemetry.setter
    def telemetry(self, value) -> None:
        self._telemetry = value

    def _seal_barrier_ns(self, index: int) -> int:
        """Horizon value at which chunk ``index`` counts as sealed."""
        return (index + 1) * self.config.chunk_ns + self.config.seal_margin_ns

    def _snapshot_health_through(self, rep_ns: int) -> None:
        """Freeze health for every chunk whose barrier is at/below ``rep_ns``.

        Called before admitting a record whose repaired key reaches a
        pending barrier (and after each drain for barriers no buffered
        record reached): the admitted prefix at that instant is exactly
        the records repairing strictly below the barrier, so the frozen
        state is identical for every delivery pacing.
        """
        while self._seal_barrier_ns(self._next_health_chunk) <= rep_ns:
            if self._telemetry is None:
                snapshot = None
            else:
                health = self.health
                snapshot = TelemetryHealth(
                    completeness=dict(health.completeness),
                    quarantined=set(health.quarantined),
                    gaps=list(health.gaps),
                    retention=dict(health.retention),
                    clock_confidence=dict(health.clock_confidence),
                )
            self._chunk_health[self._next_health_chunk] = snapshot
            self._next_health_chunk += 1

    def telemetry_for_chunk(self, index: int):
        """The health state chunk ``index`` must be diagnosed against.

        That is the seal-cut snapshot, falling back to the final state
        for chunks only sealed by EOS.  Entries behind ``index`` are
        dropped: diagnosis is sequential, only retries revisit a chunk.
        """
        for old in [k for k in self._chunk_health if k < index]:
            del self._chunk_health[old]
        if index in self._chunk_health:
            return self._chunk_health[index]
        return self._telemetry

    def pin_chunk_telemetry(self, index: int) -> None:
        """Make ``telemetry`` read chunk ``index``'s seal-cut snapshot."""
        self._pinned_telemetry = _UNPINNED
        self._pinned_telemetry = self.telemetry_for_chunk(index)

    def unpin_chunk_telemetry(self) -> None:
        self._pinned_telemetry = _UNPINNED

    def _degrade(self) -> None:
        """Attach the health object on first degradation (strict until then)."""
        if self._telemetry is None:
            self._telemetry = self.health

    def _account_loss(self, stream: str, count: int) -> None:
        self._lost[stream] = self._lost.get(stream, 0) + count
        ok = self._ok.get(stream, 0)
        lost = self._lost[stream]
        self.health.completeness[stream] = ok / (ok + lost)
        self._degrade()

    def _gap(self, stream: str, start_ns: int, end_ns: int, kind: str, count: int) -> None:
        self.health.gaps.append(
            TelemetryGap(
                nf=stream,
                start_ns=max(0, start_ns),
                end_ns=max(0, start_ns, end_ns),
                kind=kind,
                count=count,
            )
        )
        self._degrade()

    def _reject_event(self, stream: str, time_ns: int, kind: str) -> None:
        self.rejects += 1
        last = self._last_time.get(stream, 0)
        self._gap(stream, last, time_ns, kind, count=1)
        self._account_loss(stream, 1)

    # -- ingestion --------------------------------------------------------------

    def _quarantine_stragglers(self, feed: TelemetryFeed) -> None:
        timeout = self.config.straggler_timeout_ns
        if timeout is None:
            return
        watermarks = {
            stream: feed.watermark(stream)
            for stream in feed.buffers
            if stream not in self._excluded
        }
        if not watermarks:
            return
        max_wm = max(watermarks.values())
        for stream, wm in watermarks.items():
            if feed.at_eos(stream):
                continue
            if feed.stalled(stream) and max_wm - wm > timeout:
                self._excluded.add(stream)
                self.health.quarantined.add(stream)
                self._gap(stream, max(0, wm), max_wm, "quarantine", count=0)

    def _effective_watermark(self, stream: str, wm: int) -> int:
        """The stream's watermark on the repaired clock, minus uncertainty.

        This is where clock uncertainty widens the sealing barrier: the
        horizon is the min over effective watermarks, so each stream
        holds the barrier back by exactly its own uncertainty bound — a
        record whose true (repaired) time lands below the horizon can no
        longer be in flight even if the sender's clock overstated it.
        """
        if self.clock is None:
            return wm
        return self.clock.effective_watermark(stream, wm)

    def _stream_floor(self, stream: str, feed: TelemetryFeed) -> int:
        """Lower bound on this stream's future *admission* times.

        The model-based effective watermark alone can deadlock a small
        buffer after a step repair: uncertainty pushes the stream's
        barrier contribution below the repaired times of its own
        buffered records, the heads become ineligible, the full buffer
        backpressures all pulls, and the raw watermark can never
        advance.  But the buffer is FIFO and admission clamps
        monotonically, so no future record from this stream can ever be
        admitted below its buffered head's repaired time — the head's
        repaired time is a sound floor that breaks the cycle.
        """
        wm = self._effective_watermark(stream, feed.watermark(stream))
        if self.clock is not None:
            buffer = feed.buffers[stream]
            if len(buffer):
                wm = max(wm, self._repair_time(stream, buffer.head().time_ns))
        return wm

    def _horizon(self, feed: TelemetryFeed) -> Optional[int]:
        """Min watermark over streams that can still deliver; None = no limit."""
        horizon: Optional[int] = None
        unconstrained = True
        for stream in feed.buffers:
            if stream in self._excluded or feed.at_eos(stream):
                continue
            unconstrained = False
            wm = self._stream_floor(stream, feed)
            if horizon is None or wm < horizon:
                horizon = wm
        if unconstrained:
            return None
        return horizon

    # -- the merge ---------------------------------------------------------------
    #
    # Records merge one at a time through a heap of stream heads keyed
    # ``(repaired time, stream, seq)``: pop the minimal key, admit that
    # record inline at exactly that repaired time (observations come
    # strictly after its repair is fixed, so the key used for ordering is
    # the time that gets applied), then re-key only the popped stream.
    # Without clock models the repair is the identity and the key is the
    # raw ``(time_ns, stream, seq)``: the simulator's event-loop tie order
    # when sources are registered in name order, which is what makes live
    # trace construction reproduce the offline packet insertion order.
    #
    # Heap invariant: a head's key is a pure function of its own stream's
    # admitted prefix — the stream's clock model, its last repaired time
    # (``_last_time``) and its buffer head.  Only admitting one of that
    # stream's own records changes any of the three: pair observations
    # read the packet's repaired source emit and write only the observing
    # stream's model, and a freeze quarantines only its own stream.  So
    # every key in the heap stays exact while other streams advance, and
    # the heap minimum is the head a rescan of every stream would pick.  A
    # head past the horizon (or at it, behind the tie limit) cannot change
    # until it is popped, so it blocks its FIFO stream for the rest of the
    # drain: that stream simply stays out of the heap.
    #
    # Determinism argument: a stream's model mutates only when one of its
    # own records is admitted, in sequence order, and pair observations
    # read the packet's already-*repaired* source emit (source clocks
    # define the reference plane, and a packet's emit is always admitted
    # before any of its hops can pair).  The repaired key of stream
    # ``s``'s ``k``-th record is therefore a pure function of per-stream
    # record prefixes — independent of transport batching — which is
    # what keeps sealed chunks (and the seal-cut health snapshots taken
    # inside the drain) byte-identical across crash/restart and
    # socket-timing variation.  The heap is a snapshot of the buffers when
    # the drain starts: a stream that is empty then (or that a receive
    # thread refills after it ran dry) joins at the next ``ingest()``,
    # exactly as if its records had arrived one pump later — which, by
    # the same argument, cannot change what gets admitted.

    def _repair_time(self, stream: str, raw_ns: int) -> int:
        """Raw timestamp → repaired timestamp (model + monotone clamp).

        Without clock models this is the identity, with no clamp: a
        record older than its stream's last admitted one keeps its raw
        key and :meth:`_admit` rejects it.  With them, the clamp against
        the stream's last *repaired* time guarantees per-stream
        monotonicity even while the model estimate moves, so
        already-sealed chunks can never be contradicted by a later
        repair.  (``_last_time`` stores repaired times.)
        """
        clock = self.clock
        if clock is None:
            return raw_ns
        rep = raw_ns - clock.offset_at(stream, raw_ns)
        return max(rep, self._last_time.get(stream, 0))

    def _clock_faults(self, stream: str, at_ns: int, faults: List[ClockFault]) -> None:
        """Turn detected faults into gaps, discounts, and quarantine."""
        config = self.config.clock
        for fault in faults:
            discount = (
                config.drift_discount
                if fault.kind == "drift"
                else config.fault_discount
            )
            previous = self.health.clock_confidence.get(stream, 1.0)
            self.health.clock_confidence[stream] = previous * discount
            self._gap(stream, at_ns, at_ns, "clock", count=0)
            if fault.kind == "freeze" and config.freeze_quarantines:
                # A frozen clock carries no timing information, and the
                # barrier must stop waiting for its watermark.
                self._excluded.add(stream)
                self.health.quarantined.add(stream)

    def _admit(self, record: TelemetryRecord, rep: int) -> bool:
        """Observe and apply one popped record at its repaired key ``rep``;
        False if it was rejected into a health gap."""
        stream = record.stream
        raw = record.time_ns
        clock = self.clock
        if clock is None:
            if raw < self._last_time.get(stream, 0):
                self._reject_event(stream, raw, "reorder")
                return False
            self._last_time[stream] = raw
            return self._apply(record)
        self._last_time[stream] = rep
        faults = clock.observe_local(stream, raw)
        if faults:
            self._clock_faults(stream, rep, faults)
        if stream in self._excluded:
            # The freeze that quarantined the stream fired on this very
            # record: its timestamp is meaningless, discard it.
            self.rejects += 1
            return False
        kind = record.kind
        data = record.data
        hop = kind == "hop" and len(data) == 2
        if hop and 0 <= data[0] <= data[1] <= raw:
            entry = self._rows.get(record.pid)
            if entry is not None:
                # Huygens pair: the packet's repaired source emit is the
                # TX side, this NF's raw arrival the RX side.  Path
                # latency and queueing only add, so per-window minima
                # trace the stream's offset against the source reference
                # plane.  Grounding at the emit — rather than the
                # nearest upstream hop — matters twice over: the emit is
                # always admitted before any hop of its packet can pair
                # (the pair set is a pure function of per-stream record
                # prefixes, independent of transport batching), and an
                # upstream NF's clock fault cannot leak into this
                # stream's model through the reference.
                faults = clock.observe_pair(stream, entry[1], data[0])
                if faults:
                    self._clock_faults(stream, rep, faults)
        delta = rep - raw
        if delta != 0:
            clock.repairs += 1
            if hop:
                read = min(max(0, data[1] + delta), rep)
                arrival = min(max(0, data[0] + delta), read)
                data = (arrival, read)
        return self._apply_event(stream, kind, rep, record.pid, data)

    def _head_key(
        self,
        stream: str,
        head: Optional[TelemetryRecord],
        horizon: Optional[int],
        tie_limit: Optional[str],
    ) -> Optional[Tuple[int, str, int]]:
        """Merge key of ``stream``'s buffer head, or None when the stream
        has nothing eligible to admit in this drain."""
        if head is None:
            return None
        rep = self._repair_time(stream, head.time_ns)
        if horizon is not None and (
            rep > horizon
            or (rep == horizon and tie_limit is not None and stream > tie_limit)
        ):
            return None
        return (rep, stream, head.seq)

    def _drain(self, feed: TelemetryFeed, horizon: Optional[int]) -> int:
        """Admit eligible buffered records in merge-key order.

        Records strictly below the horizon are always safe.  Records *at*
        the horizon need the tie rule: a future record at the horizon can
        only come from a live stream whose floor equals the horizon, and
        it would merge after that stream's buffered records (larger seq)
        but before any larger-named stream's.  So horizon records drain
        only for streams named at or below the smallest such stream.
        Without this rule a burst of same-timestamp records larger than
        the buffer deadlocks the barrier: the buffer is full of records
        at the stream's own watermark, nothing is below the horizon, and
        the stream can never be pulled again.  One key is computed per
        popped record: only the popped stream is re-keyed (see the heap
        invariant above).
        """
        tie_limit: Optional[str] = None
        if horizon is not None:
            for stream in sorted(feed.buffers):
                if stream in self._excluded or feed.at_eos(stream):
                    continue
                wm = self._stream_floor(stream, feed)
                if wm == horizon:
                    tie_limit = stream
                    break
        buffers = feed.buffers
        heap: List[Tuple[int, str, int]] = []
        for stream, buffer in buffers.items():
            if stream not in self._excluded:
                key = self._head_key(stream, buffer.head(), horizon, tie_limit)
                if key is not None:
                    heap.append(key)
        heapq.heapify(heap)
        barrier = self._seal_barrier_ns(self._next_health_chunk)
        applied = 0
        while heap:
            rep, stream, seq = heap[0]
            if rep >= barrier:
                # Freeze per-chunk health before the admitted prefix
                # crosses a pending seal barrier (see
                # _snapshot_health_through).
                self._snapshot_health_through(rep)
                barrier = self._seal_barrier_ns(self._next_health_chunk)
            buffer = buffers[stream]
            record = buffer.pop()
            expected = self._next_seq.get(stream, 0)
            if seq < expected:
                self.duplicates += 1
            else:
                if seq > expected:
                    missing = seq - expected
                    self._gap(
                        stream,
                        self._last_time.get(stream, 0),
                        rep,
                        "loss",
                        count=missing,
                    )
                    self._account_loss(stream, missing)
                self._next_seq[stream] = seq + 1
                if self._admit(record, rep):
                    applied += 1
                    self._ok[stream] = self._ok.get(stream, 0) + 1
                    if stream in self.health.completeness:
                        ok = self._ok[stream]
                        lost = self._lost.get(stream, 0)
                        self.health.completeness[stream] = ok / (ok + lost)
            key = None
            if stream not in self._excluded:
                key = self._head_key(stream, buffer.head(), horizon, tie_limit)
            if key is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, key)
        for stream in sorted(self._excluded):
            buffer = feed.buffers.get(stream)
            if buffer is None:
                continue
            while buffer:
                buffer.pop()
                self.rejects += 1
        return applied

    def ingest(self, feed: TelemetryFeed) -> int:
        """Drain and apply every record below the current barrier.

        Returns the number of records applied.  Call after each
        ``feed.pump()``; safe to call when nothing advanced.
        """
        self._quarantine_stragglers(feed)
        horizon = self._horizon(feed)
        applied = self._drain(feed, horizon)
        self.records_applied += applied
        if horizon is not None and horizon > self._applied_horizon:
            self._applied_horizon = horizon
            # Chunks the horizon sealed without any buffered record at or
            # past their barrier: the admitted prefix is still exactly
            # "everything below the barrier" (no future record can admit
            # below the horizon), so the cut is the same one the in-drain
            # trigger would have taken.
            self._snapshot_health_through(self._applied_horizon)
        if horizon is None and all(
            stream in self._excluded
            or (feed.at_eos(stream) and not feed.buffers[stream])
            for stream in feed.buffers
        ):
            self._complete = True
        return applied

    def _apply(self, record: TelemetryRecord) -> bool:
        return self._apply_event(
            record.stream, record.kind, record.time_ns, record.pid, record.data
        )

    def _apply_event(
        self, stream: str, kind: str, time_ns: int, pid: int, data: Tuple[int, ...]
    ) -> bool:
        """Apply one record's fields (``time_ns`` already repaired);
        False if it was rejected into a health gap."""
        if pid < 0:
            self._reject_event(stream, time_ns, "loss")
            return False
        if kind == "emit":
            if stream not in self.sources or len(data) != 5:
                self._reject_event(stream, time_ns, "loss")
                return False
            if pid in self._rows:
                self._reject_event(stream, time_ns, "loss")
                return False
            self._rows[pid] = (len(self._alive), time_ns)
            self._pk.extend(
                (pid, time_ns, -1, -1, -1, self._source_code[stream], *data, 0)
            )
            self._alive.append(1)
            self._mutations += 1
            return True
        nf = self._nf_code.get(stream)
        if nf is None:
            self._reject_event(stream, time_ns, "loss")
            return False
        entry = self._rows.get(pid)
        if entry is None:
            # The emit that named this packet never arrived: the chain is
            # broken and the evidence cannot be attached anywhere.
            self._reject_event(stream, time_ns, "chain-break")
            return False
        row = entry[0]
        pk = self._pk
        if kind == "hop":
            if len(data) != 2:
                self._reject_event(stream, time_ns, "loss")
                return False
            arrival_ns, read_ns = data
            if not 0 <= arrival_ns <= read_ns <= time_ns:
                self._reject_event(stream, time_ns, "loss")
                return False
            # Hops normally arrive in path order.  During a clock-fault
            # transient the merge can admit a downstream hop first (the
            # faulted stream's floor briefly over-advances the horizon);
            # the depth recorded with each hop puts it back at its
            # topological position in the snapshot, keeping the packet's
            # path order — and therefore the sealed bytes — independent of
            # that race.
            self._hops.extend(
                (row, self._depth.get(stream, 0), nf, arrival_ns, read_ns, time_ns)
            )
            last = row * _PK + _LAST
            if time_ns > pk[last]:
                pk[last] = time_ns
            if time_ns > self._max_depart_ns:
                self._max_depart_ns = time_ns
        elif kind == "drop":
            pk[row * _PK + _DROP_NS] = time_ns
            pk[row * _PK + _DROP_NF] = nf
            # The NF's drop stream keeps every drop record, a packet's
            # earlier one included; the packet row shows the latest.
            self._drops.extend((row, nf, time_ns))
            # A drop is a victim: the run must reach the chunk it falls in
            # even when nothing departs that late.
            if time_ns > self._max_depart_ns:
                self._max_depart_ns = time_ns
        else:  # exit
            pk[row * _PK + _EXIT] = time_ns
        self._mutations += 1
        return True

    def _restore_packet(
        self, pid: int, flow, source: str, emitted_ns: int, hops,
        dropped_at: Optional[str], dropped_ns: int, exited_ns: int,
    ) -> None:
        """Append one packet of a bounded-replay snapshot (hops in path
        order as ``(nf, arrival, read, depart)``; one drop record when the
        packet was dropped, the way the snapshot stores it)."""
        row = len(self._alive)
        self._rows[pid] = (row, emitted_ns)
        last = 0
        for nf, arrival_ns, read_ns, depart_ns in hops:
            self._hops.extend(
                (row, self._depth.get(nf, 0), self._nf_code[nf],
                 arrival_ns, read_ns, depart_ns)
            )
            last = max(last, depart_ns)
        dropped_nf = -1
        if dropped_at is not None:
            dropped_nf = self._nf_code[dropped_at]
            self._drops.extend((row, dropped_nf, dropped_ns))
        self._pk.extend(
            (pid, emitted_ns, exited_ns, dropped_ns, dropped_nf,
             self._source_code[source], *flow, last)
        )
        self._alive.append(1)
        self._mutations += 1

    # -- columns -----------------------------------------------------------------

    def _buffers(self):
        """numpy views of the packet, hop and drop buffers and the alive
        mask.  A view pins its buffer against growth: callers copy what
        they keep (fancy indexing does) and drop the views before the
        next append."""
        return (
            np.frombuffer(self._pk, np.int64).reshape(-1, _PK),
            np.frombuffer(self._hops, np.int64).reshape(-1, _HOP),
            np.frombuffer(self._drops, np.int64).reshape(-1, _DROP),
            np.frombuffer(self._alive, np.bool_),
        )

    def columns(self) -> TraceColumns:
        """The trace built so far, as a fresh snapshot after any change
        (an engine opened on an earlier one keeps a consistent view)."""
        if self._snapshot is None or self._snapshot_at != self._mutations:
            self._snapshot = self._snapshot_columns()
            self._snapshot_at = self._mutations
        return self._snapshot

    def _snapshot_columns(self) -> TraceColumns:
        pk, hops, drops, alive = self._buffers()
        live = np.flatnonzero(alive)
        row_index = np.cumsum(alive, dtype=np.int64) - 1
        packets = pk[live]
        hops = hops[alive[hops[:, 0]]]
        drops = drops[alive[drops[:, 0]]]
        del pk, alive
        # Packet-major; within a packet by topological depth, ties in
        # apply order (lexsort is stable): the path order.
        hops = hops[np.lexsort((hops[:, 1], hops[:, 0]))]
        hop_rows = row_index[hops[:, 0]]
        drop_rows = row_index[drops[:, 0]]
        pkt_pid = np.ascontiguousarray(packets[:, 0])
        hop_nf = hops[:, 2].astype(np.int32)
        hop_times = [np.ascontiguousarray(hops[:, k]) for k in (3, 4, 5)]
        streams = derive_streams(
            len(self._nf_names), hop_nf, pkt_pid[hop_rows], hop_times,
            drops[:, 1].astype(np.int32), pkt_pid[drop_rows],
            np.ascontiguousarray(drops[:, 2]),
        )
        return TraceColumns(
            self._nf_names, self._source_code.names, self._peak_rates,
            pkt_pid=pkt_pid,
            pkt_emitted=np.ascontiguousarray(packets[:, 1]),
            pkt_exited=np.ascontiguousarray(packets[:, _EXIT]),
            pkt_dropped_ns=np.ascontiguousarray(packets[:, _DROP_NS]),
            pkt_dropped_nf=packets[:, _DROP_NF].astype(np.int32),
            pkt_source=packets[:, 5].astype(np.int32),
            pkt_flow=np.ascontiguousarray(packets[:, 6:11]),
            hop_start=hop_starts(np.bincount(hop_rows, minlength=len(live))),
            hop_nf=hop_nf,
            hop_arrival=hop_times[0],
            hop_read=hop_times[1],
            hop_depart=hop_times[2],
            streams=streams,
        )

    def __getstate__(self):
        state = super().__getstate__()
        state["_snapshot"] = None  # derived from the buffers
        return state

    # -- sealing ----------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Every stream fully delivered (or quarantined) and applied."""
        return self._complete

    def n_chunks(self) -> int:
        """Chunk count of the trace built *so far* (grows until complete)."""
        return max(0, self._max_depart_ns) // self.config.chunk_ns + 1

    def sealed_chunks(self) -> int:
        """Chunks safe to diagnose: barrier-cleared, or all of them at EOS."""
        if self._complete:
            return self.n_chunks()
        if self._applied_horizon < 0:
            return 0
        sealed = (self._applied_horizon - self.config.seal_margin_ns) // self.config.chunk_ns
        return max(0, sealed)

    def ingest_stats(self) -> Dict[str, int]:
        """Pure-int ingestion counters (checkpoint/stats safe).

        ``gaps`` counts every gap ever recorded — pruning moves old
        entries from the live list into ``gaps_evicted``, keeping the
        total monotone across a week of eviction.
        """
        stats = {
            "records_applied": self.records_applied,
            "duplicates": self.duplicates,
            "rejects": self.rejects,
            "gaps": len(self.health.gaps) + self.gaps_evicted,
            "quarantined": len(self.health.quarantined),
            "evictions": self.packets_evicted + self.gaps_evicted,
        }
        if self.clock is not None:
            stats.update(self.clock.stats())
        return stats

    # -- pruning (bounded memory) ----------------------------------------------

    def safe_cut(self, cut_ns: int) -> int:
        """Lower ``cut_ns`` until no NF has a busy period spanning it.

        Pruning is output-invariant only if no queuing interacts across
        the cut: a packet discarded behind the cut must not change any
        future window's queue depths or busy-period structure.  At a
        queue-empty instant every earlier arrival has been read, so
        removing terminated packets wholly behind it shifts the arrival
        and read cumulative counts *equally* — depths at and after the
        cut are untouched.  Under sustained overload the cut can regress
        far behind the nominal horizon; memory then grows with the busy
        period, which is the price of exactness (and an overload signal
        in its own right).
        """
        cut = cut_ns
        _pk, hops, _drops, alive = self._buffers()
        # Only hops arriving before the cut can count (read >= arrival).
        below = hops[alive[hops[:, 0]] & (hops[:, 3] < cut_ns)]
        del _pk, hops, _drops, alive
        for name in self._view_names:
            if cut <= 0:
                return 0
            at = below[below[:, 2] == self._nf_code[name]]
            cut = _queue_empty_cut(np.sort(at[:, 3]), np.sort(at[:, 4]), cut)
        return max(0, cut)

    def prune_before(self, cut_ns: int) -> Dict[str, int]:
        """Evict state the diagnosis of future chunks can never touch.

        Drops terminated packets (exited or dropped) whose every event
        lies strictly before the queue-empty-safe cut, their per-NF
        events, and health gaps that ended before the cut (quarantine
        gaps of a permanently dead stream included — the stream itself
        stays in ``health.quarantined``, which is bounded by the stream
        count).  Returns ``{"cut_ns", "packets", "gaps"}``.

        The prune is a pure function of (trace state, cut): replaying it
        at the same chunk boundary on a crash-restored twin yields the
        identical pruned state, which is what keeps bounded replay
        byte-identical to the full-replay oracle.
        """
        cut = self.safe_cut(cut_ns)
        result = {"cut_ns": cut, "packets": 0, "gaps": 0}
        if cut <= 0:
            return result
        pk, _hops, _drops, alive = self._buffers()
        rows = np.flatnonzero(alive)
        packets = pk[rows]
        del pk, _hops, _drops
        # Every event of a packet is at or before the latest of these
        # (arrival <= read <= depart); the first drop of a packet dropped
        # twice is not, and goes with its packet all the same.
        last = packets[:, [1, _EXIT, _DROP_NS, _LAST]].max(axis=1)
        terminated = (packets[:, _EXIT] >= 0) | (packets[:, _DROP_NF] >= 0)
        gone = terminated & (last < cut)
        alive[rows[gone]] = False
        del alive
        evicted = packets[gone, 0].tolist()
        for pid in evicted:
            del self._rows[pid]
        kept_gaps = [gap for gap in self.health.gaps if gap.end_ns >= cut]
        result["gaps"] = len(self.health.gaps) - len(kept_gaps)
        result["packets"] = len(evicted)
        self.packets_evicted += len(evicted)
        if result["gaps"]:
            self.health.gaps[:] = kept_gaps
            self.gaps_evicted += result["gaps"]
        if evicted or result["gaps"]:
            self._mutations += 1
        dead = len(self._alive) - len(self._rows)
        if dead >= _COMPACT_MIN and dead > len(self._rows):
            self._compact()
        # Seal-cut health snapshots for chunks behind the cut can never
        # be diagnosed again (the cut trails the replay-retain boundary).
        for index in [k for k in self._chunk_health if k < cut // self.config.chunk_ns]:
            del self._chunk_health[index]
        return result

    def _compact(self) -> None:
        """Rewrite the buffers with the live rows only (renumbered, order
        kept) and their hops and drops."""
        pk, hops, drops, alive = self._buffers()
        live = np.flatnonzero(alive)
        row_index = np.cumsum(alive, dtype=np.int64) - 1
        packets = pk[live]
        hops = hops[alive[hops[:, 0]]]
        drops = drops[alive[drops[:, 0]]]
        del pk, alive
        hops[:, 0] = row_index[hops[:, 0]]
        drops[:, 0] = row_index[drops[:, 0]]
        self._pk = array("q", packets.tobytes())
        self._hops = array("q", hops.tobytes())
        self._drops = array("q", drops.tobytes())
        self._alive = bytearray(b"\x01") * len(live)
        self._rows = dict(
            zip(packets[:, 0].tolist(), zip(range(len(live)), packets[:, 1].tolist()))
        )

