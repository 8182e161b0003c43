"""Incremental trace building under a low-watermark sealing barrier.

:class:`IncrementalTrace` *is* a :class:`~repro.core.records.DiagTrace`
that grows in place as telemetry records drain out of a
:class:`~repro.ingest.feed.TelemetryFeed`.  Two invariants make the
result interchangeable with an offline trace:

* **Apply order is the global merge order.**  A record is applied only
  once its timestamp is below the *horizon* — the minimum watermark over
  every stream that can still deliver data — or at the horizon and
  cleared by the name-ordered tie rule (see :meth:`IncrementalTrace._drain`),
  and applied records are sorted by ``(time_ns, stream, seq)``.  Every
  future record on any stream carries a timestamp at or above the horizon
  (streams are time-monotone), so the concatenation of all apply batches
  is one globally sorted sequence no matter how the transport interleaved
  the streams.  On clean input that sequence reproduces the offline
  construction order exactly — packet insertion order, hop list order,
  per-NF stream contents — which is what the bit-identity tests pin.

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
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.core.records import DiagTrace, NFView, PacketHop, PacketView
from repro.errors import IngestError
from repro.ingest.feed import TelemetryFeed
from repro.ingest.records import TelemetryRecord
from repro.nfv.packet import FiveTuple
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
    #: Enable online clock-fault tolerance (None keeps the literal legacy
    #: drain path, byte-identical to pre-clock behaviour).  With a
    #: :class:`~repro.time.model.ClockConfig`, per-stream clock models
    #: repair timestamps, raise typed faults, and widen the sealing
    #: barrier by each stream's uncertainty bound.
    clock: Optional[ClockConfig] = None

    def __post_init__(self) -> None:
        if self.chunk_ns <= 0:
            raise IngestError(f"chunk_ns must be positive: {self.chunk_ns}")
        if self.seal_margin_ns < 0:
            raise IngestError(
                f"seal_margin_ns must be non-negative: {self.seal_margin_ns}"
            )


def _insert_sorted(stream: List[Tuple[int, int]], item: Tuple[int, int]) -> None:
    # Departs (and usually drops) arrive already sorted; arrivals/reads
    # ride inside hop records emitted at depart time, so they can land
    # out of order and need the insort.
    if not stream or item >= stream[-1]:
        stream.append(item)
    else:
        bisect.insort(stream, item)


class IncrementalTrace(DiagTrace):
    """A DiagTrace that grows from live telemetry streams."""

    def __init__(
        self,
        packets: Dict[int, PacketView],
        nfs: Dict[str, NFView],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        config: Optional[IngestConfig] = None,
    ) -> None:
        super().__init__(
            packets=packets,
            nfs=nfs,
            upstreams=upstreams,
            sources=sources,
            nf_types=nf_types,
        )
        self.config = config or IngestConfig()
        self.health = TelemetryHealth()
        #: Health state frozen at each chunk's seal cut (clocked mode).
        #: Live cumulative health keeps evolving from records *beyond* a
        #: sealed chunk's barrier, and how far beyond depends on delivery
        #: pacing — so diagnosing a chunk against live health would bake
        #: transport timing into the journal bytes.  The snapshot taken
        #: exactly when the admitted prefix first covers the chunk's
        #: barrier is a pure function of the record streams.
        self._chunk_health: Dict[int, Optional[TelemetryHealth]] = {}
        self._next_health_chunk = 0
        #: Per-stream online clock models (None in legacy strict mode).
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
        nfs = {
            name: NFView(name=name, peak_rate_pps=rates[name])
            for name in topology.nfs
        }
        return cls(
            packets={},
            nfs=nfs,
            upstreams={name: topology.predecessors(name) for name in topology.nfs},
            sources=set(topology.sources),
            nf_types=topology.nf_types(),
            config=config,
        )

    # -- health accounting ------------------------------------------------------

    #: Class-level default so the ``telemetry`` property works during
    #: ``DiagTrace.__init__`` (which assigns the attribute before this
    #: subclass's ``__init__`` body runs).
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

        Clocked mode returns the seal-cut snapshot (falling back to the
        final state for chunks only sealed by EOS); legacy mode returns
        the live health — its only degradation sources are final by the
        time a chunk seals.  Entries behind ``index`` are dropped:
        diagnosis is sequential, only retries revisit a chunk.
        """
        if self.clock is None:
            return self.telemetry
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

    def _reject(self, record: TelemetryRecord, kind: str) -> None:
        self._reject_event(record.stream, record.time_ns, kind)

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

    def _drain(self, feed: TelemetryFeed, horizon: Optional[int]) -> List[TelemetryRecord]:
        """Pop, validate and sequence-check records up to the horizon.

        Records strictly below the horizon are always safe.  Records *at*
        the horizon need the tie rule: a future record at the horizon
        timestamp can only come from a live stream whose watermark equals
        the horizon, and it would merge-sort after that stream's buffered
        records (larger seq) but before any larger-named stream's.  So,
        sweeping streams in ascending name order, horizon-timestamp
        records drain until the first live horizon-tied stream is passed —
        everything after it must wait.  Without this rule a burst of
        same-timestamp records larger than the buffer deadlocks the
        barrier: the buffer is full of records at the stream's own
        watermark, nothing is below the horizon, and the stream can never
        be pulled again.
        """
        batch: List[TelemetryRecord] = []
        tie_open = True
        for stream in sorted(feed.buffers):
            buffer = feed.buffers[stream]
            if stream in self._excluded:
                # Quarantined evidence: drained and discarded (the
                # quarantine gap already marks the stream untrusted).
                while buffer:
                    buffer.pop()
                    self.rejects += 1
                continue
            live_at_horizon = (
                horizon is not None
                and not feed.at_eos(stream)
                and feed.watermark(stream) == horizon
            )
            while buffer:
                head = buffer.head()
                if horizon is not None and (
                    head.time_ns > horizon
                    or (head.time_ns == horizon and not tie_open)
                ):
                    break
                record = buffer.pop()
                expected = self._next_seq.get(stream, 0)
                if record.seq < expected:
                    self.duplicates += 1
                    continue
                if record.seq > expected:
                    missing = record.seq - expected
                    self._gap(
                        stream,
                        self._last_time.get(stream, 0),
                        record.time_ns,
                        "loss",
                        count=missing,
                    )
                    self._account_loss(stream, missing)
                self._next_seq[stream] = record.seq + 1
                if record.time_ns < self._last_time.get(stream, 0):
                    self._reject(record, "reorder")
                    continue
                self._last_time[stream] = record.time_ns
                batch.append(record)
            if live_at_horizon:
                # This stream may still deliver more records at exactly
                # the horizon; larger-named streams' horizon records
                # would sort after them, so they stay buffered.
                tie_open = False
        batch.sort(key=lambda record: record.merge_key)
        return batch

    # -- clocked ingestion -------------------------------------------------------
    #
    # With clock models enabled the "pop everything below the horizon,
    # sort, apply" drain no longer works: the sort key is the *repaired*
    # timestamp, and the repair function evolves as records are admitted.
    # Instead records merge one at a time through a heap of stream heads
    # keyed ``(repaired time, stream, seq)``: pop the minimal key, admit
    # that record inline at exactly that repaired time (observations come
    # strictly after its repair is fixed, so the key used for ordering is
    # the time that gets applied), then re-key only the popped stream.
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
    # what keeps sealed chunks byte-identical across crash/restart and
    # socket-timing variation.  The heap is a snapshot of the buffers when
    # the drain starts: a stream that is empty then (or that a receive
    # thread refills after it ran dry) joins at the next ``ingest()``,
    # exactly as if its records had arrived one pump later — which, by
    # the same argument, cannot change what gets admitted.

    def _repair_time(self, stream: str, raw_ns: int) -> int:
        """Raw timestamp → repaired timestamp (model + monotone clamp).

        The clamp against the stream's last *repaired* time guarantees
        per-stream monotonicity even while the model estimate moves, so
        already-sealed chunks can never be contradicted by a later
        repair.  (In clocked mode ``_last_time`` stores repaired times.)
        """
        assert self.clock is not None
        rep = raw_ns - self.clock.offset_at(stream, raw_ns)
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

    def _admit_clocked(self, record: TelemetryRecord, rep: int) -> bool:
        """Observe and apply one popped record at its repaired key ``rep``
        (clocked mode)."""
        stream = record.stream
        raw = record.time_ns
        clock = self.clock
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
            packet = self.packets.get(record.pid)
            if packet is not None:
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
                faults = clock.observe_pair(stream, packet.emitted_ns, data[0])
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

    def _drain_clocked(self, feed: TelemetryFeed, horizon: Optional[int]) -> int:
        """Heap-keyed merge: admit eligible heads in repaired-key order.

        Same tie rule as :meth:`_drain`, on the repaired clock: records
        *at* the horizon drain only for streams named at or below the
        smallest live stream whose effective watermark equals the
        horizon — later-named streams' horizon records could still be
        preceded by that stream's future deliveries.  One key is
        computed per popped record: only the popped stream is re-keyed
        (see the heap invariant above).
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
                if self._admit_clocked(record, rep):
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

    def _ingest_clocked(self, feed: TelemetryFeed) -> int:
        self._quarantine_stragglers(feed)
        horizon = self._horizon(feed)
        applied = self._drain_clocked(feed, horizon)
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
        """Apply one record's fields (``time_ns`` already repaired in
        clocked mode); False if it was rejected into a health gap."""
        if pid < 0:
            self._reject_event(stream, time_ns, "loss")
            return False
        if kind == "emit":
            if stream not in self.sources or len(data) != 5:
                self._reject_event(stream, time_ns, "loss")
                return False
            if pid in self.packets:
                self._reject_event(stream, time_ns, "loss")
                return False
            self.packets[pid] = PacketView(
                pid=pid,
                flow=FiveTuple(*data),
                source=stream,
                emitted_ns=time_ns,
            )
            self._mark_mutated(pid)  # its column rows must rebuild
            return True
        view = self.nfs.get(stream)
        if view is None:
            self._reject_event(stream, time_ns, "loss")
            return False
        packet = self.packets.get(pid)
        if packet is None:
            # The emit that named this packet never arrived: the chain is
            # broken and the evidence cannot be attached anywhere.
            self._reject_event(stream, time_ns, "chain-break")
            return False
        if kind == "hop":
            if len(data) != 2:
                self._reject_event(stream, time_ns, "loss")
                return False
            arrival_ns, read_ns = data
            if not 0 <= arrival_ns <= read_ns <= time_ns:
                self._reject_event(stream, time_ns, "loss")
                return False
            hop = PacketHop(
                nf=stream,
                arrival_ns=arrival_ns,
                read_ns=read_ns,
                depart_ns=time_ns,
            )
            hops = packet.hops
            depth = self._depth.get(stream, 0)
            # Hops normally arrive in path order and this is a plain
            # append.  During a clock-fault transient the merge can admit
            # a downstream hop first (the faulted stream's floor briefly
            # over-advances the horizon); placing each hop at its
            # topological position keeps the packet's path order — and
            # therefore the sealed bytes — independent of that race.
            index = len(hops)
            while index > 0 and self._depth.get(hops[index - 1].nf, 0) > depth:
                index -= 1
            if index == len(hops):
                hops.append(hop)
            else:
                hops.insert(index, hop)
            _insert_sorted(view.arrivals, (arrival_ns, pid))
            _insert_sorted(view.reads, (read_ns, pid))
            _insert_sorted(view.departs, (time_ns, pid))
            if time_ns > self._max_depart_ns:
                self._max_depart_ns = time_ns
        elif kind == "drop":
            packet.dropped_at = stream
            packet.dropped_ns = time_ns
            _insert_sorted(view.drops, (time_ns, pid))
            # A drop is a victim: the run must reach the chunk it falls in
            # even when nothing departs that late.
            if time_ns > self._max_depart_ns:
                self._max_depart_ns = time_ns
        else:  # exit
            packet.exited_ns = time_ns
        self._mark_mutated(pid)  # its column rows must rebuild
        return True

    def ingest(self, feed: TelemetryFeed) -> int:
        """Drain and apply every record below the current barrier.

        Returns the number of records applied.  Call after each
        ``feed.pump()``; safe to call when nothing advanced.
        """
        if self.clock is not None:
            return self._ingest_clocked(feed)
        self._quarantine_stragglers(feed)
        horizon = self._horizon(feed)
        applied = 0
        for record in self._drain(feed, horizon):
            if self._apply(record):
                applied += 1
                self._ok[record.stream] = self._ok.get(record.stream, 0) + 1
                if record.stream in self.health.completeness:
                    ok = self._ok[record.stream]
                    lost = self._lost.get(record.stream, 0)
                    self.health.completeness[record.stream] = ok / (ok + lost)
        self.records_applied += applied
        if horizon is not None and horizon > self._applied_horizon:
            self._applied_horizon = horizon
        if horizon is None and all(
            stream in self._excluded
            or (feed.at_eos(stream) and not feed.buffers[stream])
            for stream in feed.buffers
        ):
            self._complete = True
        return applied

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

    def _queue_empty_cut(self, view: NFView, cut_ns: int) -> int:
        """Largest ``b <= cut_ns`` where ``view``'s queue is empty at ``b``.

        Queue depth just before ``b`` is ``#{arrivals < b} - #{reads < b}``
        (drops live in a separate stream and never enter the balance).
        When it is positive, any empty point must see at most ``j`` (the
        read count) arrivals, i.e. lie at or below arrival ``j``'s
        timestamp — jump there and re-test.  The arrival index strictly
        decreases each round, so this terminates (at 0 in the worst case).
        """
        b = cut_ns
        while b > 0:
            i = bisect.bisect_left(view.arrivals, (b, -1))
            j = bisect.bisect_left(view.reads, (b, -1))
            if i == j:
                return b
            b = view.arrivals[j][0]
        return 0

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
        for view in self.nfs.values():
            if cut <= 0:
                return 0
            cut = self._queue_empty_cut(view, cut)
        return max(0, cut)

    def prune_before(self, cut_ns: int) -> Dict[str, int]:
        """Evict state the diagnosis of future chunks can never touch.

        Drops terminated packets (exited or dropped) whose every event
        lies strictly before the queue-empty-safe cut, their per-NF view
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
        evicted: Set[int] = set()
        for pid, packet in self.packets.items():
            # ``last`` below is at least ``emitted_ns``.  (No early exit:
            # a clock-fault transient can put a late emit before an early
            # one in dict order.)
            if packet.emitted_ns >= cut:
                continue
            if packet.exited_ns < 0 and packet.dropped_at is None:
                continue  # still in flight: future records may attach
            last = max(
                packet.emitted_ns,
                packet.exited_ns,
                packet.dropped_ns,
                max((hop.depart_ns for hop in packet.hops), default=0),
            )
            if last < cut:
                evicted.add(pid)
        for pid in evicted:
            del self.packets[pid]
        if evicted:
            for view in self.nfs.values():
                # Every hop event of an evicted packet lies below ``cut``
                # (arrival <= read <= depart <= last), so only that prefix
                # of the time-sorted lists can hold one.
                for stream in (view.arrivals, view.reads, view.departs):
                    below = bisect.bisect_left(stream, (cut, -1))
                    stream[:below] = [
                        e for e in stream[:below] if e[1] not in evicted
                    ]
                # A packet dropped twice keeps its first drop entry, which
                # ``last`` cannot see: the (short) drop lists go in full.
                view.drops[:] = [e for e in view.drops if e[1] not in evicted]
                # Length-based cache invalidation can miss an equal-length
                # rewrite; reset explicitly.
                view._pid_arrival = None
                view._pid_arrival_len = -1
                view._arrival_times = None
                view._read_times = None
                view._arrival_pids = None
                view._read_pids = None
        kept_gaps = [gap for gap in self.health.gaps if gap.end_ns >= cut]
        result["gaps"] = len(self.health.gaps) - len(kept_gaps)
        result["packets"] = len(evicted)
        self.packets_evicted += len(evicted)
        if result["gaps"]:
            self.health.gaps[:] = kept_gaps
            self.gaps_evicted += result["gaps"]
        if evicted or result["gaps"]:
            self._mark_evicted(evicted)
        # Seal-cut health snapshots for chunks behind the cut can never
        # be diagnosed again (the cut trails the replay-retain boundary).
        for index in [k for k in self._chunk_health if k < cut // self.config.chunk_ns]:
            del self._chunk_health[index]
        return result
