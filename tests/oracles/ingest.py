"""Per-record-scan clocked merge: the reference for ``IncrementalTrace``.

What ``IncrementalTrace._drain`` / ``_admit`` (then ``_drain_clocked`` /
``_admit_clocked``) were before the drain kept its stream heads in a heap:
every popped record rescans and re-keys every stream head, and the
admitted record is rebuilt with ``dataclasses.replace`` before
``_apply``.  Moved here unedited but for those names; clocked mode only.  The
production merge must leave the builder in the same state — per-pump
``sealed_chunks``, packets, NF views, health, seal-cut snapshots, clock
payload, ``ingest_stats`` — for every record stream and batching
(``tests/ingest/test_clocked_merge.py``).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional, Tuple

from repro.ingest.feed import TelemetryFeed
from repro.ingest.incremental import IncrementalTrace
from repro.ingest.records import TelemetryRecord


class OracleIncrementalTrace(IncrementalTrace):
    """``IncrementalTrace`` with the per-record-scan clocked drain."""

    def _admit(self, record: TelemetryRecord) -> bool:
        """Repair, observe, and apply one popped record (clocked mode)."""
        stream = record.stream
        raw = record.time_ns
        rep = self._repair_time(stream, raw)
        self._last_time[stream] = rep
        local_faults = self.clock.observe_local(stream, raw)
        self._clock_faults(stream, rep, local_faults)
        if stream in self._excluded:
            # The freeze that quarantined the stream fired on this very
            # record: its timestamp is meaningless, discard it.
            self.rejects += 1
            return False
        if (
            record.kind == "hop"
            and len(record.data) == 2
            and 0 <= record.data[0] <= record.data[1] <= raw
        ):
            entry = self._rows.get(record.pid)  # (row, emitted_ns)
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
                pair_faults = self.clock.observe_pair(
                    stream, entry[1], record.data[0]
                )
                self._clock_faults(stream, rep, pair_faults)
        delta = rep - raw
        if delta != 0:
            self.clock.repairs += 1
            if record.kind == "hop" and len(record.data) == 2:
                arrival = max(0, record.data[0] + delta)
                read = max(0, record.data[1] + delta)
                read = min(read, rep)
                arrival = min(arrival, read)
                record = dc_replace(record, time_ns=rep, data=(arrival, read))
            else:
                record = dc_replace(record, time_ns=rep)
        return self._apply(record)

    def _drain(self, feed: TelemetryFeed, horizon: Optional[int]) -> int:
        """Pick-min merge: admit eligible heads in repaired-key order.

        Same tie rule as the production drain, on the repaired clock:
        records *at* the horizon drain only for streams named at or below
        the smallest live stream whose effective watermark equals the
        horizon — later-named streams' horizon records could still be
        preceded by that stream's future deliveries.
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
        applied = 0
        while True:
            best_key: Optional[Tuple[int, str, int]] = None
            for stream in feed.buffers:
                if stream in self._excluded:
                    continue
                buffer = feed.buffers[stream]
                if not buffer:
                    continue
                head = buffer.head()
                rep = self._repair_time(stream, head.time_ns)
                if horizon is not None:
                    if rep > horizon:
                        continue
                    if rep == horizon and tie_limit is not None and stream > tie_limit:
                        continue
                key = (rep, stream, head.seq)
                if best_key is None or key < best_key:
                    best_key = key
            if best_key is None:
                break
            # Freeze per-chunk health before the admitted prefix crosses
            # a pending seal barrier (see _snapshot_health_through).
            self._snapshot_health_through(best_key[0])
            stream = best_key[1]
            record = feed.buffers[stream].pop()
            expected = self._next_seq.get(stream, 0)
            if record.seq < expected:
                self.duplicates += 1
                continue
            if record.seq > expected:
                missing = record.seq - expected
                self._gap(
                    stream,
                    self._last_time.get(stream, 0),
                    best_key[0],
                    "loss",
                    count=missing,
                )
                self._account_loss(stream, missing)
            self._next_seq[stream] = record.seq + 1
            if self._admit(record):
                applied += 1
                self._ok[stream] = self._ok.get(stream, 0) + 1
                if stream in self.health.completeness:
                    ok = self._ok[stream]
                    lost = self._lost.get(stream, 0)
                    self.health.completeness[stream] = ok / (ok + lost)
        for stream in sorted(self._excluded):
            buffer = feed.buffers.get(stream)
            if buffer is None:
                continue
            while buffer:
                buffer.pop()
                self.rejects += 1
        return applied
