"""Packet-trace reconstruction from compressed records (section 5, Fig. 9).

Interior NFs record only IPIDs, so the same packet must be re-identified
across NFs.  Three side channels resolve IPID collisions:

1. **Paths** — a packet at NF ``f`` can only have come from ``f``'s
   immediate upstream writers, so matching walks one edge at a time.
2. **Timing** — a packet is read after it arrived and within a bounded
   queueing delay, so only writer records inside the delay window are
   candidates.
3. **Order** — each writer's packets enter the downstream FIFO in write
   order, so candidate choices that break per-writer order are rejected;
   when two writers' heads both match, bounded lookahead picks the choice
   that keeps the rest of the stream consistent (the Figure 9 argument).

Reconstruction proceeds per NF in two matchings:

* **queue matching**: the NF's RX stream is an interleaving of its writers'
  arrival streams (upstream TX records shifted by edge propagation delay,
  plus traffic-source emission logs).  Unmatched writer items are inferred
  drops at the NF's input queue.
* **demux matching**: the NF's RX stream fans out into its per-next-hop TX
  streams; each RX item maps to at most one TX item (none when the NF
  itself consumed the packet, e.g. a firewall drop rule).

Chaining the matchings backwards from the exit records (which carry
five-tuples) yields full per-packet hop timelines.  Each exit record is
aligned with the item of its NF's exit stream that has the record's
``(time, ipid)`` — both are written from the same TX batch — so a lost
exit record or exit item breaks exactly one chain (a ``chain-break`` gap
in tolerant mode) instead of shifting every later packet at that NF onto
its neighbour's flow and exit time.

Streams are parallel ``times`` / ``ipids`` int lists; every batch stream,
decoded or hand-built, reaches them through one path,
:meth:`BatchStream.packets <repro.collector.runtime.BatchStream.packets>`.
The matcher finds
each merged item's per-stream candidate by bisection over an ``ipid ->
positions`` index of the stream, so the cost per merged item grows with
``log n`` rather than with the ``max_skip`` items a scan would walk; a
stream whose times decrease (strict mode over disordered input) keeps the
scan.  ``tests/oracles/reconstruct.py`` holds the scan matcher the index
must agree with.

**Tolerant mode** (``tolerant=True``) handles degraded telemetry instead
of letting it poison the matchings: per-NF streams are validated first
(out-of-order batches are re-sorted; streams whose disorder exceeds
``max_disorder`` are quarantined and treated like a crashed collector),
and every form of damage — losses inferred by the matcher, repaired
reorderings, quarantines, broken chains — is recorded as explicit
:class:`~repro.collector.health.TelemetryGap` markers in ``self.health``
together with per-NF completeness ratios.  Diagnosis consumes that
:class:`~repro.collector.health.TelemetryHealth` to discount culprit
confidence.  On clean input tolerant mode is bit-identical to strict
mode (validation finds nothing to repair).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.collector.runtime import BatchRecord, BatchStream, CollectedData, NFRecords
from repro.errors import ReconstructionError

#: Default upper bound on (read - arrival): DPDK ring of 1024 packets at a
#: slow NF.  Generous on purpose; timing only needs to prune far-away
#: records.
DEFAULT_MAX_WAIT_NS = 50_000_000

#: One per-packet record stream (arrivals, reads, or departures) as
#: parallel ``(times, ipids)`` lists.
Stream = Tuple[List[int], List[int]]


@dataclass
class EdgeSpec:
    """Static topology knowledge the reconstructor is given."""

    src: str
    dst: str
    delay_ns: int


@dataclass
class ReconstructedHop:
    """Timing of one reconstructed packet at one NF."""

    nf: str
    arrival_ns: int
    read_ns: int
    depart_ns: int


@dataclass
class ReconstructedPacket:
    """One packet journey rebuilt from compressed records."""

    flow: object
    source: str
    emitted_ns: int
    hops: List[ReconstructedHop] = field(default_factory=list)
    exited_ns: int = -1
    dropped_at: Optional[str] = None

    def nf_path(self) -> Tuple[str, ...]:
        return tuple(hop.nf for hop in self.hops)


@dataclass
class ReconstructionStats:
    """Quality accounting for a reconstruction pass."""

    matched: int = 0
    ambiguous_resolved: int = 0
    unmatched_rx: int = 0
    inferred_drops: int = 0
    chains_built: int = 0
    chains_broken: int = 0


class _StreamMatcher:
    """Greedy order-preserving matcher with drop skips and lookahead.

    Matches a merged sequence against K ordered component streams, each a
    pair of parallel ``(times, ipids)`` lists.  For each merged item at
    time ``t``, stream ``s``'s candidate is :meth:`_candidates`' rule: the
    first index ``j`` in ``[p, p + max_skip]`` (``p`` the stream's pointer)
    whose ipid matches and whose time lies in ``[t + lo, t + hi]``, with no
    "too new" item (time ``> t + hi``) before it; items skipped over are
    treated as losses, ``skips = j - p``.  Ties between streams are broken
    by (fewest skips, earliest time); remaining ties use bounded lookahead
    over the next merged items.  The window must contain its merged item
    (``lo <= 0 <= hi``).

    A stream whose times never decrease answers the rule with bisection
    over a per-stream ``ipid -> ascending positions`` index built once;
    one whose times decrease somewhere (strict mode over disordered input
    only) keeps the bounded scan.
    """

    def __init__(
        self,
        merged: Stream,
        streams: Dict[str, Stream],
        lo: int,
        hi: int,
        lookahead: int = 4,
        max_skip: int = 64,
    ) -> None:
        self.merged_times, self.merged_ipids = merged
        self.lo = lo
        self.hi = hi
        self.lookahead = lookahead
        self.max_skip = max_skip
        self.pointers: Dict[str, int] = {key: 0 for key in streams}
        self.assignment: List[Optional[Tuple[str, int]]] = [None] * len(
            self.merged_times
        )
        self.stats_ambiguous = 0
        self.stats_unmatched = 0
        #: (key, times, ipids, length, ipid -> positions or None for the
        #: scan).
        self._lanes: List[Tuple[str, List[int], List[int], int, Optional[dict]]] = []
        for key, (times, ipids) in streams.items():
            index = None
            if all(a <= b for a, b in zip(times, islice(times, 1, None))):
                index = defaultdict(list)
                for position, ipid in enumerate(ipids):
                    index[ipid].append(position)
            self._lanes.append((key, times, ipids, len(times), index))

    def _candidates(
        self, merged_time: int, ipid: int, pointers: Dict[str, int]
    ) -> List[Tuple[int, int, str, int]]:
        """Return (skips, time, stream, index) candidates, best first."""
        found: List[Tuple[int, int, str, int]] = []
        low = merged_time + self.lo
        high = merged_time + self.hi
        span = self.max_skip + 1
        for key, times, ipids, length, index in self._lanes:
            start = pointers[key]
            end = start + span
            if end > length:
                end = length
            if index is None:
                idx = start
                while idx < end:
                    time_ns = times[idx]
                    if time_ns > high:
                        break  # this and later items are too new
                    if time_ns >= low and ipids[idx] == ipid:
                        found.append((idx - start, time_ns, key, idx))
                        break
                    idx += 1
                continue
            positions = index.get(ipid)
            if positions is None:
                continue
            k = bisect_left(positions, start)
            if k < len(positions) and times[positions[k]] < low:
                # Jump past the too-old prefix of the window (times ascend).
                k = bisect_left(positions, bisect_left(times, low, start, end), k)
            if k == len(positions):
                continue
            idx = positions[k]
            if idx >= end:
                continue
            time_ns = times[idx]
            if time_ns > high:
                continue  # an item at or before idx is too new
            found.append((idx - start, time_ns, key, idx))
        found.sort()
        return found

    def _try_match(self, start: int, pointers: Dict[str, int], depth: int) -> bool:
        """Can merged[start:start+depth] be matched from ``pointers``?"""
        if depth == 0 or start >= len(self.merged_times):
            return True
        candidates = self._candidates(
            self.merged_times[start], self.merged_ipids[start], pointers
        )
        for _skips, _time, key, idx in candidates:
            trial = dict(pointers)
            trial[key] = idx + 1
            if self._try_match(start + 1, trial, depth - 1):
                return True
        return not candidates  # no candidate: treat as unmatchable, accept

    def run(self) -> List[Optional[Tuple[str, int]]]:
        merged = zip(self.merged_times, self.merged_ipids)
        for i, (merged_time, ipid) in enumerate(merged):
            candidates = self._candidates(merged_time, ipid, self.pointers)
            if not candidates:
                self.stats_unmatched += 1
                continue
            best = candidates[0]
            top = [c for c in candidates if c[0] == best[0] and c[1] == best[1]]
            if len(top) > 1:
                # Order-based disambiguation (Figure 9): pick the candidate
                # that lets the following merged items still match.
                self.stats_ambiguous += 1
                chosen = None
                for candidate in top:
                    trial = dict(self.pointers)
                    trial[candidate[2]] = candidate[3] + 1
                    if self._try_match(i + 1, trial, self.lookahead):
                        chosen = candidate
                        break
                best = chosen if chosen is not None else top[0]
            _skips, _time, key, idx = best
            self.assignment[i] = (key, idx)
            self.pointers[key] = idx + 1
        return self.assignment


def _time_span(streams: Sequence[BatchStream]) -> Tuple[int, int]:
    """Earliest and latest batch time over ``streams`` (not all empty)."""
    times = [stream.times for stream in streams if stream.times]
    return min(map(min, times)), max(map(max, times))


class TraceReconstructor:
    """Rebuilds per-packet journeys from :class:`CollectedData`."""

    def __init__(
        self,
        data: CollectedData,
        edges: Sequence[EdgeSpec],
        max_wait_ns: int = DEFAULT_MAX_WAIT_NS,
        lookahead: int = 4,
        tolerant: bool = False,
        max_disorder: float = 0.2,
    ) -> None:
        self.data = data
        self.edges = list(edges)
        self.max_wait_ns = max_wait_ns
        self.lookahead = lookahead
        self.tolerant = tolerant
        #: Fraction of adjacent out-of-order batch pairs above which a
        #: stream is quarantined rather than repaired (tolerant mode).
        self.max_disorder = max_disorder
        self.stats = ReconstructionStats()
        #: Telemetry quality of the last ``reconstruct()`` pass.
        self.health = TelemetryHealth()
        self._nf_matched: Dict[str, int] = {}
        self._nf_expected: Dict[str, int] = {}
        self._break_spans: Dict[str, List[int]] = {}
        self._edge_delay: Dict[Tuple[str, str], int] = {
            (e.src, e.dst): e.delay_ns for e in self.edges
        }
        self._writers: Dict[str, List[str]] = {}
        for edge in self.edges:
            self._writers.setdefault(edge.dst, []).append(edge.src)
        # Matching results, filled by reconstruct().
        self._queue_match: Dict[str, List[Optional[Tuple[str, int]]]] = {}
        self._demux_match: Dict[str, List[Optional[Tuple[str, int]]]] = {}
        self._tx_back: Dict[str, Dict[str, Dict[int, int]]] = {}
        self._rx_items: Dict[str, Stream] = {}
        self._writer_items: Dict[str, Dict[str, Stream]] = {}
        self._tx_items: Dict[str, Dict[str, Stream]] = {}

    # -- stream assembly -----------------------------------------------------

    @staticmethod
    def _batch_stream(batches: Sequence[BatchRecord], delay: int = 0) -> Stream:
        return BatchStream.of(batches).packets(delay)

    def _rx_stream(self, nf: str) -> Stream:
        records = self.data.nfs.get(nf)
        return self._batch_stream(records.rx if records is not None else [])

    def _writer_streams(self, nf: str) -> Dict[str, Stream]:
        streams: Dict[str, Stream] = {}
        for writer in self._writers.get(nf, []):
            delay = self._edge_delay[(writer, nf)]
            if writer in self.data.sources:
                sent = [rec for rec in self.data.sources[writer] if rec.target == nf]
                streams[writer] = (
                    [rec.time_ns + delay for rec in sent],
                    [rec.ipid for rec in sent],
                )
            else:
                records = self.data.nfs.get(writer)
                batches = records.tx_to(nf) if records else []
                streams[writer] = self._batch_stream(batches, delay)
        return streams

    def _tx_streams(self, nf: str) -> Dict[str, Stream]:
        records = self.data.nfs.get(nf)
        if records is None:
            return {}
        return {
            next_node: self._batch_stream(batches)
            for next_node, batches in records.tx.items()
        }

    # -- matching --------------------------------------------------------------

    def _match_queue(self, nf: str) -> None:
        writers = self._writer_items[nf]
        # A packet is read after it arrived, within the queueing bound.
        matcher = _StreamMatcher(
            self._rx_items[nf],
            writers,
            -self.max_wait_ns,
            0,
            lookahead=self.lookahead,
        )
        self._queue_match[nf] = matcher.run()
        self.stats.ambiguous_resolved += matcher.stats_ambiguous
        self.stats.unmatched_rx += matcher.stats_unmatched
        matched_writer_items = sum(1 for a in self._queue_match[nf] if a is not None)
        total_writer_items = sum(len(times) for times, _ipids in writers.values())
        self.stats.inferred_drops += max(0, total_writer_items - matched_writer_items)
        self.stats.matched += matched_writer_items
        self._nf_matched[nf] = matched_writer_items
        self._nf_expected[nf] = total_writer_items

    def _match_demux(self, nf: str) -> None:
        tx_streams = self._tx_items[nf]
        # A packet is written after it was read, within the same bound.
        matcher = _StreamMatcher(
            self._rx_items[nf],
            tx_streams,
            0,
            self.max_wait_ns,
            lookahead=self.lookahead,
        )
        assignment = matcher.run()
        self._demux_match[nf] = assignment
        back: Dict[str, Dict[int, int]] = {key: {} for key in tx_streams}
        for rx_index, match in enumerate(assignment):
            if match is not None:
                next_node, tx_index = match
                back[next_node][tx_index] = rx_index
        self._tx_back[nf] = back

    # -- stream validation (tolerant mode) -------------------------------------

    def _sanitize_streams(self) -> None:
        """Validate per-NF streams; repair mild disorder, quarantine the rest.

        Works on a shallow copy of ``self.data`` so the caller's records
        are never mutated.  A quarantined NF is removed from the matching
        entirely — downstream NFs then infer drops for everything it
        carried, which is exactly how a crashed collector looks.
        """
        sane_nfs: Dict[str, NFRecords] = {}
        for name, records in self.data.nfs.items():
            rx = BatchStream.of(records.rx)
            tx = {peer: BatchStream.of(batches) for peer, batches in records.tx.items()}
            streams = [rx, *tx.values()]
            total = sum(len(s) for s in streams)
            inversions = sum(
                sum(b < a for a, b in zip(s.times, islice(s.times, 1, None)))
                for s in streams
            )
            if total and inversions / total > self.max_disorder:
                self.health.quarantined.add(name)
                self.health.completeness[name] = 0.0
                start_ns, end_ns = _time_span(streams)
                self.health.gaps.append(
                    TelemetryGap(
                        nf=name,
                        start_ns=start_ns,
                        end_ns=end_ns,
                        kind="quarantine",
                        count=total,
                    )
                )
                continue
            if inversions:
                repaired = NFRecords(
                    rx=rx.sorted_by_time(),
                    tx={peer: stream.sorted_by_time() for peer, stream in tx.items()},
                )
                start_ns, end_ns = _time_span(streams)
                self.health.gaps.append(
                    TelemetryGap(
                        nf=name,
                        start_ns=start_ns,
                        end_ns=end_ns,
                        kind="reorder",
                        count=inversions,
                    )
                )
                sane_nfs[name] = repaired
            else:
                sane_nfs[name] = records
        if self.health.quarantined or self.health.gaps:
            self.data = CollectedData(
                nfs=sane_nfs,
                sources=self.data.sources,
                exits=self.data.exits,
                max_batch=self.data.max_batch,
            )

    def _record_health(self, packets: Sequence[ReconstructedPacket]) -> None:
        """Per-NF completeness, retention, and loss gaps from the matchings."""
        # Retention: a record lost at ANY chain stage removes the whole
        # packet from the trace, so the trace samples every NF's traffic
        # more thinly than any single NF's record loss suggests.  The
        # chain survival rate over *observed* exit records measures that
        # thinning directly — and real packet drops never produce an exit
        # record, so (unlike completeness) they do not depress it.
        # Survival conditions on the exit record itself being present,
        # i.e. it reflects only n-1 of a chain's ~n independent drop
        # opportunities; survival^(n/(n-1)) removes that bias.
        exits_seen = self.stats.chains_built + self.stats.chains_broken
        survival = self.stats.chains_built / exits_seen if exits_seen else 1.0
        retention = survival
        if 0.0 < survival < 1.0 and packets:
            mean_hops = sum(len(p.hops) for p in packets) / len(packets)
            stages = max(2.0, 2.0 * mean_hops + 2.0)  # rx/tx per hop + src + exit
            retention = survival ** (stages / (stages - 1.0))
        for nf in self.data.nfs:
            total = self._nf_expected.get(nf, 0)
            matched = self._nf_matched.get(nf, 0)
            self.health.completeness[nf] = matched / total if total else 1.0
            self.health.retention[nf] = retention
            dropped = total - matched
            if dropped > 0:
                times = [
                    time_ns
                    for stream_times, _ipids in self._writer_items[nf].values()
                    for time_ns in stream_times
                ]
                if times:
                    self.health.gaps.append(
                        TelemetryGap(
                            nf=nf,
                            start_ns=min(times),
                            end_ns=max(times),
                            kind="loss",
                            count=dropped,
                        )
                    )
        for nf, span in self._break_spans.items():
            self.health.gaps.append(
                TelemetryGap(
                    nf=nf,
                    start_ns=min(span),
                    end_ns=max(span),
                    kind="chain-break",
                    count=len(span),
                )
            )

    # -- chaining ----------------------------------------------------------------

    def reconstruct(self) -> List[ReconstructedPacket]:
        """Run both matchings on every NF, then chain from exit records."""
        self.health = TelemetryHealth()
        self._break_spans = {}
        if self.tolerant:
            self._sanitize_streams()
        for nf in self.data.nfs:
            self._rx_items[nf] = self._rx_stream(nf)
            self._writer_items[nf] = self._writer_streams(nf)
            self._tx_items[nf] = self._tx_streams(nf)
        for nf in self.data.nfs:
            self._match_queue(nf)
            self._match_demux(nf)

        packets: List[ReconstructedPacket] = []
        exit_cursor: Dict[str, int] = {}
        exit_positions = {nf: self._exit_positions(nf) for nf in self._tx_items}
        for record in self.data.exits:
            nf = record.last_nf
            cursor = exit_cursor.get(nf, 0)
            # An exit record and its exit-stream item are written from the
            # same TX batch: align on (time, ipid), never on position, so a
            # lost record or item breaks chains instead of shifting every
            # later packet onto its neighbour's flow.
            positions = exit_positions.get(nf, {}).get(
                (record.time_ns, record.ipid), ()
            )
            k = bisect_left(positions, cursor)
            if k == len(positions):
                self.stats.chains_broken += 1
                self._note_break(nf, record.time_ns)
                continue
            tx_index = positions[k]
            exit_times = self._tx_items[nf][""][0]
            for skipped in range(cursor, tx_index):
                # An exit item whose record was lost: its chain is broken.
                self.stats.chains_broken += 1
                self._note_break(nf, exit_times[skipped])
            exit_cursor[nf] = tx_index + 1
            packet = self._chain_back(nf, tx_index, record.flow, record.time_ns)
            if packet is not None:
                packets.append(packet)
                self.stats.chains_built += 1
            else:
                self.stats.chains_broken += 1
        self._record_health(packets)
        return packets

    def _exit_positions(self, nf: str) -> Dict[Tuple[int, int], List[int]]:
        """``(time, ipid) -> ascending positions`` of ``nf``'s exit stream."""
        positions: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        times, ipids = self._tx_items[nf].get("", ([], []))
        for position, key in enumerate(zip(times, ipids)):
            positions[key].append(position)
        return positions

    def _chain_back(
        self, last_nf: str, exit_tx_index: int, flow: object, exit_ns: int
    ) -> Optional[ReconstructedPacket]:
        hops_reversed: List[ReconstructedHop] = []
        nf = last_nf
        tx_stream_key = ""  # exit stream at the last NF
        tx_index = exit_tx_index
        # Guard against pathological match cycles; real chains are short.
        for _ in range(64):
            back = self._tx_back.get(nf, {}).get(tx_stream_key, {})
            rx_index = back.get(tx_index)
            if rx_index is None:
                self._note_break(nf, exit_ns)
                return None
            queue_match = self._queue_match[nf][rx_index]
            if queue_match is None:
                self._note_break(nf, exit_ns)
                return None
            writer, writer_index = queue_match
            arrival = self._writer_items[nf][writer][0][writer_index]
            tx_times = self._tx_items[nf].get(tx_stream_key, ([], []))[0]
            depart = tx_times[tx_index] if tx_index < len(tx_times) else -1
            hops_reversed.append(
                ReconstructedHop(
                    nf=nf,
                    arrival_ns=arrival,
                    read_ns=self._rx_items[nf][0][rx_index],
                    depart_ns=depart,
                )
            )
            if writer in self.data.sources:
                emitted = arrival - self._edge_delay[(writer, nf)]
                return ReconstructedPacket(
                    flow=flow,
                    source=writer,
                    emitted_ns=emitted,
                    hops=list(reversed(hops_reversed)),
                    exited_ns=exit_ns,
                )
            # The writer item is the writer's TX record on the edge
            # writer -> nf; step back into the writer NF.
            tx_stream_key = nf
            tx_index = writer_index
            nf = writer
        self._note_break(nf, exit_ns)
        return None

    def _note_break(self, nf: str, exit_ns: int) -> None:
        if self.tolerant:
            self._break_spans.setdefault(nf, []).append(exit_ns)
