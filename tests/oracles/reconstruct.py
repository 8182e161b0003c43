"""Scan matcher and object chaining: the references for
``collector.reconstruct``'s ``_StreamMatcher`` and chain walk.

What the reconstruction matcher was before streams became parallel
``times`` / ``ipids`` lists with a per-stream ``ipid -> positions`` index:
every merged item walks every component stream up to its first too-new
item (at most ``max_skip + 1`` items when a bound is given), testing a
window predicate on each.  Moved here unedited but for that bound, which
was 64 for every matching and is now optional
(:class:`ScanStreamMatcher`, with its ``_Item``); :class:`OracleStreamMatcher`
puts it behind the production constructor, and :func:`matching_through`
makes every ``TraceReconstructor`` inside the block match with it.  The
production matcher must return the same ``assignment``,
``stats_ambiguous`` and ``stats_unmatched`` for every input
(``tests/collector/test_matcher_parity.py``).

What chaining was before the matchings became int arrays and chains were
walked into columns: a per-record exit loop that calls ``_chain_back``
once per exit record, which builds one :class:`ReconstructedHop` per hop
and one :class:`ReconstructedPacket` per chain from ``tx -> rx`` dicts.
Both are moved here unedited (:func:`exit_loop_reference`,
:func:`chain_back_reference`); :func:`chaining_through` makes every
``TraceReconstructor`` inside the block chain with them.  The production
walk must give equal packets, stats, health and trace columns
(``tests/collector/test_chain_parity.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.collector import reconstruct as reconstruct_mod
from repro.collector.reconstruct import (
    ReconstructedHop,
    ReconstructedPacket,
    TraceReconstructor,
)


@dataclass(frozen=True)
class _Item:
    """One per-packet record in a stream (arrival, read, or departure)."""

    time_ns: int
    ipid: int


class ScanStreamMatcher:
    """Greedy order-preserving matcher with drop skips and lookahead.

    Matches a merged sequence against K ordered component streams.  For each
    merged item, the candidate set is, per stream, the first not-yet-matched
    item with the same ipid inside the time window (items skipped over are
    treated as losses).  Ties between streams are broken by (fewest skips,
    earliest time); remaining ties use bounded lookahead over the next
    merged items.
    """

    def __init__(
        self,
        merged: Sequence[Tuple[int, int]],
        streams: Dict[str, List[_Item]],
        window_ok,
        lookahead: int = 4,
        max_skip: Optional[int] = None,
    ) -> None:
        self.merged = merged
        self.streams = streams
        self.window_ok = window_ok
        self.lookahead = lookahead
        self.max_skip = max_skip
        self.pointers: Dict[str, int] = {key: 0 for key in streams}
        self.assignment: List[Optional[Tuple[str, int]]] = [None] * len(merged)
        self.stats_ambiguous = 0
        self.stats_unmatched = 0

    def _candidates(
        self, merged_time: int, ipid: int, pointers: Dict[str, int]
    ) -> List[Tuple[int, int, str, int]]:
        """Return (skips, time, stream, index) candidates, best first."""
        found: List[Tuple[int, int, str, int]] = []
        for key, stream in self.streams.items():
            idx = pointers[key]
            skips = 0
            while idx < len(stream) and (
                self.max_skip is None or skips <= self.max_skip
            ):
                item = stream[idx]
                if not self.window_ok(item.time_ns, merged_time):
                    if item.time_ns > merged_time:
                        break  # this and later items are too new
                    # Item too old to ever match a later merged item? It can
                    # still match later merged items (window grows), so only
                    # skip it for this merged item.
                    idx += 1
                    skips += 1
                    continue
                if item.ipid == ipid:
                    found.append((skips, item.time_ns, key, idx))
                    break
                idx += 1
                skips += 1
        found.sort()
        return found

    def _try_match(self, start: int, pointers: Dict[str, int], depth: int) -> bool:
        """Can merged[start:start+depth] be matched from ``pointers``?"""
        if depth == 0 or start >= len(self.merged):
            return True
        merged_time, ipid = self.merged[start]
        candidates = self._candidates(merged_time, ipid, pointers)
        for _skips, _time, key, idx in candidates:
            trial = dict(pointers)
            trial[key] = idx + 1
            if self._try_match(start + 1, trial, depth - 1):
                return True
        return not candidates  # no candidate: treat as unmatchable, accept

    def run(self) -> List[Optional[Tuple[str, int]]]:
        for i, (merged_time, ipid) in enumerate(self.merged):
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


class OracleStreamMatcher(ScanStreamMatcher):
    """The scan matcher behind the production constructor: ``merged`` and
    each stream are ``(times, ipids)`` list pairs, the window is the offset
    range ``[lo, hi]`` around the merged item's time.

    The scan's "too new" test is ``time > merged_time``, the production
    one ``time > merged_time + hi``; they agree for the two windows the
    reconstructor uses (``[-max_wait, 0]`` and ``[0, max_wait]``, i.e.
    ``lo <= 0 <= hi``)."""

    def __init__(
        self,
        merged: Tuple[Sequence[int], Sequence[int]],
        streams: Dict[str, Tuple[Sequence[int], Sequence[int]]],
        lo: int,
        hi: int,
        lookahead: int = 4,
        max_skip: Optional[int] = None,
    ) -> None:
        assert lo <= 0 <= hi, (lo, hi)

        def window_ok(item_ns: int, merged_ns: int) -> bool:
            return lo <= item_ns - merged_ns <= hi

        times, ipids = merged
        super().__init__(
            list(zip(times, ipids)),
            {
                key: [_Item(time_ns=t, ipid=i) for t, i in zip(*stream)]
                for key, stream in streams.items()
            },
            window_ok,
            lookahead=lookahead,
            max_skip=max_skip,
        )


@contextmanager
def matching_through(matcher_class=OracleStreamMatcher) -> Iterator[None]:
    """Inside the block every ``TraceReconstructor`` matches its queues and
    demuxes with ``matcher_class``."""
    with mock.patch.object(reconstruct_mod, "_StreamMatcher", matcher_class):
        yield


def exit_loop_reference(self) -> List[ReconstructedPacket]:
    """``TraceReconstructor._chain``: align each exit record, chain it
    back, record health."""
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


def chain_back_reference(
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


def chain_reference(self) -> List[ReconstructedPacket]:
    """The object chaining over the production matchings: first the
    per-stream ``tx -> rx`` dicts ``_match_demux`` kept for
    ``_chain_back``, then the per-record exit loop."""
    self._tx_back = {}
    for nf, assignment in self._demux_match.items():
        back: Dict[str, Dict[int, int]] = {key: {} for key in self._tx_items[nf]}
        for rx_index, match in enumerate(assignment):
            if match is not None:
                next_node, tx_index = match
                back[next_node][tx_index] = rx_index
        self._tx_back[nf] = back
    return exit_loop_reference(self)


@contextmanager
def chaining_through() -> Iterator[None]:
    """Inside the block every ``TraceReconstructor`` chains exit records
    into packet objects one record and one hop at a time."""
    with mock.patch.object(
        TraceReconstructor, "_chain", chain_reference
    ), mock.patch.object(
        TraceReconstructor, "_chain_back", chain_back_reference, create=True
    ):
        yield
