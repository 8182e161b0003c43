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

Streams are parallel int64 ``times`` / ``ipids`` arrays; every batch
stream, decoded or hand-built, reaches them through one path,
:meth:`BatchStream.packet_arrays
<repro.collector.runtime.BatchStream.packet_arrays>`.  The matcher
*proposes and verifies*: for a block of merged items it pairs the k-th
merged occurrence of each IPID with the k-th stream occurrence (streams
ordered by ``(time, stream)``), then accepts the longest prefix whose
every item is the greedy rule's own pick — the head of its stream, inside
the window, with no other stream's head a zero-skip rival at or before its
time.  Only a rejected item takes a per-item greedy step (bisection over
an ``ipid -> positions`` index built for the streams that reach one, or a
bounded scan over a stream whose times decrease), and proposals resume
after it.  ``tests/oracles/reconstruct.py`` holds the scan matcher both
must agree with.

The matchings are int arrays (per NF: RX item -> writer and writer index;
per TX stream: TX item -> RX item), and every chain is walked back one
NF at a time over all chains at once, writing hop rows straight into
columns: ``reconstruct()`` returns a :class:`ReconstructedPackets` view,
which builds a :class:`ReconstructedPacket` only when one is read.

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
from itertools import chain, islice
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.collector.runtime import BatchRecord, BatchStream, CollectedData, NFRecords
from repro.errors import ReconstructionError

#: Default upper bound on (read - arrival): DPDK ring of 1024 packets at a
#: slow NF.  Generous on purpose; timing only needs to prune far-away
#: records.
DEFAULT_MAX_WAIT_NS = 50_000_000

#: One per-packet record stream (arrivals, reads, or departures) as
#: parallel ``(times, ipids)`` int64 arrays (the matcher also takes lists).
Stream = Tuple[np.ndarray, np.ndarray]

#: Most TX items demux matching skips for one read.  Its window reaches
#: ``max_wait_ns`` past the read, so the too-new break does not bound the
#: search: a read whose TX record was lost (or whose packet the NF
#: consumed) would take a same-IPID item thousands of items ahead and
#: strand every read in between.  Queue matching has no such bound: its
#: too-new break is the read time, so its search never leaves the queue
#: and reaches past a queue-overflow drop run of any length.
DEMUX_MAX_SKIP = 64

#: Merged items in a matcher's first block proposal; a block accepted whole
#: doubles the next one, up to ``_MAX_BLOCK``.
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096
#: After a rejected item, items are verified one at a time until this many
#: in a row pass; then block proposals resume.
_SCALAR_RUN = 16
#: Longest chain walked back from an exit (a guard against match cycles;
#: real chains are short).
_MAX_HOPS = 64


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


def _unsupported(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is a read-only view; take list(view)")


class ReconstructedPackets(list):
    """Reconstructed journeys stored as columns: per packet a flow object,
    a source code, emit and exit times and a dropped-at code (``-1``:
    none); per hop an NF code and arrival, read and depart times, packet
    ``i``'s hops at ``hop_start[i]:hop_start[i + 1]``.  Codes index
    ``nf_names`` / ``source_names``.

    Reads as a sequence of :class:`ReconstructedPacket` (``len``,
    indexing, slicing and iteration build the packets on demand, none is
    kept) and compares equal to any sequence of equal packets.  It
    subclasses ``list`` so code that checks for a list still accepts it,
    but the list storage stays empty: reads go through the columns, and
    list methods beyond reading raise ``TypeError`` (``list(view)`` gives
    a list).  The columns are shared, not copied: treat them as
    read-only.
    """

    __slots__ = (
        "nf_names", "source_names", "flows", "source", "emitted", "exited",
        "dropped_nf", "hop_start", "hop_nf", "hop_arrival", "hop_read",
        "hop_depart",
    )

    def __init__(self, nf_names, source_names, flows, source, emitted, exited,
                 dropped_nf, hop_start, hop_nf, hop_arrival, hop_read,
                 hop_depart) -> None:
        super().__init__()
        self.nf_names: List[str] = nf_names
        self.source_names: List[str] = source_names
        self.flows: List[object] = flows
        self.source = source
        self.emitted = emitted
        self.exited = exited
        self.dropped_nf = dropped_nf
        self.hop_start = hop_start
        self.hop_nf = hop_nf
        self.hop_arrival = hop_arrival
        self.hop_read = hop_read
        self.hop_depart = hop_depart

    @classmethod
    def of(cls, packets: Sequence[object]) -> "ReconstructedPackets":
        """``packets`` as columns; a :class:`ReconstructedPackets` is
        returned as is.  Any other sequence of packet-shaped objects
        (``flow``, ``source``, ``emitted_ns``, ``exited_ns``,
        ``dropped_at`` and ``hops`` of ``nf``, ``arrival_ns``,
        ``read_ns``, ``depart_ns``) is flattened once."""
        if isinstance(packets, ReconstructedPackets):
            return packets
        packets = list(packets)
        n = len(packets)
        nf_code: Dict[str, int] = {}
        source_code: Dict[str, int] = {}
        hops = list(chain.from_iterable(packet.hops for packet in packets))

        def codes(table: Dict[str, int], names) -> np.ndarray:
            return np.fromiter(
                (-1 if name is None else table.setdefault(name, len(table)) for name in names),
                np.int32,
            )

        def column(rows, name: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), rows), np.int64, count=len(rows))

        source = codes(source_code, (p.source for p in packets))
        dropped_nf = codes(nf_code, (p.dropped_at for p in packets))
        hop_nf = codes(nf_code, (hop.nf for hop in hops))
        return cls(
            list(nf_code),
            list(source_code),
            [packet.flow for packet in packets],
            source,
            column(packets, "emitted_ns"),
            column(packets, "exited_ns"),
            dropped_nf,
            _offsets(np.fromiter(map(len, (p.hops for p in packets)), np.int64, count=n)),
            hop_nf,
            column(hops, "arrival_ns"),
            column(hops, "read_ns"),
            column(hops, "depart_ns"),
        )

    def _materialize(self, lo: int, hi: int) -> List[ReconstructedPacket]:
        """Packets ``[lo, hi)`` as objects."""
        start, end = int(self.hop_start[lo]), int(self.hop_start[hi])
        names = self.nf_names
        hops = list(
            map(
                ReconstructedHop,
                [names[code] for code in self.hop_nf[start:end].tolist()],
                self.hop_arrival[start:end].tolist(),
                self.hop_read[start:end].tolist(),
                self.hop_depart[start:end].tolist(),
            )
        )
        bounds = (self.hop_start[lo : hi + 1] - start).tolist()
        sources = self.source_names
        return [
            ReconstructedPacket(
                flow,
                sources[source],
                emitted,
                hops[bounds[i] : bounds[i + 1]],
                exited,
                None if dropped < 0 else names[dropped],
            )
            for i, (flow, source, emitted, exited, dropped) in enumerate(
                zip(
                    self.flows[lo:hi],
                    self.source[lo:hi].tolist(),
                    self.emitted[lo:hi].tolist(),
                    self.exited[lo:hi].tolist(),
                    self.dropped_nf[lo:hi].tolist(),
                )
            )
        ]

    def __len__(self) -> int:
        return len(self.flows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("packet index out of range")
        return self._materialize(index, index + 1)[0]

    def __iter__(self) -> Iterator[ReconstructedPacket]:
        n = len(self)
        for lo in range(0, n, 1024):
            yield from self._materialize(lo, min(n, lo + 1024))

    def __reversed__(self) -> Iterator[ReconstructedPacket]:
        return reversed(list(self))

    def __contains__(self, packet: object) -> bool:
        return any(p == packet for p in self)

    def __eq__(self, other: object):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __ne__(self, other: object):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return list, (list(self),)

    def __repr__(self) -> str:
        return f"ReconstructedPackets({list(self)!r})"

    # The list storage is empty: every other list method would read or
    # write it, so each says to take ``list(view)`` instead.
    append = extend = insert = remove = pop = clear = sort = reverse = _unsupported
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _unsupported
    copy = index = count = __add__ = __radd__ = __mul__ = __rmul__ = _unsupported
    __lt__ = __le__ = __gt__ = __ge__ = _unsupported


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length n+1) from per-row counts."""
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


@dataclass
class ReconstructionStats:
    """Quality accounting for a reconstruction pass."""

    matched: int = 0
    ambiguous_resolved: int = 0
    unmatched_rx: int = 0
    inferred_drops: int = 0
    chains_built: int = 0
    chains_broken: int = 0


class Assignment(Sequence):
    """A matcher's output as two int arrays: merged item ``i`` went to
    stream ``keys[lane[i]]`` at position ``index[i]`` (``lane[i] == -1``:
    unmatched).

    Reads as the sequence of ``(key, index)`` pairs and ``None``\\ s the
    scan matcher returns, and compares equal to any such sequence.
    """

    __slots__ = ("keys", "lane", "index")

    def __init__(self, keys: List[str], lane: np.ndarray, index: np.ndarray) -> None:
        self.keys = keys
        self.lane = lane
        self.index = index

    @classmethod
    def of(cls, assignment: Sequence, keys: Sequence[str]) -> "Assignment":
        """``assignment`` over streams ``keys`` as arrays; an
        :class:`Assignment` is returned as is."""
        if isinstance(assignment, Assignment):
            return assignment
        code = {key: lane for lane, key in enumerate(keys)}
        n = len(assignment)
        return cls(
            list(keys),
            np.fromiter((-1 if a is None else code[a[0]] for a in assignment), np.int64, count=n),
            np.fromiter((-1 if a is None else a[1] for a in assignment), np.int64, count=n),
        )

    def __len__(self) -> int:
        return len(self.lane)

    def __getitem__(self, i: int) -> Optional[Tuple[str, int]]:
        lane = int(self.lane[i])
        return None if lane < 0 else (self.keys[lane], int(self.index[i]))

    def __iter__(self) -> Iterator[Optional[Tuple[str, int]]]:
        keys = self.keys
        for lane, index in zip(self.lane.tolist(), self.index.tolist()):
            yield None if lane < 0 else (keys[lane], index)

    def __eq__(self, other: object):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Assignment({list(self)!r})"


_EMPTY: Stream = (np.empty(0, np.int64), np.empty(0, np.int64))


def _as_arrays(stream: Stream) -> Stream:
    times, ipids = stream
    return np.asarray(times, np.int64), np.asarray(ipids, np.int64)


class _StreamMatcher:
    """Greedy order-preserving matcher with drop skips and lookahead.

    Matches a merged sequence against K ordered component streams, each a
    pair of parallel ``(times, ipids)`` int sequences.  For each merged
    item at time ``t``, stream ``s``'s candidate is :meth:`_candidates`'
    rule: the first index ``j >= p`` (``p`` the stream's pointer, and
    ``j <= p + max_skip`` when ``max_skip`` is given) whose ipid matches
    and whose time lies in ``[t + lo, t + hi]``, with no "too new" item
    (time ``> t + hi``) before it; items skipped over are treated as
    losses, ``skips = j - p``.  Ties between streams are broken by
    (fewest skips, earliest time); remaining ties use bounded lookahead
    over the next merged items.  The window must contain its merged item
    (``lo <= 0 <= hi``).

    :meth:`run` gives every item the greedy's pick without stepping
    through the greedy where it can: :meth:`_propose` verifies a block of
    items at once and accepts the prefix whose picks are zero-skip,
    unrivalled stream heads; :meth:`_verify_one` does the same for one
    item; only an item either rejects takes :meth:`_step`, the greedy
    itself.  A stream whose times never decrease answers the step's rule
    with bisection over an ``ipid -> ascending positions`` index built on
    its first step; one whose times decrease somewhere (strict mode over
    disordered input only) keeps the bounded scan.
    """

    def __init__(
        self,
        merged: Stream,
        streams: Dict[str, Stream],
        lo: int,
        hi: int,
        lookahead: int = 4,
        max_skip: Optional[int] = None,
    ) -> None:
        self._merged = _as_arrays(merged)
        self.lo = lo
        self.hi = hi
        self.lookahead = lookahead
        self.max_skip = max_skip
        self.keys: List[str] = list(streams)
        self.pointers: Dict[str, int] = {key: 0 for key in streams}
        self._arrays = [_as_arrays(stream) for stream in streams.values()]
        n = len(self._merged[0])
        self._lane = np.full(n, -1, np.int64)
        self._index = np.full(n, -1, np.int64)
        self.assignment = Assignment(self.keys, self._lane, self._index)
        self.stats_ambiguous = 0
        self.stats_unmatched = 0
        #: Items accepted by a block proposal, and items that took a greedy step.
        self.stats_bulk = 0
        self.stats_stepped = 0
        #: The per-item path's int lists, built on its first use:
        #: (key, times, ipids, length, times never decrease) per stream.
        self._lanes: Optional[List[Tuple[str, List[int], List[int], int, bool]]] = None
        self._indexes: List[Optional[Dict[int, List[int]]]] = [None] * len(self.keys)

    def run(self) -> Assignment:
        n = len(self._lane)
        i = 0
        block = _FIRST_BLOCK
        streak = _SCALAR_RUN
        while i < n:
            if streak >= _SCALAR_RUN:
                stop = min(n, i + block)
                i += self._propose(i, stop)
                if i == stop:
                    block = min(2 * block, _MAX_BLOCK)
                    continue
                block = _FIRST_BLOCK
            elif self._verify_one(i):
                i += 1
                streak += 1
                continue
            self._step(i)
            i += 1
            streak = 0
        return self.assignment

    # -- propose and verify ------------------------------------------------------

    def _propose(self, start: int, stop: int) -> int:
        """Verify merged items ``[start, stop)`` in one pass; assign the
        accepted prefix, advance the pointers past it and return its
        length.

        Proposal: the k-th merged occurrence of an ipid in the block pairs
        with the k-th occurrence of that ipid among the streams' next
        ``stop - start`` items, taken in ``(time, stream, position)``
        order.  Verification: item ``i`` is accepted when its proposed
        item is its stream's head at the pointers the items before it
        imply, lies in the window, and no other stream's head there has
        the same ipid and a time in ``[t + lo, pick time]``; then it is
        the greedy's unique best candidate (zero skips, earliest time) and
        the implied pointers are the greedy's own, by induction.
        """
        m = stop - start
        merged_times = self._merged[0][start:stop]
        merged_ipids = self._merged[1][start:stop]
        pointers = np.array([self.pointers[key] for key in self.keys], np.int64)
        # An accepted block takes at most m items of any stream.
        slices = [
            (times[p : p + m], ipids[p : p + m])
            for (times, ipids), p in zip(self._arrays, pointers.tolist())
        ]
        sizes = np.array([len(times) for times, _ipids in slices], np.int64)
        if not sizes.any():
            return 0
        head_times = np.concatenate([times for times, _ipids in slices])
        head_ipids = np.concatenate([ipids for _times, ipids in slices])
        head_lane = np.repeat(np.arange(len(sizes)), sizes)
        head_pos = np.arange(len(head_lane)) + np.repeat(pointers - _offsets(sizes)[:-1], sizes)
        by_time = np.argsort(head_times, kind="stable")
        by_ipid = by_time[np.argsort(head_ipids[by_time], kind="stable")]
        sorted_ipids = head_ipids[by_ipid]
        order = np.argsort(merged_ipids, kind="stable")
        ranked = merged_ipids[order]
        rank = np.empty(m, np.int64)
        rank[order] = np.arange(m) - np.searchsorted(ranked, ranked)
        at = np.searchsorted(sorted_ipids, merged_ipids) + rank
        valid = at < len(sorted_ipids)
        at[~valid] = 0
        pick = by_ipid[at]
        valid &= sorted_ipids[at] == merged_ipids
        lane = np.where(valid, head_lane[pick], -1)
        pos = head_pos[pick]
        pick_time = head_times[pick]
        lanes = np.arange(len(self.keys))[:, None]
        hits = lane == lanes
        heads = pointers[:, None] + np.cumsum(hits, axis=1) - hits
        low = merged_times + self.lo
        ok = (
            valid
            & (pos == heads[lane, np.arange(m)])
            & (pick_time >= low)
            & (pick_time <= merged_times + self.hi)
        )
        for r, (times, ipids) in enumerate(self._arrays):
            if not len(times):
                continue
            head = np.minimum(heads[r], len(times) - 1)
            head_time = times[head]
            ok &= ~(
                (heads[r] < len(times))
                & (lane != r)
                & (ipids[head] == merged_ipids)
                & (head_time >= low)
                & (head_time <= pick_time)
            )
        rejected = np.flatnonzero(~ok)
        accepted = int(rejected[0]) if len(rejected) else m
        self._lane[start : start + accepted] = lane[:accepted]
        self._index[start : start + accepted] = pos[:accepted]
        taken = np.bincount(lane[:accepted], minlength=len(self.keys)).tolist()
        for key, count in zip(self.keys, taken):
            self.pointers[key] += count
        self.stats_bulk += accepted
        return accepted

    def _verify_one(self, i: int) -> bool:
        """:meth:`_propose`'s test for item ``i`` alone, on the int lists:
        assign it and return True when exactly one stream head is a
        zero-skip candidate at the earliest time among them."""
        self._per_item()
        merged_time = self.merged_times[i]
        ipid = self.merged_ipids[i]
        low = merged_time + self.lo
        high = merged_time + self.hi
        pointers = self.pointers
        pick = None
        pick_time = high + 1
        tied = False
        for lane, (key, times, ipids, length, _ascending) in enumerate(self._lanes):
            head = pointers[key]
            if head < length and ipids[head] == ipid:
                time_ns = times[head]
                if low <= time_ns < pick_time:
                    pick, pick_time, tied = lane, time_ns, False
                elif time_ns == pick_time:
                    tied = True
        if pick is None or tied:
            return False
        key = self.keys[pick]
        self._lane[i] = pick
        self._index[i] = pointers[key]
        pointers[key] += 1
        return True

    # -- the greedy, one item at a time ----------------------------------------

    def _per_item(self) -> None:
        """Build the int lists the per-item path reads (once)."""
        if self._lanes is not None:
            return
        self.merged_times = self._merged[0].tolist()
        self.merged_ipids = self._merged[1].tolist()
        self._lanes = [
            (
                key,
                times.tolist(),
                ipids.tolist(),
                len(times),
                bool(np.all(times[1:] >= times[:-1])),
            )
            for key, (times, ipids) in zip(self.keys, self._arrays)
        ]

    def _candidates(
        self, merged_time: int, ipid: int, pointers: Dict[str, int]
    ) -> List[Tuple[int, int, str, int]]:
        """Return (skips, time, stream, index) candidates, best first."""
        found: List[Tuple[int, int, str, int]] = []
        low = merged_time + self.lo
        high = merged_time + self.hi
        max_skip = self.max_skip
        indexes = self._indexes
        for lane, (key, times, ipids, length, ascending) in enumerate(self._lanes):
            start = pointers[key]
            end = length
            if max_skip is not None and start + max_skip + 1 < length:
                end = start + max_skip + 1
            if not ascending:
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
            index = indexes[lane]
            if index is None:
                index = indexes[lane] = defaultdict(list)
                for position, item in enumerate(ipids):
                    index[item].append(position)
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

    def _step(self, i: int) -> None:
        """The greedy rule for merged item ``i`` at the current pointers."""
        self._per_item()
        self.stats_stepped += 1
        candidates = self._candidates(
            self.merged_times[i], self.merged_ipids[i], self.pointers
        )
        if not candidates:
            self.stats_unmatched += 1
            return
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
        self._lane[i] = self.keys.index(key)
        self._index[i] = idx
        self.pointers[key] = idx + 1


def _as_columns(data: CollectedData) -> CollectedData:
    """``data`` with every NF stream as :class:`BatchStream` columns, so a
    pass converts each in-memory list once (a loaded dump's streams are
    columns already and pass through)."""
    return CollectedData(
        nfs={
            name: NFRecords(
                rx=BatchStream.of(records.rx),
                tx={
                    peer: BatchStream.of(batches)
                    for peer, batches in records.tx.items()
                },
            )
            for name, records in data.nfs.items()
        },
        sources=data.sources,
        exits=data.exits,
        max_batch=data.max_batch,
    )


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
        self._edge_delay: Dict[Tuple[str, str], int] = {
            (e.src, e.dst): e.delay_ns for e in self.edges
        }
        self._writers: Dict[str, List[str]] = {}
        for edge in self.edges:
            self._writers.setdefault(edge.dst, []).append(edge.src)
        self._reset()

    def _reset(self) -> None:
        """Forget the previous pass: stats, health, streams, matchings."""
        self.stats = ReconstructionStats()
        #: Telemetry quality of the last ``reconstruct()`` pass.
        self.health = TelemetryHealth()
        self._nf_matched: Dict[str, int] = {}
        self._nf_expected: Dict[str, int] = {}
        self._break_spans: Dict[str, List[int]] = {}
        self._queue_match: Dict[str, Assignment] = {}
        self._demux_match: Dict[str, Assignment] = {}
        self._rx_items: Dict[str, Stream] = {}
        self._writer_items: Dict[str, Dict[str, Stream]] = {}
        self._tx_items: Dict[str, Dict[str, Stream]] = {}

    # -- stream assembly -----------------------------------------------------

    @staticmethod
    def _batch_stream(batches: Sequence[BatchRecord], delay: int = 0) -> Stream:
        return BatchStream.of(batches).packet_arrays(delay)

    def _rx_stream(self, nf: str) -> Stream:
        records = self.data.nfs.get(nf)
        return _as_arrays(self._batch_stream(records.rx if records is not None else []))

    def _writer_streams(self, nf: str) -> Dict[str, Stream]:
        streams: Dict[str, Stream] = {}
        for writer in self._writers.get(nf, []):
            delay = self._edge_delay[(writer, nf)]
            if writer in self.data.sources:
                sent = [rec for rec in self.data.sources[writer] if rec.target == nf]
                streams[writer] = (
                    np.fromiter(map(attrgetter("time_ns"), sent), np.int64, len(sent)) + delay,
                    np.fromiter(map(attrgetter("ipid"), sent), np.int64, len(sent)),
                )
            else:
                records = self.data.nfs.get(writer)
                batches = records.tx_to(nf) if records else []
                streams[writer] = _as_arrays(self._batch_stream(batches, delay))
        return streams

    def _tx_streams(self, nf: str) -> Dict[str, Stream]:
        records = self.data.nfs.get(nf)
        if records is None:
            return {}
        return {
            next_node: _as_arrays(self._batch_stream(batches))
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
        assignment = Assignment.of(matcher.run(), list(writers))
        self._queue_match[nf] = assignment
        self.stats.ambiguous_resolved += matcher.stats_ambiguous
        self.stats.unmatched_rx += matcher.stats_unmatched
        matched_writer_items = int(np.count_nonzero(assignment.lane >= 0))
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
            max_skip=DEMUX_MAX_SKIP,
        )
        self._demux_match[nf] = Assignment.of(matcher.run(), list(tx_streams))

    # -- stream validation (tolerant mode) -------------------------------------

    def _sanitize_streams(self) -> None:
        """Validate per-NF streams; repair mild disorder, quarantine the rest.

        Replaces ``self.data`` with a shallow copy for the pass
        (``reconstruct()`` puts the caller's back when it ends), so the
        caller's records are never mutated.  A
        quarantined NF is removed from the matching entirely — downstream
        NFs then infer drops for everything it carried, which is exactly
        how a crashed collector looks.
        """
        sane_nfs: Dict[str, NFRecords] = {}
        for name, records in self.data.nfs.items():
            rx, tx = records.rx, records.tx  # columns (see _as_columns)
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
        packets = ReconstructedPackets.of(packets)
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
        if 0.0 < survival < 1.0 and len(packets):
            mean_hops = int(packets.hop_start[-1]) / len(packets)
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
                    stream_times
                    for stream_times, _ipids in self._writer_items[nf].values()
                    if len(stream_times)
                ]
                if times:
                    self.health.gaps.append(
                        TelemetryGap(
                            nf=nf,
                            start_ns=min(int(np.min(t)) for t in times),
                            end_ns=max(int(np.max(t)) for t in times),
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

    def reconstruct(self) -> ReconstructedPackets:
        """Run both matchings on every NF, then chain from exit records.

        Every call is a fresh pass over the records the reconstructor was
        given: stats, health and matchings describe the latest pass only.
        """
        collected = self.data
        self._reset()
        try:
            self.data = _as_columns(collected)
            if self.tolerant:
                self._sanitize_streams()
            for nf in self.data.nfs:
                self._rx_items[nf] = self._rx_stream(nf)
                self._writer_items[nf] = self._writer_streams(nf)
                self._tx_items[nf] = self._tx_streams(nf)
            for nf in self.data.nfs:
                self._match_queue(nf)
                self._match_demux(nf)
            return self._chain()
        finally:
            self.data = collected

    def _exit_positions(self, nf: str) -> Dict[Tuple[int, int], List[int]]:
        """``(time, ipid) -> ascending positions`` of ``nf``'s exit stream."""
        positions: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        times, ipids = self._tx_items[nf].get("", _EMPTY)
        for position, key in enumerate(zip(times.tolist(), ipids.tolist())):
            positions[key].append(position)
        return positions

    def _chain(self) -> ReconstructedPackets:
        """Align exit records with exit items, walk every chain back to its
        source and record health; the packets in exit order."""
        exits = self.data.exits
        exit_ns = np.fromiter(map(attrgetter("time_ns"), exits), np.int64, count=len(exits))
        exit_ipids = np.fromiter(map(attrgetter("ipid"), exits), np.int64, count=len(exits))
        numbers_at: Dict[str, List[int]] = defaultdict(list)
        for number, record in enumerate(exits):
            numbers_at[record.last_nf].append(number)
        #: (exit record, NF, time) of each break found while aligning.
        breaks: List[Tuple[int, str, int]] = []
        starts: List[Tuple[np.ndarray, str, np.ndarray]] = []
        for nf, numbers in numbers_at.items():
            records = np.array(numbers, np.int64)
            times, ipids = self._tx_items.get(nf, {}).get("", _EMPTY)
            if np.array_equal(times, exit_ns[records]) and np.array_equal(
                ipids, exit_ipids[records]
            ):
                # Every record has its item, in order: nothing is lost.
                starts.append((records, nf, np.arange(len(records))))
            else:
                starts.append(self._align_exits(nf, numbers, breaks))
        walk = _ChainWalk(self)
        packets = walk.run(starts, exit_ns, exits)
        started = sum(len(numbers) for numbers, _nf, _items in starts)
        self.stats.chains_built += len(packets)
        self.stats.chains_broken += len(breaks) + started - len(packets)
        if self.tolerant:
            # Note breaks in the order the per-record loop met them: a
            # record's alignment breaks, then its chain's.
            events = [(number, 0, nf, time_ns) for number, nf, time_ns in breaks]
            events += [(number, 1, nf, time_ns) for number, nf, time_ns in walk.breaks]
            for _number, _kind, nf, time_ns in sorted(events, key=lambda e: e[:2]):
                self._note_break(nf, time_ns)
        self._record_health(packets)
        return packets

    def _align_exits(
        self, nf: str, numbers: List[int], breaks: List[Tuple[int, str, int]]
    ) -> Tuple[np.ndarray, str, np.ndarray]:
        """Align ``nf``'s exit records (``numbers``, in order) with its exit
        items one record at a time; append the breaks found to ``breaks``
        and return the aligned ``(records, nf, exit items)``."""
        exits = self.data.exits
        positions_of = self._exit_positions(nf) if nf in self._tx_items else {}
        exit_times = self._tx_items[nf][""][0] if positions_of else _EMPTY[0]
        aligned: List[int] = []
        items: List[int] = []
        cursor = 0
        for number in numbers:
            record = exits[number]
            # An exit record and its exit-stream item are written from the
            # same TX batch: align on (time, ipid), never on position, so a
            # lost record or item breaks chains instead of shifting every
            # later packet onto its neighbour's flow.
            positions = positions_of.get((record.time_ns, record.ipid), ())
            k = bisect_left(positions, cursor)
            if k == len(positions):
                breaks.append((number, nf, record.time_ns))
                continue
            tx_index = positions[k]
            for skipped in range(cursor, tx_index):
                # An exit item whose record was lost: its chain is broken.
                breaks.append((number, nf, int(exit_times[skipped])))
            cursor = tx_index + 1
            aligned.append(number)
            items.append(tx_index)
        return np.array(aligned, np.int64), nf, np.array(items, np.int64)

    def _note_break(self, nf: str, exit_ns: int) -> None:
        if self.tolerant:
            self._break_spans.setdefault(nf, []).append(exit_ns)


class _ChainWalk:
    """Every chain walked back one NF per round, all chains at once.

    The reconstructor's streams and matchings are concatenated into flat
    arrays with per-stream offsets, so one round is a few array gathers
    over the chains still walking: TX item -> RX item (the demux
    matching), RX item -> writer and writer item (the queue matching), and
    the writer's own TX stream towards this NF for the next round.  A
    chain ends at a source writer (a packet) or at a missing match (a
    break at that NF).
    """

    def __init__(self, reconstructor: TraceReconstructor) -> None:
        data = reconstructor.data
        self.nf_names = list(data.nfs)
        self.source_names = list(data.sources)
        nf_code = {name: code for code, name in enumerate(self.nf_names)}
        source_code = {name: code for code, name in enumerate(self.source_names)}
        # TX streams: per stream, its times and the demux's TX -> RX map.
        self.stream_code: Dict[Tuple[str, str], int] = {}
        tx_times: List[np.ndarray] = []
        tx_back: List[np.ndarray] = []
        for nf in self.nf_names:
            demux = reconstructor._demux_match[nf]
            for lane, (key, (times, _ipids)) in enumerate(reconstructor._tx_items[nf].items()):
                back = np.full(len(times), -1, np.int64)
                matched = np.flatnonzero(demux.lane == lane)
                back[demux.index[matched]] = matched
                self.stream_code[(nf, key)] = len(tx_times)
                tx_times.append(times)
                tx_back.append(back)
        self.tx_start = _offsets(np.array([len(t) for t in tx_times], np.int64))
        self.tx_times = _concat(tx_times)
        self.tx_back = _concat(tx_back)
        # RX streams with their queue matching: RX item -> (writer, item).
        rx = [reconstructor._rx_items[nf][0] for nf in self.nf_names]
        self.rx_start = _offsets(np.array([len(t) for t in rx], np.int64))
        self.rx_times = _concat(rx)
        self.rx_writer = _concat([reconstructor._queue_match[nf].lane for nf in self.nf_names])
        self.rx_item = _concat([reconstructor._queue_match[nf].index for nf in self.nf_names])
        # Writer streams ("arrival lanes"), numbered per NF in writer order.
        arrivals: List[np.ndarray] = []
        lane_base: List[int] = []
        is_source: List[bool] = []
        writer: List[int] = []  # source code, or NF code of the writer
        delay: List[int] = []
        next_stream: List[int] = []
        for nf in self.nf_names:
            lane_base.append(len(arrivals))
            for name, (times, _ipids) in reconstructor._writer_items[nf].items():
                arrivals.append(times)
                source = name in data.sources
                is_source.append(source)
                writer.append(source_code[name] if source else nf_code.get(name, -1))
                delay.append(reconstructor._edge_delay[(name, nf)])
                next_stream.append(self.stream_code.get((name, nf), -1))
        self.lane_base = np.array(lane_base, np.int64)
        self.arrival_start = _offsets(np.array([len(t) for t in arrivals], np.int64))
        self.arrival_times = _concat(arrivals)
        self.is_source = np.array(is_source, bool)
        self.writer = np.array(writer, np.int64)
        self.delay = np.array(delay, np.int64)
        self.next_stream = np.array(next_stream, np.int64)
        self._nf_code = nf_code
        #: (exit record, NF, exit time) of each chain that broke.
        self.breaks: List[Tuple[int, str, int]] = []

    def run(
        self,
        starts: Sequence[Tuple[np.ndarray, str, np.ndarray]],
        exit_ns: np.ndarray,
        exits: Sequence,
    ) -> ReconstructedPackets:
        """Walk the chains from ``starts`` — per exit NF, aligned exit
        records and their exit-stream items — and return the packets built,
        in exit-record order (``exit_ns``: every exit record's time)."""
        records = _concat([numbers for numbers, _nf, _items in starts])
        order = np.argsort(records, kind="stable")
        records = records[order]
        nfs = _concat(
            [np.full(len(numbers), self._nf_code.get(nf, -1), np.int64) for numbers, nf, _i in starts]
        )[order]
        streams = _concat(
            [
                np.full(len(numbers), self.stream_code.get((nf, ""), -1), np.int64)
                for numbers, nf, _i in starts
            ]
        )[order]
        items = _concat([items for _numbers, _nf, items in starts])[order]
        exited = exit_ns[records]
        depth = np.zeros(len(records), np.int64)
        source = np.full(len(records), -1, np.int64)
        emitted = np.zeros(len(records), np.int64)
        rounds: List[Tuple[np.ndarray, ...]] = []
        broken: List[Tuple[np.ndarray, np.ndarray]] = []
        alive = np.arange(len(records))
        for level in range(_MAX_HOPS):
            if not len(alive):
                break
            rx = self.tx_back[self.tx_start[streams] + items]
            ok = rx >= 0
            at = self.rx_start[nfs] + np.where(ok, rx, 0)
            lane = np.where(ok, self.rx_writer[at], -1)
            ok &= lane >= 0
            broken.append((alive[~ok], nfs[~ok]))
            alive, nfs, streams, items, at, lane = (
                a[ok] for a in (alive, nfs, streams, items, at, lane)
            )
            arrival_lane = self.lane_base[nfs] + lane
            writer_item = self.rx_item[at]
            arrival = self.arrival_times[self.arrival_start[arrival_lane] + writer_item]
            rounds.append(
                (
                    alive,
                    np.full(len(alive), level, np.int64),
                    nfs,
                    arrival,
                    self.rx_times[at],
                    self.tx_times[self.tx_start[streams] + items],
                )
            )
            done = self.is_source[arrival_lane]
            finished = alive[done]
            depth[finished] = level + 1
            source[finished] = self.writer[arrival_lane[done]]
            emitted[finished] = arrival[done] - self.delay[arrival_lane[done]]
            walking = ~done
            alive = alive[walking]
            nfs = self.writer[arrival_lane[walking]]
            streams = self.next_stream[arrival_lane[walking]]
            items = writer_item[walking]
        broken.append((alive, nfs))  # chains longer than _MAX_HOPS
        for chains, at_nf in broken:
            for chain_id, nf in zip(chains.tolist(), at_nf.tolist()):
                self.breaks.append(
                    (int(records[chain_id]), self.nf_names[nf], int(exited[chain_id]))
                )
        built = np.flatnonzero(depth > 0)
        row = np.full(len(records), -1, np.int64)
        row[built] = np.arange(len(built))
        hop_start = _offsets(depth[built])
        columns = [_concat([r[k] for r in rounds]) for k in range(6)]
        chain_of, level_of = columns[0], columns[1]
        keep = row[chain_of] >= 0
        slot = (
            hop_start[row[chain_of[keep]]] + depth[chain_of[keep]] - 1 - level_of[keep]
        )
        hops = []
        for column, dtype in zip(columns[2:], (np.int32, np.int64, np.int64, np.int64)):
            out = np.empty(len(slot), dtype)
            out[slot] = column[keep]
            hops.append(out)
        return ReconstructedPackets(
            self.nf_names,
            self.source_names,
            [exits[r].flow for r in records[built].tolist()],
            source[built].astype(np.int32),
            emitted[built],
            exited[built],
            np.full(len(built), -1, np.int32),
            hop_start,
            *hops,
        )


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if len(arrays) else np.empty(0, np.int64)
