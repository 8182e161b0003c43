"""Reference trace model: the mutable object graph the columns replaced.

Before ``TraceColumns`` became the one stored form of a trace, every trace
was built twice: a ``packets`` dict of :class:`PacketView` rows (with a
lazy hop index and ``upstream_of`` cache) plus per-NF :class:`NFView`
``(t, pid)`` lists, and a columnar twin flattened from them.  That object
builder lives here, moved without algorithmic edits:

* :class:`NFView` / :class:`PacketView` — the list-backed NF view and the
  cached packet row,
* :class:`ObjectTrace` — ``DiagTrace`` as an object graph, with its
  ``from_sim_result`` / ``from_reconstruction`` constructors,
* :func:`columns_from_trace` — ``TraceColumns.from_trace``, the flatten
  of an object trace into columns,
* :class:`ObjectIncrementalTrace` — ``IncrementalTrace`` applying records
  into the object graph (``_insert_sorted``, the topological hop insert),
  with its ``safe_cut`` / ``prune_before`` and the snapshot restore.
* :func:`flow_counts_reference` — ``TraceColumns.flow_counts`` as a loop
  over one Python tuple per pid's ``pkt_flow`` row; :func:`counting_through`
  swaps it into ``TraceColumns``.

Production columns must equal :func:`columns_from_trace` of the matching
object trace, array for array, after any sequence of applies, prunes and
snapshot restores (``tests/ingest/test_live_columns.py``).
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np

from repro.core import records
from repro.core.columnar import (
    CodeTable,
    NFColumns,
    TraceColumns,
    flatten,
    hop_starts,
    times_pids,
)
from repro.core.records import PacketHop
from repro.errors import TraceError
from repro.ingest.incremental import IncrementalTrace
from repro.nfv.packet import FiveTuple


@dataclass
class PacketView(records.PacketView):
    """A packet row with the lazy hop index and ``upstream_of`` cache."""

    # Lazy nf -> position index over ``hops`` (first occurrence wins, like
    # the linear scan it replaces).  Rebuilt whenever ``hops`` grew since
    # the last build, so post-construction appends stay safe.
    _hop_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    _hop_index_len: int = field(default=-1, repr=False, compare=False)
    # Lazy nf -> (upstream path, arrivals, departs) cache; see upstream_of.
    _upstream_cache: Optional[Dict[str, Tuple[tuple, tuple, tuple]]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def of(cls, packet: records.PacketView) -> "PacketView":
        """The reference twin of a production row."""
        if isinstance(packet, cls):
            return packet
        return cls(
            pid=packet.pid,
            flow=packet.flow,
            source=packet.source,
            emitted_ns=packet.emitted_ns,
            hops=list(packet.hops),
            dropped_at=packet.dropped_at,
            dropped_ns=packet.dropped_ns,
            exited_ns=packet.exited_ns,
        )

    def _index(self) -> Dict[str, int]:
        if self._hop_index is None or self._hop_index_len != len(self.hops):
            index: Dict[str, int] = {}
            for pos, hop in enumerate(self.hops):
                index.setdefault(hop.nf, pos)
            self._hop_index = index
            self._hop_index_len = len(self.hops)
            self._upstream_cache = {}
        return self._hop_index

    def hop_position(self, nf: str) -> Optional[int]:
        """Position of ``nf`` on this packet's hop list, or None."""
        return self._index().get(nf)

    def hop_at(self, nf: str) -> Optional[PacketHop]:
        pos = self._index().get(nf)
        return None if pos is None else self.hops[pos]

    def hops_before(self, nf: str) -> List[PacketHop]:
        """Hops strictly upstream of ``nf`` on this packet's path."""
        pos = self._index().get(nf)
        if pos is None:
            return list(self.hops)
        return self.hops[:pos]

    def upstream_of(self, nf: str) -> Tuple[Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]]:
        """Cached ``(path, arrivals, departs)`` for the hops upstream of ``nf``.

        ``path`` lists the upstream NF names in hop order (duplicates kept,
        so looping paths group exactly as before); ``arrivals``/``departs``
        align with it, and a repeated name reports its *first* occurrence's
        times, matching what ``hop_at`` used to return.  The propagation
        fast path calls this once per (packet, victim NF) instead of
        re-walking hop lists for every victim.
        """
        cache = self._upstream_cache
        if cache is None or self._hop_index_len != len(self.hops):
            self._index()  # refresh both lazy structures together
            cache = self._upstream_cache = {}
        cached = cache.get(nf)
        if cached is None:
            upstream = self.hops_before(nf)
            names = tuple(hop.nf for hop in upstream)
            first: Dict[str, PacketHop] = {}
            for hop in upstream:
                first.setdefault(hop.nf, hop)
            arrivals = tuple(first[name].arrival_ns for name in names)
            departs = tuple(first[name].depart_ns for name in names)
            cached = (names, arrivals, departs)
            cache[nf] = cached
        return cached


@dataclass
class NFView:
    """Per-NF event streams, each sorted by time."""

    name: str
    peak_rate_pps: float
    arrivals: List[Tuple[int, int]] = field(default_factory=list)  # (t, pid)
    reads: List[Tuple[int, int]] = field(default_factory=list)
    departs: List[Tuple[int, int]] = field(default_factory=list)
    drops: List[Tuple[int, int]] = field(default_factory=list)
    # Lazy pid -> first arrival index map; rebuilt if arrivals grew.
    _pid_arrival: Optional[Dict[int, int]] = field(
        default=None, repr=False, compare=False
    )
    _pid_arrival_len: int = field(default=-1, repr=False, compare=False)
    # Lazy int64 time arrays per stream; length-invalidated like the pid
    # index.  The queuing analyzer's vectorized build reads these, so
    # rebuilding an analyzer over the same view skips the tuple-to-array
    # conversion entirely.
    _arrival_times: Optional[object] = field(default=None, repr=False, compare=False)
    _read_times: Optional[object] = field(default=None, repr=False, compare=False)
    _arrival_pids: Optional[object] = field(default=None, repr=False, compare=False)
    _read_pids: Optional[object] = field(default=None, repr=False, compare=False)

    def _pid_index(self) -> Dict[int, int]:
        if self._pid_arrival is None or self._pid_arrival_len != len(self.arrivals):
            index: Dict[int, int] = {}
            for idx, (_t, pid) in enumerate(self.arrivals):
                index.setdefault(pid, idx)
            self._pid_arrival = index
            self._pid_arrival_len = len(self.arrivals)
        return self._pid_arrival

    def arrival_times(self):
        """Cached int64 array of arrival timestamps."""
        if self._arrival_times is None or len(self._arrival_times) != len(
            self.arrivals
        ):
            self._arrival_times = np.fromiter(
                (t for t, _pid in self.arrivals),
                dtype=np.int64,
                count=len(self.arrivals),
            )
        return self._arrival_times

    def read_times(self):
        """Cached int64 array of read timestamps."""
        if self._read_times is None or len(self._read_times) != len(self.reads):
            self._read_times = np.fromiter(
                (t for t, _pid in self.reads),
                dtype=np.int64,
                count=len(self.reads),
            )
        return self._read_times

    def arrival_pids(self):
        """Cached int64 array of arrival pids, aligned with arrival_times()."""
        if self._arrival_pids is None or len(self._arrival_pids) != len(
            self.arrivals
        ):
            self._arrival_pids = np.fromiter(
                (pid for _t, pid in self.arrivals),
                dtype=np.int64,
                count=len(self.arrivals),
            )
        return self._arrival_pids

    def read_pids(self):
        """Cached int64 array of read pids, aligned with read_times()."""
        if self._read_pids is None or len(self._read_pids) != len(self.reads):
            self._read_pids = np.fromiter(
                (pid for _t, pid in self.reads),
                dtype=np.int64,
                count=len(self.reads),
            )
        return self._read_pids

    def arrival_time_at(self, idx: int) -> int:
        """Timestamp of arrival ``idx`` (array-backed views avoid tuples)."""
        return self.arrivals[idx][0]

    def reads_before(self, t_ns: int) -> int:
        """Number of reads strictly before ``t_ns``."""
        return bisect.bisect_left(self.reads, (t_ns, -1))

    def last_depart_ns(self) -> Optional[int]:
        """Timestamp of the final depart here, or None with no departs."""
        return self.departs[-1][0] if self.departs else None

    def arrival_index_of(self, pid: int) -> Optional[int]:
        """Index of ``pid``'s first arrival here, or None if it never arrived."""
        return self._pid_index().get(pid)

    def arrival_index(self, pid: int, t_ns: int) -> int:
        """Index of (t_ns, pid) in the arrival stream."""
        # Fast path: the pid map points straight at the first arrival.
        idx = self._pid_index().get(pid)
        if idx is not None and self.arrivals[idx] == (t_ns, pid):
            return idx
        # Re-arriving pid (or a stale map after mutation): arrivals is
        # sorted by (t, pid), so the exact entry bisects directly.
        idx = bisect.bisect_left(self.arrivals, (t_ns, pid))
        if idx < len(self.arrivals) and self.arrivals[idx] == (t_ns, pid):
            return idx
        raise TraceError(f"packet {pid} has no arrival at {self.name} t={t_ns}")


def columns_from_trace(trace) -> TraceColumns:
    """Build columns from the object model (``TraceColumns.from_trace``)."""
    nf_code = CodeTable(sorted(trace.nfs))
    source_code = CodeTable(sorted(trace.sources))
    packets = list(trace.packets.values())
    pkt, hop_counts, hop = flatten(
        packets, [packet.hops for packet in packets], nf_code, source_code
    )
    nf_names = nf_code.names

    streams: List[NFColumns] = []
    peak_rates: List[float] = []
    for name in nf_names:
        view = trace.nfs.get(name)
        if view is None:  # an unknown-NF hop: no event streams exist
            empty = np.empty(0, dtype=np.int64)
            streams.append(NFColumns(*([empty] * 8)))
            peak_rates.append(0.0)
            continue
        peak_rates.append(view.peak_rate_pps)
        arr_t = view.arrival_times()
        arr_pid = view.arrival_pids()
        read_t = view.read_times()
        read_pid = view.read_pids()
        dep_t, dep_pid = times_pids(view.departs)
        drop_t, drop_pid = times_pids(view.drops)
        streams.append(
            NFColumns(
                arr_t, arr_pid, read_t, read_pid,
                dep_t, dep_pid, drop_t, drop_pid,
            )
        )
    return TraceColumns(
        nf_names, source_code.names, peak_rates,
        **pkt, hop_start=hop_starts(hop_counts), **hop, streams=streams,
    )


class ObjectTrace:
    """``DiagTrace`` as the object graph: packets dict plus NF lists."""

    def __init__(
        self,
        packets: Dict[int, PacketView],
        nfs: Dict[str, NFView],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        telemetry=None,
    ) -> None:
        self.packets = packets
        self.nfs = nfs
        self.upstreams = upstreams
        self.sources = sources
        self.nf_types = nf_types or {}
        self.telemetry = telemetry
        for view in nfs.values():
            view.arrivals.sort()
            view.reads.sort()
            view.departs.sort()
            view.drops.sort()

    def columns(self) -> TraceColumns:
        return columns_from_trace(self)

    @classmethod
    def from_sim_result(cls, result, peak_rates: Optional[Dict[str, float]] = None) -> "ObjectTrace":
        """Oracle mode: build directly from simulator ground truth."""
        topology = result.topology
        rates = dict(topology.peak_rates_pps())
        if peak_rates:
            rates.update(peak_rates)
        nfs: Dict[str, NFView] = {}
        for name in topology.nfs:
            if name not in rates:
                raise TraceError(f"no peak rate known for NF {name!r}")
            nfs[name] = NFView(name=name, peak_rate_pps=rates[name])
        packets: Dict[int, PacketView] = {}
        for pid, trace in result.trace.packets.items():
            hops: List[PacketHop] = []
            for hop in trace.hops:
                if hop.read_ns < 0 or hop.depart_ns < 0:
                    continue  # still queued or in-flight at sim end
                view = nfs[hop.nf]
                view.arrivals.append((hop.enqueue_ns, pid))
                view.reads.append((hop.read_ns, pid))
                view.departs.append((hop.depart_ns, pid))
                hops.append(
                    PacketHop(
                        nf=hop.nf,
                        arrival_ns=hop.enqueue_ns,
                        read_ns=hop.read_ns,
                        depart_ns=hop.depart_ns,
                    )
                )
            if trace.dropped_at is not None:
                nfs[trace.dropped_at].drops.append((trace.dropped_ns, pid))
            packets[pid] = PacketView(
                pid=pid,
                flow=trace.flow,
                source=trace.source,
                emitted_ns=trace.emitted_ns,
                hops=hops,
                dropped_at=trace.dropped_at,
                dropped_ns=trace.dropped_ns,
                exited_ns=trace.exited_ns,
            )
        upstreams = {name: topology.predecessors(name) for name in topology.nfs}
        return cls(
            packets=packets,
            nfs=nfs,
            upstreams=upstreams,
            sources=set(topology.sources),
            nf_types=topology.nf_types(),
        )

    @classmethod
    def from_reconstruction(
        cls,
        reconstructed: Sequence[object],
        peak_rates: Dict[str, float],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        health=None,
        tolerant: bool = False,
    ) -> "ObjectTrace":
        """Full-pipeline mode: build from reconstructed packet journeys."""
        nfs: Dict[str, NFView] = {
            name: NFView(name=name, peak_rate_pps=rate)
            for name, rate in peak_rates.items()
        }
        packets: Dict[int, PacketView] = {}
        for pid, packet in enumerate(reconstructed):
            hops: List[PacketHop] = []
            for hop in packet.hops:
                view = nfs.get(hop.nf)
                if view is None:
                    if tolerant:
                        continue
                    raise TraceError(f"reconstructed hop at unknown NF {hop.nf!r}")
                view.arrivals.append((hop.arrival_ns, pid))
                view.reads.append((hop.read_ns, pid))
                view.departs.append((hop.depart_ns, pid))
                hops.append(
                    PacketHop(
                        nf=hop.nf,
                        arrival_ns=hop.arrival_ns,
                        read_ns=hop.read_ns,
                        depart_ns=hop.depart_ns,
                    )
                )
            packets[pid] = PacketView(
                pid=pid,
                flow=packet.flow,
                source=packet.source,
                emitted_ns=packet.emitted_ns,
                hops=hops,
                exited_ns=packet.exited_ns,
            )
        return cls(
            packets=packets,
            nfs=nfs,
            upstreams=upstreams,
            sources=sources,
            nf_types=nf_types,
            telemetry=health,
        )


def _insert_sorted(stream: List[Tuple[int, int]], item: Tuple[int, int]) -> None:
    # Departs (and usually drops) arrive already sorted; arrivals/reads
    # ride inside hop records emitted at depart time, so they can land
    # out of order and need the insort.
    if not stream or item >= stream[-1]:
        stream.append(item)
    else:
        bisect.insort(stream, item)


class ObjectIncrementalTrace(IncrementalTrace):
    """``IncrementalTrace`` applying records into the object graph.

    The merge, sealing and health bookkeeping are the production class's;
    what this swaps is the representation — ``packets``/``nfs`` are the
    mutable dict and lists again — and everything that reads or writes
    it: ``_apply_event``, ``safe_cut``, ``prune_before``, the snapshot
    restore and ``columns()`` (a full :func:`columns_from_trace`).  For
    unclocked ingest (clock pair observations read the production pid
    map).
    """

    # Plain attributes shadowing DiagTrace's views.
    packets = None
    nfs = None

    def __init__(self, packets, nfs, upstreams, sources, nf_types=None, config=None):
        super().__init__(packets, nfs, upstreams, sources, nf_types, config)
        self.packets: Dict[int, PacketView] = {}
        self.nfs = {
            name: NFView(name=name, peak_rate_pps=rate) for name, rate in nfs.items()
        }

    def columns(self) -> TraceColumns:
        return columns_from_trace(self)

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
        return True

    def _restore_packet(
        self, pid, flow, source, emitted_ns, hops, dropped_at, dropped_ns, exited_ns
    ) -> None:
        """One snapshot packet, the way ``restore_builder_state`` rebuilt
        the object graph (views re-sorted: sorted inserts here)."""
        packet = PacketView(
            pid=pid, flow=FiveTuple(*flow), source=source, emitted_ns=emitted_ns
        )
        for nf, arrival_ns, read_ns, depart_ns in hops:
            packet.hops.append(
                PacketHop(nf=nf, arrival_ns=arrival_ns, read_ns=read_ns, depart_ns=depart_ns)
            )
        packet.dropped_at = dropped_at
        packet.dropped_ns = dropped_ns
        packet.exited_ns = exited_ns
        self.packets[packet.pid] = packet
        for hop in packet.hops:
            view = self.nfs[hop.nf]
            bisect.insort(view.arrivals, (hop.arrival_ns, packet.pid))
            bisect.insort(view.reads, (hop.read_ns, packet.pid))
            bisect.insort(view.departs, (hop.depart_ns, packet.pid))
        if packet.dropped_at is not None:
            bisect.insort(self.nfs[packet.dropped_at].drops, (packet.dropped_ns, packet.pid))

    def _queue_empty_cut(self, view: NFView, cut_ns: int) -> int:
        """Largest ``b <= cut_ns`` where ``view``'s queue is empty at ``b``."""
        b = cut_ns
        while b > 0:
            i = bisect.bisect_left(view.arrivals, (b, -1))
            j = bisect.bisect_left(view.reads, (b, -1))
            if i == j:
                return b
            b = view.arrivals[j][0]
        return 0

    def safe_cut(self, cut_ns: int) -> int:
        """Lower ``cut_ns`` until no NF has a busy period spanning it."""
        cut = cut_ns
        for view in self.nfs.values():
            if cut <= 0:
                return 0
            cut = self._queue_empty_cut(view, cut)
        return max(0, cut)

    def prune_before(self, cut_ns: int) -> Dict[str, int]:
        """Evict state the diagnosis of future chunks can never touch."""
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
        # Seal-cut health snapshots for chunks behind the cut can never
        # be diagnosed again (the cut trails the replay-retain boundary).
        for index in [k for k in self._chunk_health if k < cut // self.config.chunk_ns]:
            del self._chunk_health[index]
        return result


def packets_to_wire(trace) -> list:
    """The ``packets`` entry of a builder snapshot, from the object graph."""
    return [
        [
            packet.pid,
            [
                packet.flow.src_ip,
                packet.flow.dst_ip,
                packet.flow.src_port,
                packet.flow.dst_port,
                packet.flow.proto,
            ],
            packet.source,
            packet.emitted_ns,
            [[h.nf, h.arrival_ns, h.read_ns, h.depart_ns] for h in packet.hops],
            packet.dropped_at,
            packet.dropped_ns,
            packet.exited_ns,
        ]
        for packet in trace.packets.values()
    ]


def flow_counts_reference(self, pids: Sequence[int]) -> Dict[FiveTuple, int]:
    """Packets per flow among the ``pids`` the trace holds, keyed in
    first-occurrence order (what counting ``packet.flow`` over the
    pids in order gives)."""
    rows = self.rows_for_pids(pids)
    counts: Dict[Tuple[int, ...], int] = {}
    for key in map(tuple, self.pkt_flow[rows[rows >= 0]].tolist()):
        counts[key] = counts.get(key, 0) + 1
    return {self.flow(key): count for key, count in counts.items()}


@contextmanager
def counting_through() -> Iterator[None]:
    """Inside the block every ``TraceColumns.flow_counts`` is the tuple
    loop (``causal_relations``, ``ranked_entities`` and ``explain``
    with it)."""
    with mock.patch.object(TraceColumns, "flow_counts", flow_counts_reference):
        yield
