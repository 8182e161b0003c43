"""Diagnosis trace model: what Microscope's offline stage works from.

A :class:`DiagTrace` is deliberately independent of how the data was
obtained — it can be built from simulator ground truth (oracle mode, used
to isolate diagnosis quality from reconstruction quality), from the
compressed-record reconstruction (full pipeline, as deployed), or grown
record by record from live telemetry
(:class:`~repro.ingest.incremental.IncrementalTrace`).

Whatever the source, the trace *is* its columns
(:class:`~repro.core.columnar.TraceColumns`: a packet table, a hop table
and per-NF time-sorted arrival/read/depart/drop streams) plus topology
metadata.  Every writer fills columns directly, and every diagnosis
algorithm reads them.  ``trace.nfs[name]`` (:class:`ColumnarNFView`) and
``trace.packets`` (:class:`PacketRows`) are views over the arrays; the
``(t, pid)`` tuple lists and the :class:`PacketView` rows they hand out
materialize on demand, for the readers that want objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.columnar import (
    CodeTable,
    NFColumns,
    TraceColumns,
    columns_of_journeys,
    flatten,
    flow_rows,
    hop_starts,
    times_pids,
)
from repro.errors import TraceError
from repro.nfv.packet import FiveTuple

if TYPE_CHECKING:  # avoid a runtime core -> collector import
    from repro.collector.health import TelemetryHealth


@dataclass(frozen=True)
class PacketHop:
    """One packet's timing at one NF."""

    nf: str
    arrival_ns: int
    read_ns: int
    depart_ns: int

    @property
    def queue_wait_ns(self) -> int:
        return self.read_ns - self.arrival_ns

    @property
    def latency_ns(self) -> int:
        return self.depart_ns - self.arrival_ns


@dataclass
class PacketView:
    """One packet's journey: a row of the packet table with its hops."""

    pid: int
    flow: FiveTuple
    source: str
    emitted_ns: int
    hops: List[PacketHop] = field(default_factory=list)
    dropped_at: Optional[str] = None
    dropped_ns: int = -1
    exited_ns: int = -1

    def hop_position(self, nf: str) -> Optional[int]:
        """Position of ``nf``'s first hop on this packet's path, or None."""
        for pos, hop in enumerate(self.hops):
            if hop.nf == nf:
                return pos
        return None

    def hop_at(self, nf: str) -> Optional[PacketHop]:
        pos = self.hop_position(nf)
        return None if pos is None else self.hops[pos]

    def hops_before(self, nf: str) -> List[PacketHop]:
        """Hops strictly upstream of ``nf`` on this packet's path."""
        pos = self.hop_position(nf)
        if pos is None:
            return list(self.hops)
        return self.hops[:pos]

    @property
    def end_to_end_ns(self) -> int:
        if self.exited_ns < 0:
            raise TraceError(f"packet {self.pid} did not exit")
        return self.exited_ns - self.emitted_ns


class ColumnarNFView:
    """One NF's event streams, backed by column arrays.

    The sorted ``(t, pid)`` tuple lists (``arrivals`` and friends)
    materialize on first touch — for object readers (the baselines,
    figures, test oracles); every diagnosis path reads the arrays.
    """

    def __init__(self, name: str, peak_rate_pps: float, cols: NFColumns) -> None:
        self.name = name
        self.peak_rate_pps = peak_rate_pps
        self._cols = cols
        self._lists: Dict[str, List[Tuple[int, int]]] = {}

    def _list(self, key: str, times, pids) -> List[Tuple[int, int]]:
        cached = self._lists.get(key)
        if cached is None:
            cached = list(zip(times.tolist(), pids.tolist()))
            self._lists[key] = cached
        return cached

    @property
    def arrivals(self) -> List[Tuple[int, int]]:
        return self._list("arrivals", self._cols.arr_t, self._cols.arr_pid)

    @property
    def reads(self) -> List[Tuple[int, int]]:
        return self._list("reads", self._cols.read_t, self._cols.read_pid)

    @property
    def departs(self) -> List[Tuple[int, int]]:
        return self._list("departs", self._cols.dep_t, self._cols.dep_pid)

    @property
    def drops(self) -> List[Tuple[int, int]]:
        return self._list("drops", self._cols.drop_t, self._cols.drop_pid)

    def arrival_times(self):
        return self._cols.arr_t

    def read_times(self):
        return self._cols.read_t

    def arrival_pids(self):
        return self._cols.arr_pid

    def read_pids(self):
        return self._cols.read_pid

    def arrival_time_at(self, idx: int) -> int:
        return int(self._cols.arr_t[idx])

    def reads_before(self, t_ns: int) -> int:
        """Number of reads strictly before ``t_ns``."""
        return int(self._cols.read_t.searchsorted(t_ns, side="left"))

    def last_depart_ns(self) -> Optional[int]:
        """Timestamp of the final depart here, or None with no departs."""
        if not len(self._cols.dep_t):
            return None
        return int(self._cols.dep_t[-1])

    def arrival_index_of(self, pid: int) -> Optional[int]:
        """Index of ``pid``'s first arrival here, or None if it never arrived."""
        hits = np.flatnonzero(self._cols.arr_pid == pid)
        return int(hits[0]) if len(hits) else None

    def arrival_index(self, pid: int, t_ns: int) -> int:
        """Index of ``(t_ns, pid)`` in the arrival stream (array bisect)."""
        arr_t = self._cols.arr_t
        arr_pid = self._cols.arr_pid
        idx = int(arr_t.searchsorted(t_ns, side="left"))
        while idx < len(arr_t) and arr_t[idx] == t_ns:
            if int(arr_pid[idx]) == pid:
                return idx
            idx += 1
        raise TraceError(f"packet {pid} has no arrival at {self.name} t={t_ns}")

    def arrival_indexes(self, pids, times):
        """:meth:`arrival_index` of many ``(pid, t)`` pairs (int64 arrays),
        in one ``searchsorted``; only pairs behind a timestamp tie take the
        scalar walk.  Raises TraceError like the scalar call."""
        arr_t = self._cols.arr_t
        idx = arr_t.searchsorted(times, side="left")
        at = np.minimum(idx, max(0, len(arr_t) - 1))
        exact = (idx < len(arr_t)) & (arr_t[at] == times) & (
            self._cols.arr_pid[at] == pids
        )
        for i in np.flatnonzero(~exact).tolist():
            idx[i] = self.arrival_index(int(pids[i]), int(times[i]))
        return idx


#: Rows materialized per block when iterating :class:`PacketRows`.
_BLOCK = 1024


class PacketRows:
    """Dict-like ``pid -> PacketView`` view over a trace's packet table.

    Rows are built on access and not kept: iterating ``values()`` holds
    one block of them at a time.
    """

    def __init__(self, cols: TraceColumns) -> None:
        self._cols = cols
        self._index: Optional[Dict[int, int]] = None

    def _row(self, pid) -> int:
        if self._index is None:
            self._index = {
                pid: row for row, pid in enumerate(self._cols.pkt_pid.tolist())
            }
        return self._index.get(pid, -1)

    def _materialize(self, lo: int, hi: int) -> List[PacketView]:
        """Rows ``[lo, hi)`` as :class:`PacketView` objects."""
        cols = self._cols
        start, end = int(cols.hop_start[lo]), int(cols.hop_start[hi])
        names = cols.nf_names
        hops = list(
            map(
                PacketHop,
                [names[code] for code in cols.hop_nf[start:end].tolist()],
                cols.hop_arrival[start:end].tolist(),
                cols.hop_read[start:end].tolist(),
                cols.hop_depart[start:end].tolist(),
            )
        )
        bounds = (cols.hop_start[lo : hi + 1] - start).tolist()
        sources = cols.source_names
        return [
            PacketView(
                pid=pid,
                flow=cols.flow(tuple(flow)),
                source=sources[source],
                emitted_ns=emitted,
                hops=hops[bounds[i] : bounds[i + 1]],
                dropped_at=None if dropped_nf < 0 else names[dropped_nf],
                dropped_ns=dropped_ns,
                exited_ns=exited,
            )
            for i, (pid, flow, source, emitted, dropped_nf, dropped_ns, exited) in enumerate(
                zip(
                    cols.pkt_pid[lo:hi].tolist(),
                    cols.pkt_flow[lo:hi].tolist(),
                    cols.pkt_source[lo:hi].tolist(),
                    cols.pkt_emitted[lo:hi].tolist(),
                    cols.pkt_dropped_nf[lo:hi].tolist(),
                    cols.pkt_dropped_ns[lo:hi].tolist(),
                    cols.pkt_exited[lo:hi].tolist(),
                )
            )
        ]

    def __getitem__(self, pid: int) -> PacketView:
        row = self._row(pid)
        if row < 0:
            raise KeyError(pid)
        return self._materialize(row, row + 1)[0]

    def get(self, pid: int, default=None):
        return self[pid] if pid in self else default

    def __contains__(self, pid) -> bool:
        return self._row(pid) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._cols.pkt_pid.tolist())

    def __len__(self) -> int:
        return self._cols.n_packets

    def values(self) -> "_PacketValues":
        return _PacketValues(self)

    def items(self) -> Iterator[Tuple[int, PacketView]]:
        return ((packet.pid, packet) for packet in self.values())


class _PacketValues:
    """``PacketRows.values()``: sized, re-iterable, built block by block."""

    def __init__(self, rows: PacketRows) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[PacketView]:
        n = len(self._rows)
        for lo in range(0, n, _BLOCK):
            yield from self._rows._materialize(lo, min(n, lo + _BLOCK))


def _stream_columns(view) -> NFColumns:
    """A hand-built NF view's streams: an array-backed view's own arrays,
    else its ``(t, pid)`` lists, sorted."""
    if isinstance(view, ColumnarNFView):
        return view._cols
    return NFColumns(
        *times_pids(sorted(view.arrivals)),
        *times_pids(sorted(view.reads)),
        *times_pids(sorted(view.departs)),
        *times_pids(sorted(view.drops)),
    )


class DiagTrace:
    """Everything the offline diagnosis consumes: columns plus topology.

    ``telemetry`` is the health summary of a tolerant reconstruction pass
    (per-NF completeness, quarantined NFs, gap markers); ``None`` means
    strict mode — the trace is trusted completely and every diagnosis
    confidence is 1.0, bit-identical to the legacy pipeline.

    ``DiagTrace(packets, nfs, upstreams, sources, …)`` builds one by hand:
    ``packets`` maps pids to :class:`PacketView`-shaped rows and ``nfs``
    maps NF names to views with ``peak_rate_pps`` and ``(t, pid)`` lists
    (or array-backed :class:`ColumnarNFView`\\ s of another trace); both
    are flattened once into columns and not kept.
    """

    #: Shared-memory mapping an attached trace's arrays live in.
    _shm = None
    #: ``(columns, nfs, packets)``: the views over the latest columns.
    _views = None

    def __init__(
        self,
        packets: Dict[int, PacketView],
        nfs: Dict[str, object],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        telemetry: Optional["TelemetryHealth"] = None,
    ) -> None:
        nf_code = CodeTable(sorted(nfs))
        source_code = CodeTable(sorted(sources))
        rows = list(packets.values())
        pkt, hop_counts, hop = flatten(
            rows, list(map(attrgetter("hops"), rows)), nf_code, source_code
        )
        streams: List[NFColumns] = []
        peak_rates: List[float] = []
        for name in nf_code.names:
            view = nfs.get(name)
            if view is None:  # an unknown-NF hop: no event streams exist
                empty = np.empty(0, dtype=np.int64)
                streams.append(NFColumns(*([empty] * 8)))
                peak_rates.append(0.0)
                continue
            streams.append(_stream_columns(view))
            peak_rates.append(view.peak_rate_pps)
        cols = TraceColumns(
            nf_code.names, source_code.names, peak_rates,
            **pkt, hop_start=hop_starts(hop_counts), **hop, streams=streams,
        )
        self._adopt(cols, list(nfs), upstreams, sources, nf_types, telemetry)

    def _adopt(self, cols, view_names, upstreams, sources, nf_types, telemetry) -> None:
        self._cols = cols
        #: NF names ``nfs`` lists, in the order the trace was built with.
        self._view_names: List[str] = list(view_names)
        self.upstreams = upstreams
        self.sources = sources
        self.nf_types = nf_types or {}
        self.telemetry = telemetry
        #: Generation counter: bumped by every change of a growing trace
        #: (shared-memory segments are keyed on it).
        self._mutations = 0

    @classmethod
    def from_columns(
        cls,
        cols: TraceColumns,
        view_names: Sequence[str],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        telemetry: Optional["TelemetryHealth"] = None,
    ) -> "DiagTrace":
        """A trace over ready-made columns (``view_names`` lists the NFs
        with event streams, in ``nfs`` order)."""
        trace = cls.__new__(cls)
        trace._adopt(cols, view_names, upstreams, sources, nf_types, telemetry)
        return trace

    # -- columns and views ------------------------------------------------------

    def columns(self) -> TraceColumns:
        """This trace's :class:`~repro.core.columnar.TraceColumns`."""
        return self._cols

    def _current_views(self):
        cols = self.columns()
        views = self._views
        if views is None or views[0] is not cols:
            nfs = {
                name: ColumnarNFView(
                    name, cols.peak_rates[cols.nf_code[name]],
                    cols.streams[cols.nf_code[name]],
                )
                for name in self._view_names
            }
            views = self._views = (cols, nfs, PacketRows(cols))
        return views

    @property
    def nfs(self) -> Dict[str, ColumnarNFView]:
        """Per-NF event streams, in build order."""
        return self._current_views()[1]

    @property
    def packets(self) -> PacketRows:
        """``pid -> PacketView``, rows materialized on access."""
        return self._current_views()[2]

    def last_event_ns(self) -> int:
        """Time of the last departure or drop — the last possible victim
        (0 for an empty trace): where the trace ends for chunking."""
        cols = self.columns()
        latest = 0
        for name in self._view_names:
            stream = cols.streams[cols.nf_code[name]]
            for times in (stream.dep_t, stream.drop_t):
                if len(times):
                    latest = max(latest, int(times[-1]))
        return latest

    def __getstate__(self):
        # Views and a shared-memory mapping are per-process; a copy gets
        # fresh views over its own columns.
        state = self.__dict__.copy()
        state.pop("_views", None)
        state.pop("_shm", None)
        return state

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_sim_result(cls, result, peak_rates: Optional[Dict[str, float]] = None) -> "DiagTrace":
        """Oracle mode: build directly from simulator ground truth."""
        topology = result.topology
        rates = dict(topology.peak_rates_pps())
        if peak_rates:
            rates.update(peak_rates)
        for name in topology.nfs:
            if name not in rates:
                raise TraceError(f"no peak rate known for NF {name!r}")
        journeys = result.trace.packets
        packets = list(journeys.values())
        nf_code = CodeTable(sorted(topology.nfs))
        source_code = CodeTable(sorted(topology.sources))
        pkt, hop_counts, hop = flatten(
            packets, [_finished_hops(p.hops) for p in packets], nf_code,
            source_code, pids=journeys.keys(), arrival="enqueue_ns",
        )
        return cls.from_columns(
            columns_of_journeys(nf_code, source_code, rates, pkt, hop_counts, hop),
            list(topology.nfs),
            {name: topology.predecessors(name) for name in topology.nfs},
            set(topology.sources),
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
        health: Optional["TelemetryHealth"] = None,
        tolerant: bool = False,
    ) -> "DiagTrace":
        """Full-pipeline mode: build from reconstructed packet journeys.

        Reconstructed packets get synthetic pids in exit order.  Packets
        whose chains broke during reconstruction are simply absent — the
        diagnosis degrades gracefully, which the ablation bench quantifies.

        ``reconstructed`` is the reconstructor's
        :class:`~repro.collector.reconstruct.ReconstructedPackets`, whose
        columns are adopted as they are, or any sequence of packet-shaped
        objects, flattened once.  ``tolerant=True`` skips hops at unknown
        NFs (corrupted telemetry can invent them) instead of raising, and
        ``health`` — the reconstructor's :class:`TelemetryHealth` — is
        attached as ``trace.telemetry`` so diagnosis can discount
        confidence.
        """
        # The collector builds on the core; import its view at call time.
        from repro.collector.reconstruct import ReconstructedPackets

        packets = ReconstructedPackets.of(reconstructed)
        n = len(packets)
        nf_code = CodeTable(sorted(peak_rates))
        to_trace = np.array([nf_code.get(name, -1) for name in packets.nf_names], np.int32)
        hop_nf = to_trace[packets.hop_nf]
        hop_counts = np.diff(packets.hop_start)
        hop_times = (packets.hop_arrival, packets.hop_read, packets.hop_depart)
        unknown = hop_nf < 0
        if unknown.any():
            if not tolerant:
                name = packets.nf_names[packets.hop_nf[np.argmax(unknown)]]
                raise TraceError(f"reconstructed hop at unknown NF {name!r}")
            known = ~unknown
            hop_counts = np.bincount(
                np.repeat(np.arange(n), hop_counts)[known], minlength=n
            ).astype(np.int64)
            hop_nf = hop_nf[known]
            hop_times = tuple(times[known] for times in hop_times)
        source_code = CodeTable(sorted(sources))
        # Sources outside ``sources`` take the next codes in packet order.
        _codes, first = np.unique(packets.source, return_index=True)
        for code in packets.source[np.sort(first)].tolist():
            source_code[packets.source_names[code]]
        to_source = np.array(
            [source_code.get(name, -1) for name in packets.source_names], np.int32
        )
        pkt = {
            "pkt_pid": np.arange(n, dtype=np.int64),
            "pkt_emitted": packets.emitted,
            "pkt_exited": packets.exited,
            "pkt_dropped_ns": np.full(n, -1, np.int64),
            "pkt_dropped_nf": np.full(n, -1, np.int32),
            "pkt_source": to_source[packets.source],
            "pkt_flow": flow_rows(packets.flows),
        }
        hop = dict(zip(("hop_arrival", "hop_read", "hop_depart"), hop_times), hop_nf=hop_nf)
        return cls.from_columns(
            columns_of_journeys(nf_code, source_code, peak_rates, pkt, hop_counts, hop),
            list(peak_rates),
            upstreams,
            sources,
            nf_types=nf_types,
            telemetry=health,
        )


def _finished_hops(hops):
    """A simulated packet's hops minus any still queued or in flight at
    the end of the run (the list itself when none is)."""
    for hop in hops:
        if hop.read_ns < 0 or hop.depart_ns < 0:
            return [h for h in hops if h.read_ns >= 0 and h.depart_ns >= 0]
    return hops
