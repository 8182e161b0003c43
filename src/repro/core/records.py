"""Diagnosis trace model: what Microscope's offline stage works from.

A :class:`DiagTrace` is deliberately independent of how the data was
obtained — it can be built from simulator ground truth (oracle mode, used
to isolate diagnosis quality from reconstruction quality) or from the
compressed-record reconstruction (full pipeline, as deployed).

Per NF it stores time-sorted arrival/read/depart streams; per packet it
stores the flow, the source, and the hop timeline.  All diagnosis
algorithms consume only this model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

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
    """One packet's journey as seen by diagnosis."""

    pid: int
    flow: FiveTuple
    source: str
    emitted_ns: int
    hops: List[PacketHop] = field(default_factory=list)
    dropped_at: Optional[str] = None
    dropped_ns: int = -1
    exited_ns: int = -1
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

    @property
    def end_to_end_ns(self) -> int:
        if self.exited_ns < 0:
            raise TraceError(f"packet {self.pid} did not exit")
        return self.exited_ns - self.emitted_ns


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
            self._arrival_times = _np.fromiter(
                (t for t, _pid in self.arrivals),
                dtype=_np.int64,
                count=len(self.arrivals),
            )
        return self._arrival_times

    def read_times(self):
        """Cached int64 array of read timestamps."""
        if self._read_times is None or len(self._read_times) != len(self.reads):
            self._read_times = _np.fromiter(
                (t for t, _pid in self.reads),
                dtype=_np.int64,
                count=len(self.reads),
            )
        return self._read_times

    def arrival_pids(self):
        """Cached int64 array of arrival pids, aligned with arrival_times()."""
        if self._arrival_pids is None or len(self._arrival_pids) != len(
            self.arrivals
        ):
            self._arrival_pids = _np.fromiter(
                (pid for _t, pid in self.arrivals),
                dtype=_np.int64,
                count=len(self.arrivals),
            )
        return self._arrival_pids

    def read_pids(self):
        """Cached int64 array of read pids, aligned with read_times()."""
        if self._read_pids is None or len(self._read_pids) != len(self.reads):
            self._read_pids = _np.fromiter(
                (pid for _t, pid in self.reads),
                dtype=_np.int64,
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


class _ColumnsDelta:
    """Mutations of a trace since its cached columns were built."""

    __slots__ = ("touched", "evicted", "attributed")

    def __init__(self) -> None:
        #: Pids whose packet is new or changed.
        self.touched: Set[int] = set()
        #: Pids deleted from ``packets``.
        self.evicted: Set[int] = set()
        #: How many ``_mutations`` bumps the two sets account for.
        self.attributed = 0


class DiagTrace:
    """Everything the offline diagnosis consumes.

    ``telemetry`` is the health summary of a tolerant reconstruction pass
    (per-NF completeness, quarantined NFs, gap markers); ``None`` means
    strict mode — the trace is trusted completely and every diagnosis
    confidence is 1.0, bit-identical to the legacy pipeline.
    """

    def __init__(
        self,
        packets: Dict[int, PacketView],
        nfs: Dict[str, NFView],
        upstreams: Dict[str, Set[str]],
        sources: Set[str],
        nf_types: Optional[Dict[str, str]] = None,
        telemetry: Optional["TelemetryHealth"] = None,
    ) -> None:
        self.packets = packets
        self.nfs = nfs
        self.upstreams = upstreams
        self.sources = sources
        self.nf_types = nf_types or {}
        self.telemetry = telemetry
        # Columnar twin (repro.core.columnar.TraceColumns), built lazily on
        # first use and invalidated by the mutation counter — live ingest
        # (IncrementalTrace) bumps it on every applied record.
        self._columns_cache = None
        self._columns_built_at = -1
        self._mutations = 0
        for view in nfs.values():
            view.arrivals.sort()
            view.reads.sort()
            view.departs.sort()
            view.drops.sort()

    # -- columnar twin -------------------------------------------------------

    #: What changed since the cached columns were built, or None when
    #: that is unknown — no build yet, a bare ``_mark_mutated()``, a
    #: restore, an unpickle — and unknown always means a full
    #: ``from_trace`` rebuild.  Class-level default so traces built
    #: without ``__init__`` start unknown too.
    _delta: Optional[_ColumnsDelta] = None
    #: Packet rows the column builds carried over from the previous
    #: snapshot vs flattened from the object model (cumulative; in-memory
    #: diagnostics only — never journalled, checkpointed or pickled).
    columns_rows_reused = 0
    columns_rows_flattened = 0

    def _mark_mutated(self, pid: Optional[int] = None) -> None:
        """Record an in-place mutation so cached columns rebuild.

        With ``pid`` the next build re-flattens only from that packet's
        row on; without it the next build starts over.
        """
        self._mutations += 1
        delta = self._delta
        if pid is None:
            self._delta = None
        elif delta is not None:
            delta.touched.add(pid)
            delta.attributed += 1

    def _mark_evicted(self, pids: Set[int]) -> None:
        """Record that ``pids`` left ``packets`` (rows to mask, not rebuild)."""
        self._mutations += 1
        delta = self._delta
        if delta is not None:
            delta.evicted.update(pids)
            delta.attributed += 1

    def columns(self):
        """This trace's :class:`~repro.core.columnar.TraceColumns`.

        The build is cached; after mutations a fresh snapshot is built,
        incrementally from the previous one when every mutation since was
        attributed to a pid (see ``TraceColumns.advanced``).
        """
        if (
            self._columns_cache is None
            or self._columns_built_at != self._mutations
        ):
            from repro.core import columnar

            previous, delta = self._columns_cache, self._delta
            advanced = None
            if (
                previous is not None
                and delta is not None
                # Else a direct ``_mutations`` bump went past the tracker.
                and self._columns_built_at + delta.attributed == self._mutations
            ):
                advanced = columnar.TraceColumns.advanced(
                    previous, self, delta.touched, delta.evicted
                )
            if advanced is None:
                cols, reused = columnar.TraceColumns.from_trace(self), 0
            else:
                cols, reused = advanced
            self.columns_rows_reused += reused
            self.columns_rows_flattened += cols.n_packets - reused
            self._columns_cache = cols
            self._columns_built_at = self._mutations
            self._delta = _ColumnsDelta()
        return self._columns_cache

    def __getstate__(self):
        # Columns and the incremental bookkeeping are derived data; keep
        # pickles and deep copies (test twins) from shipping them — a copy
        # starts from a full build.
        state = self.__dict__.copy()
        state["_columns_cache"] = None
        state["_columns_built_at"] = -1
        for key in ("_delta", "columns_rows_reused", "columns_rows_flattened"):
            state.pop(key, None)
        return state

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_sim_result(cls, result, peak_rates: Optional[Dict[str, float]] = None) -> "DiagTrace":
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
        health: Optional["TelemetryHealth"] = None,
        tolerant: bool = False,
    ) -> "DiagTrace":
        """Full-pipeline mode: build from reconstructed packet journeys.

        Reconstructed packets get synthetic pids in exit order.  Packets
        whose chains broke during reconstruction are simply absent — the
        diagnosis degrades gracefully, which the ablation bench quantifies.

        ``tolerant=True`` skips hops at unknown NFs (corrupted telemetry
        can invent them) instead of raising, and ``health`` — the
        reconstructor's :class:`TelemetryHealth` — is attached as
        ``trace.telemetry`` so diagnosis can discount confidence.
        """
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
