"""Columnar trace layout: the one stored form of a trace.

A :class:`TraceColumns` is a trace: packet hops, arrivals, drops and exit
records as flat numpy arrays.  :class:`~repro.core.records.DiagTrace`
holds one plus topology metadata, and every code path reads it:

* victim selection scans the hop table with one boolean mask,
* the queuing analyzer's PreSet extraction slices a pid column,
* :class:`ColumnarPathDecomposition` answers propagation prefix queries
  from cumulative min/max arrays extended in batch,
* ``diagnose_all`` resolves the whole depth-0 recursion frontier — every
  victim's queuing period — in one vectorized pass, and
* pooled ``diagnose_all`` ships the columns through a POSIX
  shared-memory block: workers *attach* by name (:func:`attach_trace`)
  instead of receiving a pickled trace, so the per-task dispatch payload
  shrinks to two block names.

Layout
------

Packet table (one row per packet, in emit order): ``pkt_pid``,
``pkt_emitted``, ``pkt_exited``, ``pkt_dropped_ns`` (−1),
``pkt_dropped_nf`` (code, −1), ``pkt_source`` (code), ``pkt_flow`` (n×5
five-tuple ints) and the CSR offsets ``hop_start`` (length n+1).  Hop
table (packet-major, each packet's hops in path order): ``hop_nf``
(code), ``hop_arrival``, ``hop_read``, ``hop_depart``.  Per-NF event
streams are parallel time/pid arrays sorted by ``(t, pid)``.

Writers
-------

Nothing builds per-hop Python objects on the way in.  The offline
constructors (``DiagTrace.from_sim_result`` / ``from_reconstruction`` /
the hand-built ``DiagTrace(packets, nfs, …)``) flatten their inputs once
with :func:`flatten` — C-level ``fromiter`` passes — and the first two
derive the event streams from the hop table (:func:`derive_streams`;
the hand-built one takes them from its NF views as given); a live
:class:`~repro.ingest.incremental.IncrementalTrace` appends records to
growable buffers and snapshots them into a fresh ``TraceColumns`` per
change.  Object views of a trace (``trace.packets``, ``trace.nfs[name]
.arrivals``) materialize lazily from the arrays, for the readers that
want objects (``explain``, the baselines, figures); no production path
does.

Contract
--------

Every vectorized path computes the same integers and IEEE-754 doubles in
the same order as the object walk it replaced; those walks live on as
test oracles (``tests/oracles/``), the object trace builder included
(``tests/oracles/trace.py``), and the property tests pin the columns and
the diagnosis output bit-identical to them.
"""

from __future__ import annotations

import itertools
import pickle
import struct
import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.nfv.packet import FiveTuple

if TYPE_CHECKING:  # records imports this module
    from repro.core.records import DiagTrace

try:  # pragma: no cover - stdlib, but gate for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


#: Victim ``kind`` codes used by the shared-memory victim table.
KIND_NAMES: Tuple[str, ...] = ("latency", "drop", "throughput")
KIND_CODES: Dict[str, int] = {name: i for i, name in enumerate(KIND_NAMES)}

_ALIGN = 64  # array alignment inside shared blocks
_HEADER = struct.Struct("<Q")  # manifest length prefix


class NFColumns:
    """One NF's sorted event streams as parallel time/pid arrays."""

    __slots__ = (
        "arr_t", "arr_pid", "read_t", "read_pid",
        "dep_t", "dep_pid", "drop_t", "drop_pid",
    )

    def __init__(self, arr_t, arr_pid, read_t, read_pid, dep_t, dep_pid,
                 drop_t, drop_pid) -> None:
        self.arr_t = arr_t
        self.arr_pid = arr_pid
        self.read_t = read_t
        self.read_pid = read_pid
        self.dep_t = dep_t
        self.dep_pid = dep_pid
        self.drop_t = drop_t
        self.drop_pid = drop_pid


def times_pids(stream: Sequence[Tuple[int, int]]):
    """``(times, pids)`` int64 arrays of a ``(t, pid)`` list."""
    n = len(stream)
    times = np.fromiter((t for t, _pid in stream), dtype=np.int64, count=n)
    pids = np.fromiter((pid for _t, pid in stream), dtype=np.int64, count=n)
    return times, pids


class CodeTable(dict):
    """Name -> code.  A name outside the table (hand-built traces may hop
    through unknown NFs) gets the next code on first lookup."""

    def __init__(self, names: List[str]) -> None:
        super().__init__((name, code) for code, name in enumerate(names))
        self.names = names

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


_FLOW_FIELDS = attrgetter(
    "flow.src_ip", "flow.dst_ip", "flow.src_port", "flow.dst_port", "flow.proto"
)


def flatten(packets: Sequence[object], hop_lists: Sequence[Sequence[object]],
            nf_code: CodeTable, source_code: CodeTable, pids=None,
            arrival: str = "arrival_ns", drops: bool = True):
    """``(packet columns, hops per packet, hop columns)`` of ``packets``.

    ``hop_lists[i]`` are packet ``i``'s hops (objects with ``nf``,
    ``arrival``, ``read_ns`` and ``depart_ns``); ``pids`` defaults to each
    packet's ``pid`` and ``drops=False`` ignores ``dropped_at`` (no drop
    records).  Every column is one ``fromiter`` pass; the getters run at
    C level where they can, and no per-hop object is allocated.
    """
    n = len(packets)

    def per_packet(field: str):
        return np.fromiter(map(attrgetter(field), packets), np.int64, count=n)

    pkt = {
        "pkt_pid": (
            per_packet("pid") if pids is None
            else np.fromiter(pids, np.int64, count=n)
        ),
        "pkt_emitted": per_packet("emitted_ns"),
        "pkt_exited": per_packet("exited_ns"),
        "pkt_dropped_ns": (
            per_packet("dropped_ns") if drops else np.full(n, -1, np.int64)
        ),
        "pkt_dropped_nf": (
            np.fromiter(
                (-1 if p.dropped_at is None else nf_code[p.dropped_at] for p in packets),
                np.int32,
                count=n,
            )
            if drops else np.full(n, -1, np.int32)
        ),
        "pkt_source": np.fromiter(
            map(source_code.__getitem__, map(attrgetter("source"), packets)),
            np.int32,
            count=n,
        ),
        "pkt_flow": np.fromiter(
            itertools.chain.from_iterable(map(_FLOW_FIELDS, packets)),
            np.int64,
            count=5 * n,
        ).reshape(n, 5),
    }
    hop_counts = np.fromiter(map(len, hop_lists), np.int64, count=n)
    total = int(hop_counts.sum())

    def per_hop(field: str):
        return map(attrgetter(field), itertools.chain.from_iterable(hop_lists))

    hop = {
        "hop_nf": np.fromiter(
            map(nf_code.__getitem__, per_hop("nf")), np.int32, count=total
        ),
        "hop_arrival": np.fromiter(per_hop(arrival), np.int64, count=total),
        "hop_read": np.fromiter(per_hop("read_ns"), np.int64, count=total),
        "hop_depart": np.fromiter(per_hop("depart_ns"), np.int64, count=total),
    }
    return pkt, hop_counts, hop


_FIVE_TUPLE = attrgetter("src_ip", "dst_ip", "src_port", "dst_port", "proto")


def flow_rows(flows: Sequence[object]):
    """``(n, 5)`` int64 five-tuple rows of ``flows``, each distinct flow
    object's fields read once."""
    distinct = {id(flow): flow for flow in flows}
    code = {key: row for row, key in enumerate(distinct)}
    table = np.fromiter(
        itertools.chain.from_iterable(map(_FIVE_TUPLE, distinct.values())),
        np.int64,
        count=5 * len(distinct),
    ).reshape(len(distinct), 5)
    return table[np.fromiter(map(code.__getitem__, map(id, flows)), np.int64, count=len(flows))]


def hop_starts(hop_counts):
    """CSR offsets (length n+1) from per-packet hop counts."""
    hop_start = np.zeros(len(hop_counts) + 1, dtype=np.int64)
    np.cumsum(hop_counts, out=hop_start[1:])
    return hop_start


def derive_streams(n_nf: int, hop_nf, hop_pid, hop_times, drop_nf, drop_pid,
                   drop_t) -> List[NFColumns]:
    """Per-NF sorted event streams: one arrival/read/depart entry per hop
    (``hop_times`` = the three time columns) and one drop entry per drop
    record, each stream sorted by ``(t, pid)`` — what sorting per-NF
    ``(t, pid)`` tuple lists holding exactly those entries gives, ties
    being identical."""
    drops = _sorted_by_nf(n_nf, drop_nf, drop_pid, [drop_t])
    hops = _sorted_by_nf(n_nf, hop_nf, hop_pid, hop_times)
    return [
        NFColumns(*(column for pair in nf_hops for column in pair), *nf_drops[0])
        for nf_hops, nf_drops in zip(hops, drops)
    ]


def _sorted_by_nf(n_nf: int, nf, pid, time_columns):
    """Per NF code, ``(times, pids)`` sorted by ``(t, pid)`` for each of
    ``time_columns`` (events ``i`` happened at NF ``nf[i]`` to ``pid[i]``)."""
    # Put the events in pid order once (they usually are already); the
    # stable sorts below then break (nf, t) ties by pid without a third
    # key per column.
    by_pid = None
    if len(pid) > 1 and (pid[1:] < pid[:-1]).any():
        by_pid = np.argsort(pid, kind="stable")
        pid, nf = pid[by_pid], nf[by_pid]
    # 16-bit keys sort by radix, and NF codes are small.
    nf = nf.astype(np.int16 if n_nf <= 0x7FFF else np.int32)
    bounds = np.zeros(n_nf + 1, dtype=np.int64)
    np.cumsum(np.bincount(nf, minlength=n_nf), out=bounds[1:])
    bounds = bounds.tolist()
    per_nf = [[] for _ in range(n_nf)]
    for times in time_columns:
        if by_pid is not None:
            times = times[by_pid]
        order = np.lexsort((times, nf))
        times, pids = times[order], pid[order]
        for code, pairs in enumerate(per_nf):
            lo, hi = bounds[code], bounds[code + 1]
            pairs.append((times[lo:hi], pids[lo:hi]))
    return per_nf


def columns_of_journeys(nf_code: CodeTable, source_code: CodeTable,
                        peak_rates: Dict[str, float], pkt, hop_counts,
                        hop) -> "TraceColumns":
    """Columns of flattened journeys whose NF streams hold exactly one
    entry per hop and per dropped packet (the simulator and the
    reconstructor), derived from the hop and packet tables."""
    hop_start = hop_starts(hop_counts)
    pkt_pid = pkt["pkt_pid"]
    dropped = np.flatnonzero(pkt["pkt_dropped_nf"] >= 0)
    streams = derive_streams(
        len(nf_code.names), hop["hop_nf"], np.repeat(pkt_pid, hop_counts),
        [hop["hop_arrival"], hop["hop_read"], hop["hop_depart"]],
        pkt["pkt_dropped_nf"][dropped], pkt_pid[dropped],
        pkt["pkt_dropped_ns"][dropped],
    )
    return TraceColumns(
        nf_code.names, source_code.names,
        [peak_rates.get(name, 0.0) for name in nf_code.names],
        **pkt, hop_start=hop_start, **hop, streams=streams,
    )


class TraceColumns:
    """Columnar arrays for one trace; see the module docstring for layout."""

    def __init__(
        self,
        nf_names: List[str],
        source_names: List[str],
        peak_rates: List[float],
        pkt_pid, pkt_emitted, pkt_exited, pkt_dropped_ns, pkt_dropped_nf,
        pkt_source, pkt_flow, hop_start,
        hop_nf, hop_arrival, hop_read, hop_depart,
        streams: List[NFColumns],
    ) -> None:
        self.nf_names = list(nf_names)
        self.nf_code = {name: i for i, name in enumerate(self.nf_names)}
        self.source_names = list(source_names)
        self.source_code = {name: i for i, name in enumerate(self.source_names)}
        self.peak_rates = list(peak_rates)
        self.pkt_pid = pkt_pid
        self.pkt_emitted = pkt_emitted
        self.pkt_exited = pkt_exited
        self.pkt_dropped_ns = pkt_dropped_ns
        self.pkt_dropped_nf = pkt_dropped_nf
        self.pkt_source = pkt_source
        self.pkt_flow = pkt_flow
        self.hop_start = hop_start
        self.hop_nf = hop_nf
        self.hop_arrival = hop_arrival
        self.hop_read = hop_read
        self.hop_depart = hop_depart
        self.streams = streams
        # pid -> row lookup (pids may arrive out of order in live ingest).
        self._pid_order = np.argsort(pkt_pid, kind="stable")
        self._pid_sorted = pkt_pid[self._pid_order]
        self._first_pos: Dict[int, object] = {}
        self._flows: Dict[Tuple[int, ...], FiveTuple] = {}
        # Per packet row, a code per distinct ``pkt_flow`` row, the
        # distinct rows, and each code's FiveTuple; built on first use and,
        # like ``_flows``, lookup caches that are never pickled.
        self._flow_code = None
        self._flow_keys = None
        self._code_flows: List[FiveTuple] = []
        # Lexicographic (value, pid) pairs are packed into one int64 for
        # vectorized prefix mins; fall back to object tuples when the
        # trace's timestamps are too large to pack (never in practice).
        max_pid = int(self._pid_sorted[-1]) if len(self._pid_sorted) else 0
        self.pid_bits = max(1, max_pid.bit_length())
        max_t = int(self.hop_arrival.max()) if len(self.hop_arrival) else 0
        self.enc_ok = self.pid_bits < 62 and max_t < (1 << (62 - self.pid_bits))

    # -- shape ----------------------------------------------------------------

    @property
    def n_packets(self) -> int:
        return len(self.pkt_pid)

    @property
    def n_hops(self) -> int:
        return len(self.hop_nf)

    @property
    def nbytes(self) -> int:
        """Total column bytes (the shared block is this plus a manifest)."""
        total = 0
        for _key, array in self._arrays().items():
            total += array.nbytes
        return total

    # -- lookups --------------------------------------------------------------

    def rows_for_pids(self, pids: Sequence[int]):
        """Packet-table rows for ``pids`` (−1 where a pid is absent)."""
        query = np.asarray(pids, dtype=np.int64)
        if len(self._pid_sorted) == 0:
            return np.full(len(query), -1, dtype=np.int64)
        pos = self._pid_sorted.searchsorted(query)
        pos = np.minimum(pos, len(self._pid_sorted) - 1)
        found = self._pid_sorted[pos] == query
        return np.where(found, self._pid_order[pos], -1)

    def first_hop_pos(self, nf_code: int):
        """Per packet row: absolute hop index of the first hop at ``nf_code``
        (−1 when the packet never visits that NF).  Cached per NF — this is
        the vectorized twin of ``PacketView.hop_position``."""
        cached = self._first_pos.get(nf_code)
        if cached is None:
            first = np.full(self.n_packets, -1, dtype=np.int64)
            idx = np.flatnonzero(self.hop_nf == nf_code)
            if len(idx):
                owner = np.searchsorted(self.hop_start, idx, side="right") - 1
                owners, first_idx = np.unique(owner, return_index=True)
                first[owners] = idx[first_idx]
            self._first_pos[nf_code] = cached = first
        return cached

    def earliest_emit(self, pids: Sequence[int]) -> Optional[int]:
        """``min(emitted_ns)`` over the pids present in the trace, or None."""
        rows = self.rows_for_pids(list(pids))
        rows = rows[rows >= 0]
        if not len(rows):
            return None
        return int(self.pkt_emitted[rows].min())

    def first_preset_arrival(
        self, nf_code: int, pids: Sequence[int]
    ) -> Optional[Tuple[int, int]]:
        """Earliest ``(pid, arrival_ns)`` among ``pids`` at ``nf_code``.

        Ties keep the first pid in ``pids`` order, exactly like the scan in
        ``MicroscopeEngine._first_preset_arrival`` (``argmin`` returns the
        first minimum in array order, which is input order here).
        """
        pid_list = list(pids)
        rows = self.rows_for_pids(pid_list)
        first = self.first_hop_pos(nf_code)
        valid = rows >= 0
        pos = np.where(valid, first[np.maximum(rows, 0)], -1)
        valid &= pos >= 0
        if not valid.any():
            return None
        arrivals = self.hop_arrival[pos[valid]]
        pid_arr = np.asarray(pid_list, dtype=np.int64)[valid]
        best = int(np.argmin(arrivals))
        return int(pid_arr[best]), int(arrivals[best])

    def latency_victims_over(
        self, threshold_ns: int, nf_code: Optional[int] = None
    ) -> Tuple[object, object, object, object]:
        """``(pids, nf_codes, arrivals, latencies)`` of hops at or over the
        threshold, in packet-major hop order (== the object-walk order)."""
        latency = self.hop_depart - self.hop_arrival
        mask = latency >= threshold_ns
        if nf_code is not None:
            mask &= self.hop_nf == nf_code
        idx = np.flatnonzero(mask)
        owner = np.searchsorted(self.hop_start, idx, side="right") - 1
        return (
            self.pkt_pid[owner], self.hop_nf[idx],
            self.hop_arrival[idx], latency[idx],
        )

    def drop_rows(self):
        """Packet rows with a drop record, in packet row order."""
        return np.flatnonzero(self.pkt_dropped_nf >= 0)

    def flow(self, key: Tuple[int, ...]) -> FiveTuple:
        """The :class:`FiveTuple` of one ``pkt_flow`` row, built once."""
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = FiveTuple(*key)
        return flow

    def flow_of(self, pid: int) -> Optional[FiveTuple]:
        """``pid``'s flow, or None when the trace lacks the packet."""
        row = int(self.rows_for_pids([pid])[0])
        return None if row < 0 else self.flow(tuple(self.pkt_flow[row].tolist()))

    def flow_codes(self):
        """``(code, keys)``: per packet row a code per distinct ``pkt_flow``
        row, and the distinct rows (``keys[code]`` is a row's five fields)."""
        if self._flow_code is None:
            keys, code = np.unique(self.pkt_flow, axis=0, return_inverse=True)
            self._flow_code = code.reshape(-1)
            self._flow_keys = keys
        return self._flow_code, self._flow_keys

    def flow_counts(self, pids: Sequence[int]) -> Dict[FiveTuple, int]:
        """Packets per flow among the ``pids`` the trace holds, keyed in
        first-occurrence order (what counting ``packet.flow`` over the
        pids in order gives)."""
        flow_code, keys = self.flow_codes()
        if not self._code_flows:
            self._code_flows = [self.flow(tuple(key)) for key in keys.tolist()]
        rows = self.rows_for_pids(pids)
        codes, first, counts = np.unique(
            flow_code[rows[rows >= 0]], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        flows = self._code_flows
        return {
            flows[code]: count
            for code, count in zip(codes[order].tolist(), counts[order].tolist())
        }

    # -- shared-memory codec --------------------------------------------------

    def _arrays(self) -> Dict[str, object]:
        arrays = {
            "pkt_pid": self.pkt_pid,
            "pkt_emitted": self.pkt_emitted,
            "pkt_exited": self.pkt_exited,
            "pkt_dropped_ns": self.pkt_dropped_ns,
            "pkt_dropped_nf": self.pkt_dropped_nf,
            "pkt_source": self.pkt_source,
            "pkt_flow": self.pkt_flow,
            "hop_start": self.hop_start,
            "hop_nf": self.hop_nf,
            "hop_arrival": self.hop_arrival,
            "hop_read": self.hop_read,
            "hop_depart": self.hop_depart,
        }
        for i, stream in enumerate(self.streams):
            for slot in NFColumns.__slots__:
                arrays[f"nf{i}/{slot}"] = getattr(stream, slot)
        return arrays

    def __reduce__(self):
        # Pickles (and deep copies) carry the arrays and name tables only;
        # lookup caches rebuild on the other side.
        meta = {
            "nf_names": self.nf_names,
            "source_names": self.source_names,
            "peak_rates": self.peak_rates,
        }
        return TraceColumns.from_arrays, (self._arrays(), meta)

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, object], meta: dict
    ) -> "TraceColumns":
        nf_names = meta["nf_names"]
        streams = [
            NFColumns(*(arrays[f"nf{i}/{slot}"] for slot in NFColumns.__slots__))
            for i in range(len(nf_names))
        ]
        return cls(
            nf_names, meta["source_names"], meta["peak_rates"],
            arrays["pkt_pid"], arrays["pkt_emitted"], arrays["pkt_exited"],
            arrays["pkt_dropped_ns"], arrays["pkt_dropped_nf"],
            arrays["pkt_source"], arrays["pkt_flow"], arrays["hop_start"],
            arrays["hop_nf"], arrays["hop_arrival"], arrays["hop_read"],
            arrays["hop_depart"],
            streams,
        )


# -- shared-memory blocks ------------------------------------------------------


def _pack_block(arrays: Dict[str, object], meta: dict):
    """Create a shared-memory block holding ``meta`` plus ``arrays``.

    Layout: ``<u64 manifest length><pickled (meta, specs)><aligned arrays>``
    where specs lists ``(key, dtype, shape, offset)``.  Returns the open
    :class:`SharedMemory`; the caller owns close/unlink.
    """
    if _shared_memory is None:  # pragma: no cover - stdlib always has it
        raise TraceError("multiprocessing.shared_memory is unavailable")
    # Offsets live inside the pickled manifest, so size it in two passes: a
    # probe pickle with zero offsets plus generous slack fixes the data
    # base, then the real offsets are pickled into that reserved region.
    probe = pickle.dumps(
        (meta, [(key, a.dtype.str, a.shape, 0) for key, a in arrays.items()])
    )
    data_base = (
        (_HEADER.size + len(probe) + 4096 + _ALIGN - 1) // _ALIGN * _ALIGN
    )
    specs = []
    offset = data_base
    for key, array in arrays.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append((key, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    manifest = pickle.dumps((meta, specs))
    if _HEADER.size + len(manifest) > data_base:  # pragma: no cover
        raise TraceError("shared-block manifest exceeded its reserved region")
    shm = _shared_memory.SharedMemory(create=True, size=max(1, offset))
    try:
        shm.buf[: _HEADER.size] = _HEADER.pack(len(manifest))
        shm.buf[_HEADER.size : _HEADER.size + len(manifest)] = manifest
        for (key, _dtype, _shape, off), array in zip(specs, arrays.values()):
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=off)
            view[...] = array
        return shm
    except BaseException:
        shm.close()
        shm.unlink()
        raise


def _unpack_block(shm) -> Tuple[Dict[str, object], dict]:
    (length,) = _HEADER.unpack_from(shm.buf, 0)
    meta, specs = pickle.loads(bytes(shm.buf[_HEADER.size : _HEADER.size + length]))
    arrays: Dict[str, object] = {}
    for key, dtype, shape, offset in specs:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        arrays[key] = view
    return arrays, meta


def _attach_shm(name: str):
    """Attach to a block by name; the creator keeps cleanup responsibility.

    CPython registers attaches with the resource tracker too (gh-82300),
    but workers here fork and share the parent's tracker, whose cache is a
    set — the re-register collapses and the creator's ``unlink()`` removes
    the single entry, so no extra bookkeeping is needed.
    """
    return _shared_memory.SharedMemory(name=name)


def share_trace(trace):
    """Copy a trace's columns (plus topology metadata) into a shared block.

    Returns the open :class:`SharedMemory`; pass ``.name`` to workers and
    close+unlink it when they are done.
    """
    cols = trace.columns()
    meta = {
        "nf_names": cols.nf_names,
        "source_names": cols.source_names,
        "peak_rates": cols.peak_rates,
        "view_names": list(trace.nfs),
        "upstreams": trace.upstreams,
        "sources": trace.sources,
        "nf_types": trace.nf_types,
        "telemetry": trace.telemetry,
    }
    return _pack_block(cols._arrays(), meta)


def attach_trace(name: str):
    """Attach to a :func:`share_trace` block; returns ``(trace, shm)``.

    The returned trace is a :class:`~repro.core.records.DiagTrace` whose
    columns are zero-copy views over the block.  The caller must keep
    ``shm`` alive as long as the trace is used and ``close()`` it
    afterwards (never ``unlink()``: the creator owns the block).
    """
    from repro.core.records import DiagTrace

    shm = _attach_shm(name)
    arrays, meta = _unpack_block(shm)
    trace = DiagTrace.from_columns(
        TraceColumns.from_arrays(arrays, meta),
        meta["view_names"],
        meta["upstreams"],
        meta["sources"],
        nf_types=meta.get("nf_types"),
        telemetry=meta.get("telemetry"),
    )
    trace._shm = shm  # keeps the mapping alive as long as the trace
    return trace, shm


def share_victims(victims: Sequence, cols: TraceColumns):
    """Pack a victim list into a shared block (see ``attach_victims``)."""
    n = len(victims)
    arrays = {
        "pid": np.fromiter((v.pid for v in victims), np.int64, count=n),
        "nf": np.fromiter((cols.nf_code[v.nf] for v in victims), np.int32, count=n),
        "kind": np.fromiter((KIND_CODES[v.kind] for v in victims), np.int8, count=n),
        "arrival": np.fromiter((v.arrival_ns for v in victims), np.int64, count=n),
        "metric": np.fromiter((v.metric for v in victims), np.float64, count=n),
    }
    return _pack_block(arrays, {"n": n})


def attach_victims(name: str, nf_names: Sequence[str]):
    """Decode every victim of a :func:`share_victims` block.

    All fields are decoded to plain Python scalars, so the block is closed
    before returning the list.
    """
    from repro.core.victims import Victim

    shm = _attach_shm(name)
    try:
        arrays, meta = _unpack_block(shm)
        victims = [
            Victim(
                pid=int(arrays["pid"][i]),
                nf=nf_names[int(arrays["nf"][i])],
                kind=KIND_NAMES[int(arrays["kind"][i])],
                arrival_ns=int(arrays["arrival"][i]),
                metric=float(arrays["metric"][i]),
            )
            for i in range(meta["n"])
        ]
        return victims
    finally:
        try:
            shm.close()
        except Exception:  # pragma: no cover - defensive close
            pass


# -- vectorized path decomposition ---------------------------------------------


class _GrowColumn:
    """Append-only int64 column with amortized growth."""

    __slots__ = ("buf", "n")

    def __init__(self) -> None:
        self.buf = np.empty(16, dtype=np.int64)
        self.n = 0

    def reserve(self, extra: int) -> None:
        need = self.n + extra
        if need > len(self.buf):
            size = len(self.buf)
            while size < need:
                size *= 2
            grown = np.empty(size, dtype=np.int64)
            grown[: self.n] = self.buf[: self.n]
            self.buf = grown

    def append(self, values) -> None:
        batch = len(values)
        self.reserve(batch)
        self.buf[self.n : self.n + batch] = values
        self.n += batch

    def last(self) -> int:
        return int(self.buf[self.n - 1])

    def at(self, idx: int) -> int:
        return int(self.buf[idx])

    def view(self):
        return self.buf[: self.n]


def _prefix_append(column: _GrowColumn, values, op) -> None:
    """Append ``values`` keeping the column a running ``op``-accumulate."""
    chunk = op.accumulate(values)
    if column.n:
        chunk = op(chunk, column.last())
    column.append(chunk)


class _ColumnGroup:
    """One path's PreSet members with prefix extents in numpy columns.

    ``positions[i]`` is the i-th member's index in the full PreSet stream;
    the extent columns hold running mins/maxes over members ``0..i``, so
    any PreSet prefix's timespans read off in O(1) after a bisect on
    ``positions``.  Extents are appended in batch with
    ``minimum``/``maximum`` accumulates, so extending by a suffix of *b*
    members costs O(b · hops) C-level work.
    """

    __slots__ = (
        "path", "src_map", "pids", "positions",
        "emit_min", "emit_max", "hop_min", "hop_max",
        "first_enc", "first_obj", "pid_bits",
    )

    def __init__(self, path: Tuple[str, ...], codes, pid_bits: int, enc_ok: bool):
        self.path = path
        # Duplicate NF names on a looping path report their *first*
        # occurrence's times, like the reference object walk.
        first_of: Dict[int, int] = {}
        self.src_map: List[int] = []
        for j, code in enumerate(codes):
            self.src_map.append(first_of.setdefault(int(code), j))
        self.pids: List[int] = []
        self.positions = _GrowColumn()
        self.emit_min = _GrowColumn()
        self.emit_max = _GrowColumn()
        n_hops = len(path) - 1
        self.hop_min = [_GrowColumn() for _ in range(n_hops)]
        self.hop_max = [_GrowColumn() for _ in range(n_hops)]
        self.pid_bits = pid_bits
        # (arrival, pid) lexicographic prefix minimum, packed into int64
        # when the trace's value ranges allow (enc_ok), else object tuples.
        self.first_enc = [_GrowColumn() for _ in range(n_hops)] if enc_ok else None
        self.first_obj: Optional[List[List[Tuple[int, int]]]] = (
            None if enc_ok else [[] for _ in range(n_hops)]
        )

    #: Below this batch size the scalar path beats ufunc dispatch overhead
    #: (incremental PreSet suffixes are usually a handful of packets).
    SMALL_BATCH = 12

    def add_batch(self, cols: TraceColumns, pids, positions, starts, rows) -> None:
        """Append a member batch; ``pids``/``positions``/``starts``/``rows``
        are plain int lists (one entry per new PreSet member)."""
        if len(pids) <= self.SMALL_BATCH:
            self._add_small(cols, pids, positions, starts, rows)
            return
        pid_arr = np.asarray(pids, dtype=np.int64)
        s_arr = np.asarray(starts, dtype=np.int64)
        emit_arr = cols.pkt_emitted[np.asarray(rows, dtype=np.int64)]
        self.pids.extend(pids)
        self.positions.append(positions)
        _prefix_append(self.emit_min, emit_arr, np.minimum)
        _prefix_append(self.emit_max, emit_arr, np.maximum)
        for h, src in enumerate(self.src_map):
            base = s_arr + src
            departs = cols.hop_depart[base]
            arrivals = cols.hop_arrival[base]
            _prefix_append(self.hop_min[h], departs, np.minimum)
            _prefix_append(self.hop_max[h], departs, np.maximum)
            if self.first_enc is not None:
                enc = (arrivals << self.pid_bits) | pid_arr
                _prefix_append(self.first_enc[h], enc, np.minimum)
            else:  # pragma: no cover - huge-timestamp fallback
                firsts = self.first_obj[h]
                best = firsts[-1] if firsts else None
                for arrival, pid in zip(arrivals.tolist(), pids):
                    candidate = (arrival, pid)
                    if best is None or candidate < best:
                        best = candidate
                    firsts.append(best)

    def _add_small(self, cols: TraceColumns, pids, positions, starts, rows) -> None:
        """Scalar twin of the vectorized append: identical integers, no
        ufunc dispatch.  Values are gathered once per column (one fancy
        index + ``tolist``), then the running min/max walks Python ints —
        bit-identical to the accumulates."""
        self.pids.extend(pids)
        self.positions.append(positions)
        run_min = self.emit_min.last() if self.emit_min.n else None
        run_max = self.emit_max.last() if self.emit_max.n else None
        mins: List[int] = []
        maxs: List[int] = []
        for emit in cols.pkt_emitted[rows].tolist():
            run_min = emit if run_min is None else min(run_min, emit)
            run_max = emit if run_max is None else max(run_max, emit)
            mins.append(run_min)
            maxs.append(run_max)
        self.emit_min.append(mins)
        self.emit_max.append(maxs)
        for h, src in enumerate(self.src_map):
            idxs = [start + src for start in starts]
            departs = cols.hop_depart[idxs].tolist()
            arrivals = cols.hop_arrival[idxs].tolist()
            col_min = self.hop_min[h]
            col_max = self.hop_max[h]
            run_min = col_min.last() if col_min.n else None
            run_max = col_max.last() if col_max.n else None
            mins = []
            maxs = []
            if self.first_enc is not None:
                col_enc = self.first_enc[h]
                run_enc = col_enc.last() if col_enc.n else None
                encs: List[int] = []
                for pid, depart, arrival in zip(pids, departs, arrivals):
                    run_min = depart if run_min is None else min(run_min, depart)
                    run_max = depart if run_max is None else max(run_max, depart)
                    mins.append(run_min)
                    maxs.append(run_max)
                    enc = (arrival << self.pid_bits) | pid
                    run_enc = enc if run_enc is None else min(run_enc, enc)
                    encs.append(run_enc)
                col_enc.append(encs)
            else:  # pragma: no cover - huge-timestamp fallback
                firsts = self.first_obj[h]
                best = firsts[-1] if firsts else None
                for pid, depart, arrival in zip(pids, departs, arrivals):
                    run_min = depart if run_min is None else min(run_min, depart)
                    run_max = depart if run_max is None else max(run_max, depart)
                    mins.append(run_min)
                    maxs.append(run_max)
                    candidate = (arrival, pid)
                    if best is None or candidate < best:
                        best = candidate
                    firsts.append(best)
            col_min.append(mins)
            col_max.append(maxs)

    def prefix_count(self, m: int) -> int:
        return int(self.positions.view().searchsorted(m - 1, side="right"))

    def spans(self, k: int) -> List[float]:
        last = k - 1
        result = [float(self.emit_max.at(last) - self.emit_min.at(last))]
        for h in range(len(self.hop_min)):
            result.append(float(self.hop_max[h].at(last) - self.hop_min[h].at(last)))
        return result

    def first_at(self, h: int, k: int) -> Tuple[int, int]:
        if self.first_enc is not None:
            packed = self.first_enc[h].at(k - 1)
            return packed >> self.pid_bits, packed & ((1 << self.pid_bits) - 1)
        return self.first_obj[h][k - 1]  # pragma: no cover - fallback


class ColumnarPathDecomposition:
    """Path grouping of one NF's PreSet stream, reusable across prefixes.

    Built (and extended) by consuming PreSet pids in arrival order; any
    victim whose PreSet is a prefix of the consumed stream queries it
    without re-walking packets.  Member data is gathered from the hop
    table and prefix extents are maintained as accumulate columns.
    Grouping still walks pids in Python (paths are per-packet), yet
    touches only array scalars: no ``PacketView``/``PacketHop`` is ever
    materialized.
    """

    def __init__(self, trace: DiagTrace, victim_nf: str) -> None:
        self.trace = trace
        self.cols = cols = trace.columns()
        self.victim_nf = victim_nf
        self._victim_code = cols.nf_code.get(victim_nf)
        self._groups: Dict[Tuple[int, bytes], _ColumnGroup] = {}
        self._order: List[_ColumnGroup] = []
        self.consumed = 0

    def extend(self, pids: Sequence[int]) -> None:
        cols = self.cols
        hop_start = cols.hop_start
        first_pos = (
            cols.first_hop_pos(self._victim_code)
            if self._victim_code is not None
            else None
        )
        rows = cols.rows_for_pids(list(pids))
        # Stage members per touched group, then append each group's batch
        # with vectorized accumulates.
        staged: Dict[Tuple[int, bytes], List[List[int]]] = {}
        for offset, pid in enumerate(pids):
            position = self.consumed
            self.consumed += 1
            row = int(rows[offset])
            if row < 0:
                continue
            start = int(hop_start[row])
            end = int(hop_start[row + 1])
            if first_pos is not None:
                vpos = int(first_pos[row])
                if vpos >= 0:
                    end = vpos
            key = (int(cols.pkt_source[row]), cols.hop_nf[start:end].tobytes())
            group = self._groups.get(key)
            if group is None:
                path = (cols.source_names[key[0]],) + tuple(
                    cols.nf_names[int(c)] for c in cols.hop_nf[start:end]
                )
                group = _ColumnGroup(
                    path, cols.hop_nf[start:end], cols.pid_bits, cols.enc_ok
                )
                self._groups[key] = group
                self._order.append(group)
                staged.setdefault(key, [[], [], [], []])
            batch = staged.get(key)
            if batch is None:
                batch = staged[key] = [[], [], [], []]
            batch[0].append(int(pid))
            batch[1].append(position)
            batch[2].append(start)
            batch[3].append(row)
        for key, (b_pids, b_pos, b_start, b_rows) in staged.items():
            self._groups[key].add_batch(cols, b_pids, b_pos, b_start, b_rows)

    def ensure(self, preset_pids: Sequence[int]) -> int:
        """Consume any PreSet suffix not yet seen; return the prefix length.

        The caller guarantees ``preset_pids`` extends the stream consumed
        so far (true for queuing periods: a later victim's PreSet is a
        strict extension of an earlier victim's).
        """
        if len(preset_pids) > self.consumed:
            self.extend(preset_pids[self.consumed :])
        return len(preset_pids)

    def prefix_groups(self, m: int) -> List[Tuple[_ColumnGroup, int]]:
        """(group, member-count) pairs with >= 1 member in the length-``m``
        prefix, in first-occurrence order."""
        result: List[Tuple[_ColumnGroup, int]] = []
        for group in self._order:
            k = group.prefix_count(m)
            if k:
                result.append((group, k))
        return result


# -- shared-memory trace registry ----------------------------------------------


def unlink_block(shm) -> None:
    """Close and unlink a block this process created (idempotent, never
    raises — it runs in ``finally`` clauses on BaseException unwinds)."""
    for fn in (shm.close, shm.unlink):
        try:
            fn()
        except Exception:
            pass


class SharedTraceCache:
    """One reusable :func:`share_trace` segment, mutation-keyed.

    Copying the columns into a fresh ``/dev/shm`` block on *every*
    ``diagnose_all`` is wasted work when the trace has not changed between
    calls (the overwhelmingly common case for a service diagnosing chunk
    after chunk of one trace).  This cache keys the segment on the trace's
    mutation counter, exactly like the trace's own columns cache: an
    unchanged trace reuses the same named block, a mutated trace (live
    ingest grew it) retires the old segment and shares a fresh generation.

    Ownership contract: whoever constructs the cache must call
    :meth:`close` on every exit path (``try/finally``), which unlinks the
    live segment.  A ``weakref.finalize`` backstop unlinks on garbage
    collection too, so even an abandoned cache cannot leak past process
    exit, but the explicit close is the guarantee the crash tests pin.
    """

    def __init__(self, trace: DiagTrace) -> None:
        self.trace = trace
        self._shm = None
        self._mutations = -1
        self._finalizer = None
        #: Telemetry: how many generation builds vs. reuses served.
        self.shares = 0
        self.reuses = 0

    def segment(self):
        """The live segment for the trace's current contents."""
        mutations = self.trace._mutations
        if self._shm is not None and self._mutations == mutations:
            self.reuses += 1
            return self._shm
        self.close()
        self._shm = share_trace(self.trace)
        self._mutations = mutations
        self.shares += 1
        self._finalizer = weakref.finalize(self, unlink_block, self._shm)
        return self._shm

    @property
    def name(self) -> Optional[str]:
        return None if self._shm is None else self._shm.name

    def close(self) -> None:
        """Unlink the live segment (idempotent, exception-safe)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._shm is not None:
            unlink_block(self._shm)
            self._shm = None
        self._mutations = -1


def shm_available() -> bool:
    return _shared_memory is not None
