"""Runtime information collection (paper Table 1 and section 5).

The collector is an :class:`~repro.nfv.nf.NFHook` — the moral equivalent of
the 200 lines the authors added to DPDK's RX/TX burst functions.  Per NF it
records, for every batch read from the input queue and every batch written
towards a next hop:

* the batch timestamp,
* the batch size,
* the IPIDs of the packets in the batch (2 bytes each after compression).

Five-tuples are recorded only at the *edges* of the NF graph (traffic
sources and exit NFs); interior NFs carry IPIDs alone, and the
reconstruction module re-identifies packets across NFs.

The hook appends one :class:`BatchRecord` per burst.  A stream decoded
from a dump is a :class:`BatchStream` instead: the same batches stored as
columns (per-batch ``times`` and ``sizes``, one flat ``ipids`` list), which
reads as a ``Sequence[BatchRecord]`` and hands the reconstructor its
per-packet ``(times, ipids)`` int64 arrays without building a record per
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.nfv.packet import FiveTuple, Packet


@dataclass(frozen=True)
class BatchRecord:
    """One RX or TX burst observed at an NF."""

    time_ns: int
    ipids: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ipids)


class BatchStream(Sequence[BatchRecord]):
    """One batch stream stored as columns: per-batch ``times`` and
    ``sizes`` plus the stream's IPIDs in one flat list.

    Reads as a ``Sequence[BatchRecord]`` (``len``, O(1) indexing,
    iteration build the records on demand) and compares equal to any
    sequence of equal records, so a decoded stream stands wherever a list
    of :class:`BatchRecord` did.  The columns are shared, not copied:
    treat them as read-only.
    """

    __slots__ = ("times", "sizes", "ipids", "_starts")

    def __init__(self, times: List[int], sizes: List[int], ipids: List[int]) -> None:
        self.times = times
        self.sizes = sizes
        self.ipids = ipids
        self._starts: Optional[List[int]] = None

    @classmethod
    def of(cls, batches: Iterable[BatchRecord]) -> "BatchStream":
        """``batches`` as columns; a :class:`BatchStream` is returned as is."""
        if isinstance(batches, BatchStream):
            return batches
        times: List[int] = []
        sizes: List[int] = []
        ipids: List[int] = []
        for batch in batches:
            times.append(batch.time_ns)
            sizes.append(len(batch.ipids))
            ipids.extend(batch.ipids)
        return cls(times, sizes, ipids)

    def packet_arrays(self, delay: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Per-packet ``(times, ipids)`` as int64 arrays: each IPID at its
        batch's time plus ``delay``."""
        times = np.repeat(np.asarray(self.times, dtype=np.int64) + delay, self.sizes)
        return times, np.asarray(self.ipids, dtype=np.int64)

    def packets(self, delay: int = 0) -> Tuple[List[int], List[int]]:
        """:meth:`packet_arrays` as int lists."""
        times, ipids = self.packet_arrays(delay)
        return times.tolist(), ipids.tolist()

    def sorted_by_time(self) -> "BatchStream":
        """The batches stably sorted by time (each keeps its IPIDs)."""
        times = self.times
        order = sorted(range(len(times)), key=times.__getitem__)
        starts = self._offsets()
        ipids = self.ipids
        return BatchStream(
            [times[i] for i in order],
            [self.sizes[i] for i in order],
            list(chain.from_iterable(ipids[starts[i] : starts[i + 1]] for i in order)),
        )

    def _offsets(self) -> List[int]:
        if self._starts is None:
            self._starts = [0, *accumulate(self.sizes)]
        return self._starts

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.times)))]
        n = len(self.times)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("batch index out of range")
        starts = self._offsets()
        return BatchRecord(
            self.times[index], tuple(self.ipids[starts[index] : starts[index + 1]])
        )

    def __iter__(self) -> Iterator[BatchRecord]:
        ipids = iter(self.ipids)
        for time_ns, size in zip(self.times, self.sizes):
            yield BatchRecord(time_ns, tuple(islice(ipids, size)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BatchStream):
            return (
                self.times == other.times
                and self.sizes == other.sizes
                and self.ipids == other.ipids
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BatchStream({list(self)!r})"


@dataclass(frozen=True)
class SourceRecord:
    """One packet emission at a traffic source (the generator's own log)."""

    time_ns: int
    ipid: int
    flow: FiveTuple
    target: str


@dataclass(frozen=True)
class ExitRecord:
    """Five-tuple kept for a packet leaving the NF graph."""

    time_ns: int
    ipid: int
    flow: FiveTuple
    last_nf: str


@dataclass
class NFRecords:
    """All batches collected at one NF: lists while collecting,
    :class:`BatchStream` columns when loaded from a dump."""

    rx: Sequence[BatchRecord] = field(default_factory=list)
    tx: Dict[str, Sequence[BatchRecord]] = field(default_factory=dict)

    def tx_to(self, next_node: str) -> Sequence[BatchRecord]:
        return self.tx.get(next_node, [])


@dataclass
class CollectedData:
    """Everything the runtime collector hands to offline diagnosis."""

    nfs: Dict[str, NFRecords] = field(default_factory=dict)
    sources: Dict[str, List[SourceRecord]] = field(default_factory=dict)
    exits: List[ExitRecord] = field(default_factory=list)
    max_batch: int = 32

    def nf(self, name: str) -> NFRecords:
        return self.nfs.setdefault(name, NFRecords())


class RuntimeCollector:
    """NF hook gathering Table-1 records during a simulation run.

    ``max_batch`` must match the NFs' burst size: a batch smaller than
    ``max_batch`` implies the queue was drained, which is how the offline
    stage detects queuing-period boundaries from compressed data alone.
    """

    def __init__(self, max_batch: int = 32) -> None:
        self.data = CollectedData(nfs={}, sources={}, exits=[], max_batch=max_batch)

    # -- NFHook interface ---------------------------------------------------

    def on_enqueue(self, nf: str, time_ns: int, packet: Packet, accepted: bool) -> None:
        # The real collector cannot see the downstream NIC queue admitting or
        # dropping packets; arrivals are inferred from upstream TX records.
        return

    def on_rx_batch(
        self, nf: str, time_ns: int, batch: Sequence[Tuple[Packet, int]]
    ) -> None:
        ipids = tuple(packet.ipid for packet, _enq in batch)
        self.data.nf(nf).rx.append(BatchRecord(time_ns=time_ns, ipids=ipids))

    def on_tx_batch(
        self, nf: str, next_node: str, time_ns: int, packets: Sequence[Packet]
    ) -> None:
        records = self.data.nf(nf)
        ipids = tuple(packet.ipid for packet in packets)
        records.tx.setdefault(next_node, []).append(
            BatchRecord(time_ns=time_ns, ipids=ipids)
        )
        if next_node == "":
            for packet in packets:
                self.data.exits.append(
                    ExitRecord(
                        time_ns=time_ns, ipid=packet.ipid, flow=packet.flow, last_nf=nf
                    )
                )

    # -- source-side hooks (called by the simulator) -------------------------

    def on_emit(self, source: str, time_ns: int, packet: Packet, target: str) -> None:
        # The traffic generator logs what it sent and where (MoonGen-style).
        self.data.sources.setdefault(source, []).append(
            SourceRecord(time_ns=time_ns, ipid=packet.ipid, flow=packet.flow, target=target)
        )

    def on_exit(self, last_nf: str, time_ns: int, packet: Packet) -> None:
        return

    # -- accounting -----------------------------------------------------------

    def record_counts(self) -> Dict[str, int]:
        """Number of per-packet records collected at each NF."""
        counts: Dict[str, int] = {}
        for name, records in self.data.nfs.items():
            n = sum(b.size for b in records.rx)
            n += sum(b.size for batches in records.tx.values() for b in batches)
            counts[name] = n
        return counts
