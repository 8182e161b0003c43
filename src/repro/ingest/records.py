"""Raw telemetry records: what live NFs ship to the ingestion layer.

One :class:`TelemetryRecord` is one event observed at one *stream* — a
traffic source or an NF.  Streams are the unit of ordering and loss
accounting: within a stream, records carry consecutive sequence numbers
and non-decreasing timestamps, so the builder can detect drops (sequence
gaps), duplicates (repeated sequence numbers) and garbling (time running
backwards) without any global coordination.  Across streams nothing is
assumed: the watermark barrier in :mod:`repro.ingest.incremental` is what
turns per-stream order into a globally consistent trace prefix.

Record kinds mirror what :meth:`DiagTrace.from_sim_result` consumes:

``emit``
    A source put a packet on the wire (carries the flow five-tuple).
    Creates the packet's identity; stream = the source name.
``hop``
    A packet finished one NF visit.  Emitted at *depart* time and carries
    the earlier arrival/read timestamps, so one record per hop suffices
    and per-stream time stays monotone (an NF departs packets in event
    order).  Stream = the NF name.
``drop``
    The NF's input queue rejected the packet.  Stream = the NF name.
``exit``
    The packet left the topology.  Stream = the last NF on its path
    (exit happens at depart time there, ordered after the hop record by
    sequence number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import IngestError

#: Valid record kinds, in no particular order.
RECORD_KINDS = ("emit", "hop", "drop", "exit")


@dataclass(frozen=True)
class TelemetryRecord:
    """One event on one stream's telemetry feed.

    ``time_ns`` is the stream-monotone timestamp: emit time for ``emit``,
    depart time for ``hop``, drop time for ``drop``, exit time for
    ``exit``.  ``data`` is the kind-specific payload: the flow five-tuple
    ints for ``emit``, ``(arrival_ns, read_ns)`` for ``hop``, empty
    otherwise.
    """

    stream: str
    seq: int
    kind: str
    time_ns: int
    pid: int
    data: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise IngestError(f"unknown telemetry record kind {self.kind!r}")


def emit_record(
    stream: str, seq: int, time_ns: int, pid: int, flow_tuple: Tuple[int, ...]
) -> TelemetryRecord:
    return TelemetryRecord(
        stream=stream, seq=seq, kind="emit", time_ns=time_ns, pid=pid,
        data=tuple(flow_tuple),
    )


def hop_record(
    stream: str, seq: int, pid: int, arrival_ns: int, read_ns: int, depart_ns: int
) -> TelemetryRecord:
    return TelemetryRecord(
        stream=stream, seq=seq, kind="hop", time_ns=depart_ns, pid=pid,
        data=(arrival_ns, read_ns),
    )


def drop_record(stream: str, seq: int, time_ns: int, pid: int) -> TelemetryRecord:
    return TelemetryRecord(
        stream=stream, seq=seq, kind="drop", time_ns=time_ns, pid=pid
    )


def exit_record(stream: str, seq: int, time_ns: int, pid: int) -> TelemetryRecord:
    return TelemetryRecord(
        stream=stream, seq=seq, kind="exit", time_ns=time_ns, pid=pid
    )
