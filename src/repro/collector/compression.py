"""Wire format for collected records: ~2 bytes per packet (section 5).

The paper compresses runtime data to roughly two bytes per packet by
recording only IPIDs at interior NFs plus one timestamp and size per batch.
This module implements a concrete codec so the overhead claims are backed
by running code:

* per batch: varint timestamp delta + varint batch size,
* per packet: 2-byte little-endian IPID,
* exit records additionally carry the 13-byte five-tuple.

There is one batch decoder, :func:`decode_batch_stream`: it decodes a
stream straight into a :class:`~repro.collector.runtime.BatchStream`
(varints with inline one- and two-byte fast paths, all IPIDs from one
``struct.unpack`` over the joined payloads), and :func:`decode_batches`
is its list of records.  Exit records decode with one ``struct`` unpack
each and share one :class:`~repro.nfv.packet.FiveTuple` per distinct flow.
Every varint and every cumulative timestamp must fit in 63 bits — what an
int64 trace column holds — or decoding raises
:class:`~repro.errors.TraceError`, like any other malformed input.

``encode_nf_records`` / ``decode_nf_records`` round-trip exactly; tests
assert both the fidelity and the bytes-per-packet budget.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.collector.runtime import BatchRecord, BatchStream, ExitRecord, NFRecords
from repro.errors import TraceError
from repro.nfv.packet import FiveTuple

#: Largest varint value and cumulative timestamp a dump may hold: what an
#: int64 trace column holds.
INT63_MAX = (1 << 63) - 1

#: An exit record's fixed part: IPID, then the five-tuple (src/dst IP,
#: src/dst port, proto), little-endian.
_EXIT_FIELDS = struct.Struct("<HIIHHB")


def _varint_encode(value: int, out: bytearray) -> None:
    if value < 0:
        raise TraceError(f"varint cannot encode negative value {value}")
    if value > INT63_MAX:
        raise TraceError(f"varint cannot encode {value}: exceeds 63 bits")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_decode(buf: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(buf):
            raise TraceError("truncated varint")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > INT63_MAX:
                raise TraceError(f"varint {result} exceeds 63 bits")
            return result, offset
        shift += 7
        if shift > 63:
            raise TraceError("varint too long")


def encode_batches(batches: Iterable[BatchRecord]) -> bytes:
    """Encode a batch stream: delta timestamps, sizes, 2-byte IPIDs."""
    out = bytearray()
    previous = 0
    for batch in batches:
        delta = batch.time_ns - previous
        if delta < 0:
            raise TraceError("batch stream not time-sorted")
        previous = batch.time_ns
        _varint_encode(delta, out)
        _varint_encode(batch.size, out)
        for ipid in batch.ipids:
            out += ipid.to_bytes(2, "little")
    return bytes(out)


def decode_batch_stream(buf: bytes) -> BatchStream:
    """Inverse of :func:`encode_batches`, straight into columns."""
    times: List[int] = []
    sizes: List[int] = []
    payloads: List[bytes] = []
    end = len(buf)
    offset = 0
    time_ns = 0
    while offset < end:
        byte = buf[offset]
        if byte < 0x80:
            time_ns += byte
            offset += 1
        elif offset + 1 < end and buf[offset + 1] < 0x80:
            time_ns += (byte & 0x7F) | buf[offset + 1] << 7
            offset += 2
        else:
            delta, offset = _varint_decode(buf, offset)
            time_ns += delta
        if time_ns > INT63_MAX:
            raise TraceError(f"batch time {time_ns} exceeds 63 bits")
        if offset < end and buf[offset] < 0x80:
            size = buf[offset]
            offset += 1
        else:
            size, offset = _varint_decode(buf, offset)
        stop = offset + 2 * size
        if stop > end:
            raise TraceError("truncated batch payload")
        times.append(time_ns)
        sizes.append(size)
        if size:
            payloads.append(buf[offset:stop])
        offset = stop
    payload = b"".join(payloads)
    ipids = list(struct.unpack(f"<{len(payload) // 2}H", payload))
    return BatchStream(times, sizes, ipids)


def decode_batches(buf: bytes) -> List[BatchRecord]:
    """Inverse of :func:`encode_batches`, as a list of records."""
    return list(decode_batch_stream(buf))


def encode_nf_records(records: NFRecords) -> Dict[str, bytes]:
    """Encode one NF's RX stream and each TX stream separately."""
    encoded = {"rx": encode_batches(records.rx)}
    for next_node, batches in records.tx.items():
        encoded[f"tx:{next_node}"] = encode_batches(batches)
    return encoded


def decode_nf_records(encoded: Dict[str, bytes]) -> NFRecords:
    """Inverse of :func:`encode_nf_records`."""
    records = NFRecords()
    for key, buf in encoded.items():
        if key == "rx":
            records.rx = decode_batch_stream(buf)
        elif key.startswith("tx:"):
            records.tx[key[3:]] = decode_batch_stream(buf)
        else:
            raise TraceError(f"unknown record stream {key!r}")
    return records


def encode_exit_records(exits: Iterable[ExitRecord]) -> bytes:
    """Exit records keep the five-tuple: 13 bytes plus timestamp delta."""
    out = bytearray()
    previous = 0
    for record in exits:
        delta = record.time_ns - previous
        if delta < 0:
            raise TraceError("exit stream not time-sorted")
        previous = record.time_ns
        _varint_encode(delta, out)
        out += record.ipid.to_bytes(2, "little")
        flow = record.flow
        out += flow.src_ip.to_bytes(4, "little")
        out += flow.dst_ip.to_bytes(4, "little")
        out += flow.src_port.to_bytes(2, "little")
        out += flow.dst_port.to_bytes(2, "little")
        out += flow.proto.to_bytes(1, "little")
        name = record.last_nf.encode("utf-8")
        _varint_encode(len(name), out)
        out += name
    return bytes(out)


def decode_exit_records(
    buf: bytes, flows: Optional[Dict[Tuple[int, ...], FiveTuple]] = None
) -> List[ExitRecord]:
    """Inverse of :func:`encode_exit_records`.

    Records of one flow share one :class:`FiveTuple`, looked up in (and
    added to) ``flows``, keyed by the five fields in order."""
    if flows is None:
        flows = {}
    names: Dict[bytes, str] = {}
    unpack = _EXIT_FIELDS.unpack_from
    fixed = _EXIT_FIELDS.size
    exits: List[ExitRecord] = []
    end = len(buf)
    offset = 0
    time_ns = 0
    while offset < end:
        byte = buf[offset]
        if byte < 0x80:
            time_ns += byte
            offset += 1
        elif offset + 1 < end and buf[offset + 1] < 0x80:
            time_ns += (byte & 0x7F) | buf[offset + 1] << 7
            offset += 2
        else:
            delta, offset = _varint_decode(buf, offset)
            time_ns += delta
        if time_ns > INT63_MAX:
            raise TraceError(f"exit time {time_ns} exceeds 63 bits")
        if offset + fixed > end:
            raise TraceError("truncated exit record")
        fields = unpack(buf, offset)
        offset += fixed
        key = fields[1:]
        flow = flows.get(key)
        if flow is None:
            flow = flows[key] = FiveTuple(*key)
        if offset < end and buf[offset] < 0x80:
            name_len = buf[offset]
            offset += 1
        else:
            name_len, offset = _varint_decode(buf, offset)
        if offset + name_len > end:
            raise TraceError("truncated exit record NF name")
        raw = buf[offset : offset + name_len]
        last_nf = names.get(raw)
        if last_nf is None:
            try:
                last_nf = names[raw] = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Garbage bytes must surface as the codec's own error class,
                # not leak the underlying decode exception to callers.
                raise TraceError(f"corrupt exit record NF name: {exc}") from exc
        offset += name_len
        exits.append(ExitRecord(time_ns, fields[0], flow, last_nf))
    return exits


def bytes_per_packet(records: NFRecords) -> float:
    """Measured collection footprint at an interior NF, bytes per packet."""
    encoded = encode_nf_records(records)
    total_bytes = sum(len(buf) for buf in encoded.values())
    total_packets = sum(b.size for b in records.rx)
    total_packets += sum(b.size for batches in records.tx.values() for b in batches)
    if total_packets == 0:
        return 0.0
    return total_bytes / total_packets
