"""The wire protocol: length-prefixed, CRC-framed telemetry messages.

One frame on the wire is::

    MAGIC(2) | type(1) | length(4, big-endian) | crc32(4, big-endian) | payload

where ``length`` is the payload byte count and the CRC covers the type
byte plus the payload — a frame whose header or body was damaged in
flight (or torn by a dying connection) fails validation instead of
decoding into garbage records.  Payloads are compact canonical JSON
(sorted keys, no whitespace): the record fields are ints and short
strings, the control frames are tiny, and canonical bytes keep the
protocol testable byte-for-byte.

Frame types
-----------

``HELLO``    sender -> server: the stream names this connection will
             carry (``{"streams": [...], "sender": name}``).
``WELCOME``  server -> sender: per-stream resume state —
             ``{"acked": {stream: seq}, "credit": {stream: n}}``.  The
             sender discards everything at or below ``acked`` and
             re-sends the rest: this is the resume half of
             at-least-once delivery.
``DATA``     sender -> server: one stream's record batch —
             ``{"s": stream, "r": [[seq, kind, time_ns, pid, [data]]]}``
             (``kind`` as an index into
             :data:`~repro.ingest.records.RECORD_KINDS`).
``ACK``      server -> sender: same shape as WELCOME, sent after each
             DATA/HEARTBEAT so acked sequences and credits stay fresh.
             An ACK answering DATA that overran the credit window also
             carries ``{"resend": {stream: seq}}``, the first sequence
             the server dropped; the sender sends it and everything
             after it again.
``HEARTBEAT`` either direction: liveness when there is nothing to say.
``EOS``      sender -> server: ``{"s": stream, "final_seq": n}`` — the
             stream carries exactly the sequences ``[0, n)``; once all
             are delivered the stream is at end-of-stream.

The decoder is incremental (feed bytes as they arrive, pop complete
frames) and *unsynchronized by design*: after any framing damage —
wrong magic, CRC mismatch, an oversized length — it raises
:class:`~repro.errors.FrameError` and the only safe recovery is to drop
the connection.  Resynchronizing mid-stream would risk treating payload
bytes as a header, and the reconnect-with-resume protocol makes dropping
the connection cheap.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import FrameError
from repro.ingest.records import RECORD_KINDS, TelemetryRecord

#: Two magic bytes starting every frame (catches cross-protocol garbage
#: and desynchronized streams immediately).
MAGIC = b"\xb5\xc5"

#: Header layout after the magic: type(1) length(4) crc32(4).
_HEADER = struct.Struct(">BLL")
HEADER_BYTES = len(MAGIC) + _HEADER.size

#: Hard frame-size ceiling: a corrupt length field must not make the
#: receiver try to buffer gigabytes before the CRC can condemn it.
MAX_FRAME_BYTES = 8 * 1024 * 1024

FRAME_HELLO = 1
FRAME_WELCOME = 2
FRAME_DATA = 3
FRAME_ACK = 4
FRAME_HEARTBEAT = 5
FRAME_EOS = 6

_KNOWN_TYPES = (
    FRAME_HELLO,
    FRAME_WELCOME,
    FRAME_DATA,
    FRAME_ACK,
    FRAME_HEARTBEAT,
    FRAME_EOS,
)

_KIND_INDEX = {kind: i for i, kind in enumerate(RECORD_KINDS)}


@dataclass(frozen=True)
class Frame:
    """One decoded frame: a type tag and its JSON payload."""

    type: int
    payload: dict


def _payload_bytes(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def encode_frame(frame_type: int, payload: dict) -> bytes:
    """Serialize one frame to wire bytes."""
    if frame_type not in _KNOWN_TYPES:
        raise FrameError(f"unknown frame type {frame_type}")
    body = _payload_bytes(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    crc = zlib.crc32(bytes([frame_type]) + body)
    return MAGIC + _HEADER.pack(frame_type, len(body), crc) + body


def records_to_payload(
    stream: str, records: Sequence[TelemetryRecord]
) -> dict:
    """DATA payload for one stream's batch (stream name hoisted out of
    each record: every record in a frame shares it)."""
    return {
        "s": stream,
        "r": [
            [r.seq, _KIND_INDEX[r.kind], r.time_ns, r.pid, list(r.data)]
            for r in records
        ],
    }


def records_from_payload(payload: dict) -> Tuple[str, List[TelemetryRecord]]:
    """Decode a DATA payload; malformed bodies raise :class:`FrameError`."""
    try:
        stream = payload["s"]
        records = [
            TelemetryRecord(
                stream=stream,
                seq=int(seq),
                kind=RECORD_KINDS[kind],
                time_ns=int(time_ns),
                pid=int(pid),
                data=tuple(int(x) for x in data),
            )
            for seq, kind, time_ns, pid, data in payload["r"]
        ]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed DATA payload: {exc}") from exc
    return stream, records


class FrameDecoder:
    """Incremental frame decoder over an arriving byte stream.

    ``feed`` buffers bytes; ``next_frame`` pops one complete validated
    frame or returns None when more bytes are needed.  Any framing
    damage raises :class:`~repro.errors.FrameError` — the caller must
    then drop the connection (see module docstring).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Frames decoded (receiver-side accounting).
        self.frames = 0

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def next_frame(self) -> Optional[Frame]:
        buf = self._buffer
        if len(buf) < HEADER_BYTES:
            return None
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise FrameError(
                f"bad frame magic {bytes(buf[:len(MAGIC)])!r}; "
                "stream is desynchronized"
            )
        frame_type, length, crc = _HEADER.unpack_from(buf, len(MAGIC))
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
                "ceiling (corrupt header)"
            )
        end = HEADER_BYTES + length
        if len(buf) < end:
            return None
        body = bytes(buf[HEADER_BYTES:end])
        if zlib.crc32(bytes([frame_type]) + body) != crc:
            raise FrameError(f"frame CRC mismatch (type {frame_type})")
        if frame_type not in _KNOWN_TYPES:
            raise FrameError(f"unknown frame type {frame_type}")
        del buf[:end]
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"frame payload is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FrameError("frame payload must be a JSON object")
        self.frames += 1
        return Frame(type=frame_type, payload=payload)


def split_frames(buffer: bytearray) -> List[bytes]:
    """Split complete raw frames off the front of ``buffer``, in place.

    The chaos proxy's view of the protocol: it needs frame *boundaries*
    (to duplicate, reorder, or tear whole frames) but deliberately does
    not validate CRCs or decode payloads — a middlebox sees bytes.
    Unparseable bytes (bad magic) are passed through as one opaque blob
    so the endpoint, not the proxy, detects the damage.
    """
    frames: List[bytes] = []
    while len(buffer) >= HEADER_BYTES:
        if bytes(buffer[: len(MAGIC)]) != MAGIC:
            frames.append(bytes(buffer))
            buffer.clear()
            break
        _type, length, _crc = _HEADER.unpack_from(buffer, len(MAGIC))
        end = HEADER_BYTES + min(length, MAX_FRAME_BYTES)
        if len(buffer) < end:
            break
        frames.append(bytes(buffer[:end]))
        del buffer[:end]
    return frames
