"""Object decoders: the reference for the columnar collector loader.

What loading a dump was before batch streams decoded straight into
:class:`~repro.collector.runtime.BatchStream` columns: one frozen
:class:`BatchRecord` per batch (each IPID read with ``int.from_bytes``),
one :class:`FiveTuple` per exit and source record, and a reconstructor
that re-flattened the records per stream and validated tolerant-mode
streams by indexing records.  Moved here unedited:

* :func:`decode_batches` / :func:`decode_exit_records` (with their
  :func:`_varint_decode`) — the per-record decoders,
* :func:`load_collected_reference` — ``load_collected`` over them,
* :func:`batch_stream_reference` / :func:`sanitize_streams_reference` —
  ``TraceReconstructor._batch_stream`` and ``_sanitize_streams``;
  :func:`reconstructing_through` swaps both into ``TraceReconstructor``.

The column decoder must return the same records on every valid encoding,
and a whole post-mortem loaded and reconstructed through these must equal
the production one (``tests/collector/test_decoder_parity.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union
from unittest import mock

from repro.collector.health import TelemetryGap
from repro.collector.persistence import _LOADABLE_VERSIONS, _MANIFEST, _read_stream
from repro.collector.reconstruct import Stream, TraceReconstructor
from repro.collector.runtime import (
    BatchRecord,
    CollectedData,
    ExitRecord,
    NFRecords,
    SourceRecord,
)
from repro.errors import TraceError
from repro.nfv.packet import FiveTuple


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
            return result, offset
        shift += 7
        if shift > 63:
            raise TraceError("varint too long")


def decode_batches(buf: bytes) -> List[BatchRecord]:
    """Inverse of :func:`encode_batches`."""
    batches: List[BatchRecord] = []
    offset = 0
    time_ns = 0
    while offset < len(buf):
        delta, offset = _varint_decode(buf, offset)
        time_ns += delta
        size, offset = _varint_decode(buf, offset)
        if offset + 2 * size > len(buf):
            raise TraceError("truncated batch payload")
        ipids = tuple(
            int.from_bytes(buf[offset + 2 * i : offset + 2 * i + 2], "little")
            for i in range(size)
        )
        offset += 2 * size
        batches.append(BatchRecord(time_ns=time_ns, ipids=ipids))
    return batches


def decode_exit_records(buf: bytes) -> List[ExitRecord]:
    """Inverse of :func:`encode_exit_records`."""
    exits: List[ExitRecord] = []
    offset = 0
    time_ns = 0
    while offset < len(buf):
        delta, offset = _varint_decode(buf, offset)
        time_ns += delta
        if offset + 15 > len(buf):
            raise TraceError("truncated exit record")
        ipid = int.from_bytes(buf[offset : offset + 2], "little")
        offset += 2
        src_ip = int.from_bytes(buf[offset : offset + 4], "little")
        dst_ip = int.from_bytes(buf[offset + 4 : offset + 8], "little")
        src_port = int.from_bytes(buf[offset + 8 : offset + 10], "little")
        dst_port = int.from_bytes(buf[offset + 10 : offset + 12], "little")
        proto = buf[offset + 12]
        offset += 13
        name_len, offset = _varint_decode(buf, offset)
        if offset + name_len > len(buf):
            raise TraceError("truncated exit record NF name")
        try:
            last_nf = buf[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            # Garbage bytes must surface as the codec's own error class,
            # not leak the underlying decode exception to callers.
            raise TraceError(f"corrupt exit record NF name: {exc}") from exc
        offset += name_len
        exits.append(
            ExitRecord(
                time_ns=time_ns,
                ipid=ipid,
                flow=FiveTuple(src_ip, dst_ip, src_port, dst_port, proto),
                last_nf=last_nf,
            )
        )
    return exits


def load_collected_reference(directory: Union[str, Path]) -> CollectedData:
    """Inverse of :func:`save_collected`.

    Streams are CRC-verified against the manifest (format version 2) before
    decoding, and any decode failure is re-raised naming the offending
    file, so a truncated or bit-flipped dump fails loudly and precisely.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise TraceError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") not in _LOADABLE_VERSIONS:
        raise TraceError(
            f"unsupported collected-data format {manifest.get('format_version')!r}"
        )
    crcs = manifest.get("crc32")
    data = CollectedData(
        nfs={}, sources={}, exits=[], max_batch=int(manifest["max_batch"])
    )

    def decode_stream(filename: str, decoder):
        payload = _read_stream(directory, filename, crcs)
        try:
            return decoder(payload)
        except TraceError as exc:
            raise TraceError(f"corrupt record stream {directory / filename}: {exc}") from exc

    for name, entry in manifest["nfs"].items():
        records = NFRecords()
        records.rx = decode_stream(entry["rx"], decode_batches)
        for peer, filename in entry["tx"].items():
            records.tx[peer] = decode_stream(filename, decode_batches)
        data.nfs[name] = records
    for name, filename in manifest["sources"].items():
        payload = _read_stream(directory, filename, crcs)
        records = []
        for lineno, line in enumerate(payload.decode("utf-8").splitlines(), 1):
            if not line:
                continue
            try:
                raw = json.loads(line)
                records.append(
                    SourceRecord(
                        time_ns=raw["t"],
                        ipid=raw["ipid"],
                        flow=FiveTuple(*raw["flow"]),
                        target=raw["target"],
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceError(
                    f"corrupt source record {directory / filename}:{lineno}: {exc}"
                ) from exc
        data.sources[name] = records
    data.exits = decode_stream(manifest["exits"], decode_exit_records)
    return data


def batch_stream_reference(batches: Sequence[BatchRecord], delay: int = 0) -> Stream:
    times: List[int] = []
    ipids: List[int] = []
    for batch in batches:
        times.extend([batch.time_ns + delay] * len(batch.ipids))
        ipids.extend(batch.ipids)
    return times, ipids


def sanitize_streams_reference(self) -> None:
    """Validate per-NF streams; repair mild disorder, quarantine the rest.

    Works on a shallow copy of ``self.data`` so the caller's records
    are never mutated.  A quarantined NF is removed from the matching
    entirely — downstream NFs then infer drops for everything it
    carried, which is exactly how a crashed collector looks.
    """
    sane_nfs: Dict[str, NFRecords] = {}
    for name, records in self.data.nfs.items():
        streams = [records.rx] + list(records.tx.values())
        total = sum(len(s) for s in streams)
        inversions = sum(
            sum(
                1
                for i in range(len(s) - 1)
                if s[i + 1].time_ns < s[i].time_ns
            )
            for s in streams
        )
        if total and inversions / total > self.max_disorder:
            self.health.quarantined.add(name)
            self.health.completeness[name] = 0.0
            times = [b.time_ns for s in streams for b in s]
            self.health.gaps.append(
                TelemetryGap(
                    nf=name,
                    start_ns=min(times),
                    end_ns=max(times),
                    kind="quarantine",
                    count=total,
                )
            )
            continue
        if inversions:
            repaired = NFRecords(
                rx=sorted(records.rx, key=lambda b: b.time_ns),
                tx={
                    peer: sorted(batches, key=lambda b: b.time_ns)
                    for peer, batches in records.tx.items()
                },
            )
            times = [b.time_ns for s in streams for b in s]
            self.health.gaps.append(
                TelemetryGap(
                    nf=name,
                    start_ns=min(times),
                    end_ns=max(times),
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


@contextmanager
def reconstructing_through() -> Iterator[None]:
    """Inside the block every ``TraceReconstructor`` flattens its batch
    streams and validates them (tolerant mode) record by record."""
    with mock.patch.object(
        TraceReconstructor, "_batch_stream", staticmethod(batch_stream_reference)
    ), mock.patch.object(
        TraceReconstructor, "_sanitize_streams", sanitize_streams_reference
    ):
        yield
