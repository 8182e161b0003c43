"""Persisting collected records to disk (the dumper's output format).

The paper's runtime collector writes to shared memory and a standalone
dumper stores records on disk for offline diagnosis.  This module defines
that on-disk layout: one file per record stream using the compressed codec
from :mod:`repro.collector.compression`, plus a small JSON manifest tying
them together.  ``save_collected`` / ``load_collected`` round-trip a whole
:class:`~repro.collector.runtime.CollectedData`, so collection and
diagnosis can run in separate processes (or days apart).

Crash-only discipline (format version 2): every file — streams and the
manifest — is written via temp + fsync + ``os.replace``, so a dumper killed
mid-write never leaves a torn file behind, only a complete old or new one
(plus ignorable ``*.tmp-*`` orphans).  The manifest records a CRC32 per
stream file; ``load_collected`` verifies each stream before decoding and a
corrupted or truncated file raises :class:`~repro.errors.TraceError`
*naming the file* instead of decoding garbage into the diagnosis.  Version
1 directories (no CRCs) still load.

Loading decodes each batch stream once, straight into a
:class:`~repro.collector.runtime.BatchStream` (columns, no record per
batch), and builds one :class:`~repro.nfv.packet.FiveTuple` per distinct
flow, shared by the source logs and the exit records.
"""

from __future__ import annotations

import json
import zlib
from functools import partial
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.collector.compression import (
    decode_batch_stream,
    decode_exit_records,
    encode_batches,
    encode_exit_records,
)
from repro.collector.runtime import CollectedData, NFRecords, SourceRecord
from repro.errors import TraceError
from repro.nfv.packet import FiveTuple
from repro.util.atomicio import atomic_write_bytes, atomic_write_text

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 2
_LOADABLE_VERSIONS = (1, 2)


def _stream_filename(kind: str, node: str, peer: str = "") -> str:
    safe_node = node.replace("/", "_")
    safe_peer = peer.replace("/", "_") if peer else ""
    if kind == "rx":
        return f"rx__{safe_node}.bin"
    if kind == "tx":
        return f"tx__{safe_node}__{safe_peer or 'EXIT'}.bin"
    raise TraceError(f"unknown stream kind {kind!r}")


def save_collected(
    data: CollectedData, directory: Union[str, Path], durable: bool = True
) -> Path:
    """Write all record streams plus a manifest into ``directory``.

    Every file lands atomically; the manifest (carrying each stream's
    CRC32) is written last, so a crashed save is indistinguishable from no
    save — the previous manifest, if any, still describes complete files.
    ``durable=False`` skips fsyncs (tests); atomicity is unaffected.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    crcs: Dict[str, int] = {}

    def write_stream(filename: str, payload: bytes) -> None:
        crcs[filename] = zlib.crc32(payload)
        atomic_write_bytes(directory / filename, payload, durable=durable)

    manifest: Dict[str, object] = {
        "format_version": _FORMAT_VERSION,
        "max_batch": data.max_batch,
        "nfs": {},
        "sources": {},
        "exits": "exits.bin",
    }
    for name, records in data.nfs.items():
        entry: Dict[str, object] = {"rx": _stream_filename("rx", name), "tx": {}}
        write_stream(entry["rx"], encode_batches(records.rx))
        for peer, batches in records.tx.items():
            filename = _stream_filename("tx", name, peer)
            entry["tx"][peer] = filename
            write_stream(filename, encode_batches(batches))
        manifest["nfs"][name] = entry
    for name, records in data.sources.items():
        filename = f"src__{name}.jsonl"
        manifest["sources"][name] = filename
        lines = []
        for record in records:
            lines.append(
                json.dumps(
                    {
                        "t": record.time_ns,
                        "ipid": record.ipid,
                        "flow": record.flow.as_tuple(),
                        "target": record.target,
                    }
                )
            )
        write_stream(filename, ("\n".join(lines) + "\n" if lines else "").encode())
    write_stream("exits.bin", encode_exit_records(data.exits))
    manifest["crc32"] = crcs
    atomic_write_text(
        directory / _MANIFEST, json.dumps(manifest, indent=2), durable=durable
    )
    return directory / _MANIFEST


def _read_stream(
    directory: Path, filename: str, crcs: Optional[Dict[str, int]]
) -> bytes:
    """Read one stream file, CRC-checked against the manifest when present."""
    path = directory / filename
    if not path.exists():
        raise TraceError(f"missing record stream {path}")
    payload = path.read_bytes()
    if crcs is not None and filename in crcs:
        actual = zlib.crc32(payload)
        if actual != crcs[filename]:
            raise TraceError(
                f"corrupted record stream {path}: crc32 {actual:#010x} != "
                f"manifest {crcs[filename]:#010x}"
            )
    return payload


def load_collected(directory: Union[str, Path]) -> CollectedData:
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
        records.rx = decode_stream(entry["rx"], decode_batch_stream)
        for peer, filename in entry["tx"].items():
            records.tx[peer] = decode_stream(filename, decode_batch_stream)
        data.nfs[name] = records
    # One FiveTuple per distinct flow (its range check runs once per key).
    flows: Dict[Tuple[int, ...], FiveTuple] = {}
    for name, filename in manifest["sources"].items():
        payload = _read_stream(directory, filename, crcs)
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"corrupt source records {directory / filename}: {exc}"
            ) from exc
        records = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line:
                continue
            try:
                raw = json.loads(line)
                key = tuple(raw["flow"])
                flow = flows.get(key)
                if flow is None:
                    flow = flows[key] = FiveTuple(*key)
                records.append(
                    SourceRecord(
                        time_ns=raw["t"],
                        ipid=raw["ipid"],
                        flow=flow,
                        target=raw["target"],
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceError(
                    f"corrupt source record {directory / filename}:{lineno}: {exc}"
                ) from exc
        data.sources[name] = records
    data.exits = decode_stream(
        manifest["exits"], partial(decode_exit_records, flows=flows)
    )
    return data
