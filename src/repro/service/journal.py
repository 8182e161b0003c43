"""Append-only results journal: the service's durable diagnosis output.

One JSON line per diagnosed chunk, each line carrying a CRC32 of its body.
The journal is the write-ahead half of the crash-only protocol:

1. append the chunk's results, flush, fsync — the *journal* is now ahead,
2. commit a checkpoint recording the journal byte offset after the append.

A crash between (1) and (2) leaves a tail the last checkpoint does not
cover; recovery truncates the journal back to the checkpointed offset and
re-runs the chunk, which re-appends byte-identical lines (diagnosis is
deterministic).  A torn append — half a line — lands in that same
discarded tail, so line-level CRCs only ever fire on real corruption
*behind* a checkpoint, which is unrecoverable data damage and raises
:class:`~repro.errors.ServiceError` naming the file and line.

Victims and diagnoses ride the engine's compact wire format
(:func:`repro.core.diagnosis.diagnosis_to_wire`).  The wire tuples go to
the JSON encoder as they are — it writes a tuple as an array — and
:func:`decode_diagnoses` turns the arrays back into tuples on read, so
journalled results reconstruct to field-exact
:class:`~repro.core.diagnosis.VictimDiagnosis` objects.

**Commit-path contract.**  A record is serialised once: ``append`` encodes
the body, takes the CRC over exactly the bytes it is about to write and
frames the line around them.  Nothing on the commit path reads the journal
back; it is read on resume (tally rebuild, the report's prefix), when
compaction folds sealed segments, and by offline recomputation
(``tally_from_journal``, health reports).

**Bounded disk (segment rotation + compaction).**  A week-long run cannot
append to one file forever.  With ``rotate_bytes`` set, the active file
(``journal.jsonl``) is sealed once it reaches the threshold: it is
renamed into ``journal.d/seg-%08d.jsonl`` and a sidecar
``seg-%08d.meta.json`` records its byte count, CRC32 and *chain* CRC
(each segment's CRC folded over its predecessor's chain, rooted at the
compaction header), then a fresh active file starts.  Offsets handed to
callers are **logical** — byte positions in the virtual concatenation of
every segment plus the active file — so checkpoints, tally digests and
truncation work unchanged across rotation, and ``read_bytes()`` returns
the identical bytes a never-rotated journal holds.

Sidecar metas are *pure caches* of derived data: a crash between the
rename and the meta write simply leaves a segment whose meta is
recomputed from its bytes on the next open.  Nothing in the rotation path
ever rewrites record bytes, so it inherits the append path's crash
story for free.

``compact()`` bounds total disk: sealed segments wholly behind a caller-
supplied floor (the oldest offset any retained checkpoint still needs)
are *folded* — their chunk records are replayed into a running tally
whose payload is stored in ``journal.d/COMPACT.json`` together with the
new retained-from offset and the chain CRC at the fold point — and then
deleted.  ``tally_from_journal`` seeds from that header and replays the
retained suffix, so offline recomputation still reproduces the service's
exact aggregation state; only the per-chunk diagnosis records behind the
floor are gone, which is precisely the data bounded disk must give up.
A crash after the header commits but before the unlinks leaves orphan
segments below the retained floor; they are swept on the next open.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.diagnosis import (
    VictimDiagnosis,
    diagnosis_from_wire,
    diagnosis_to_wire,
)
from repro.core.victims import Victim
from repro.errors import ServiceError, StorageError
from repro.util.atomicio import atomic_write_bytes, fsync_dir


def victim_to_wire(victim: Victim) -> Tuple[int, str, str, int, float]:
    return (victim.pid, victim.nf, victim.kind, victim.arrival_ns, victim.metric)


def victim_from_wire(wire) -> Victim:
    pid, nf, kind, arrival_ns, metric = wire
    return Victim(
        pid=int(pid),
        nf=nf,
        kind=kind,
        arrival_ns=int(arrival_ns),
        metric=float(metric),
    )


def _tupleize(obj):
    """JSON arrays back to wire tuples (the read side only: the encoder
    writes tuples as arrays unaided)."""
    if isinstance(obj, list):
        return tuple(_tupleize(item) for item in obj)
    return obj


def chunk_record(
    result,
    shed_pids: Tuple[int, ...] = (),
    ingest_sheds: Tuple = (),
    ingest_evictions: int = 0,
) -> dict:
    """JSON body for one :class:`~repro.core.streaming.ChunkResult`.

    ``ingest_sheds`` lists telemetry records the live feed shed under
    overload whose timestamps fall in this chunk, as
    ``(stream, seq, time_ns, kind)`` tuples.  ``ingest_evictions`` is the
    *cumulative* count of builder state evicted by watermark pruning as
    of this chunk's boundary (cumulative, not per-chunk: increments are
    path-dependent across restarts, totals are not).  Both keys are
    present only when non-zero, so clean journals stay byte-identical to
    ones from services without the features enabled.
    """
    body = {
        "start_ns": result.start_ns,
        "end_ns": result.end_ns,
        "victims": [victim_to_wire(v) for v in result.victims],
        "diagnoses": [diagnosis_to_wire(d) for d in result.diagnoses],
        "shed_pids": list(shed_pids),
        "margin_exceeded": result.margin_exceeded,
        "telemetry_completeness": result.telemetry_completeness,
        "quarantined_nfs": list(result.quarantined_nfs),
        "low_evidence_culprits": result.low_evidence_culprits,
    }
    if ingest_sheds:
        body["ingest_sheds"] = [list(shed) for shed in ingest_sheds]
    if ingest_evictions:
        body["ingest_evictions"] = ingest_evictions
    return body


def tally_record(tally) -> dict:
    """JSON body of a rolling-tally snapshot (checkpoint size bounding).

    Snapshot records interleave with chunk records in the journal;
    ``kind`` distinguishes them (chunk bodies have no ``kind`` key), and
    readers that want diagnoses skip them.
    """
    return {"kind": "tally", "tally": tally.to_payload()}


def dead_letter_record(
    cause: str,
    attempts: int,
    start_ns: int,
    end_ns: int,
    victims: Tuple[Victim, ...] = (),
) -> dict:
    """JSON body for a chunk abandoned after exhausting its retries.

    The dead letter takes the chunk's slot in the journal so the record
    stream stays dense and recovery stays byte-identical: re-running the
    chunk after a crash deterministically fails the same way and re-
    appends the same record.  ``victims`` preserves what the chunk would
    have diagnosed, for post-mortem triage.
    """
    return {
        "kind": "chunk_failed",
        "cause": cause,
        "attempts": attempts,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "victims": [victim_to_wire(v) for v in victims],
    }


def decode_diagnoses(
    body: dict, chunk_index: Optional[int] = None
) -> List[VictimDiagnosis]:
    """Rebuild the chunk's diagnoses from a journalled body.

    Diagnosis order is victim order within a chunk (``diagnose_all``
    contract) and shed victims are journalled as ``shed_pids``, never in
    ``victims``, so the two lists pair one to one.  A body where they do
    not is damage a CRC cannot see (it was written that way); it is
    refused rather than read as the shorter list.
    """
    victims, wires = body["victims"], body["diagnoses"]
    if len(victims) != len(wires):
        which = "" if chunk_index is None else f" {chunk_index}"
        raise ServiceError(
            f"journalled chunk{which} [{body.get('start_ns')}, "
            f"{body.get('end_ns')}) ns pairs {len(victims)} victims with "
            f"{len(wires)} diagnoses"
        )
    return [
        diagnosis_from_wire(victim_from_wire(victim), _tupleize(wire))
        for victim, wire in zip(victims, wires)
    ]


def _decoded_chunks(
    records: Iterator[Tuple[int, dict, int]]
) -> Iterator[Tuple[int, List[VictimDiagnosis]]]:
    """(end offset, diagnoses) for each diagnosed chunk among ``records``
    — tally snapshots and dead letters carry a ``kind`` and no diagnoses."""
    for chunk_index, body, end in records:
        if "kind" not in body:
            yield end, decode_diagnoses(body, chunk_index)


def _write_all(handle, data: bytes) -> None:
    """Single append-path write seam for ENOSPC fault injection.

    Monkeypatching this to raise :class:`OSError` models a full disk mid-
    append; :meth:`ResultJournal.append` then truncates the active file
    back to its pre-append offset and raises
    :class:`~repro.errors.StorageError`, leaving the journal exactly as
    the last committed checkpoint describes it.
    """
    handle.write(data)


_SEG_STEM = "seg-"
_COMPACT_NAME = "COMPACT.json"


@dataclass(frozen=True)
class _Segment:
    """One sealed, immutable journal segment (derived meta included)."""

    index: int
    path: Path
    base_offset: int  # logical offset of the segment's first byte
    nbytes: int
    crc32: int
    chain: int  # crc32 of the bytes folded over the previous chain


class ResultJournal:
    """CRC-guarded append-only JSONL store with offset-based truncation.

    Physically one active file plus optional sealed segments under
    ``<path stem>.d/`` (see the module docstring); logically a single
    byte stream — every offset in the public API is a position in that
    stream.  A journal that never rotates is a plain single file,
    byte-identical to earlier versions of this class.
    """

    def __init__(self, path: Union[str, Path], durable: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.segment_dir = self.path.with_suffix(".d")
        self._segments: List[_Segment] = []
        self._compact: Optional[dict] = None
        self._retained_from = 0
        self._active_base = 0
        self._load_layout()

    # -- layout -----------------------------------------------------------------

    def _meta_path(self, index: int) -> Path:
        return self.segment_dir / f"{_SEG_STEM}{index:08d}.meta.json"

    def _load_layout(self) -> None:
        """Scan the segment directory: heal missing/stale metas, sweep
        orphans below the compaction floor, compute the active base."""
        if not self.segment_dir.is_dir():
            return
        first_index = 1
        chain = 0
        compact_path = self.segment_dir / _COMPACT_NAME
        if compact_path.exists():
            try:
                self._compact = json.loads(compact_path.read_bytes())
            except ValueError as exc:
                raise ServiceError(
                    f"corrupt compaction header {compact_path}: {exc}"
                ) from exc
            self._retained_from = int(self._compact["retained_from"])
            first_index = int(self._compact["retained_index"])
            chain = int(self._compact["chain"])
        base = self._retained_from
        expected = first_index
        for seg_path in sorted(self.segment_dir.glob(f"{_SEG_STEM}*.jsonl")):
            index = int(seg_path.stem.split("-", 1)[1])
            if index < first_index:
                # Orphan below the compaction floor: the fold's header
                # committed but the crash beat the unlinks.  Finish the job.
                seg_path.unlink()
                meta = self._meta_path(index)
                if meta.exists():
                    meta.unlink()
                continue
            if index != expected:
                raise ServiceError(
                    f"journal segment gap in {self.segment_dir}: expected "
                    f"{_SEG_STEM}{expected:08d}, found {seg_path.name}"
                )
            seg = self._load_segment(index, seg_path, base, chain)
            self._segments.append(seg)
            base = seg.base_offset + seg.nbytes
            chain = seg.chain
            expected = index + 1
        self._active_base = base

    def _load_segment(
        self, index: int, seg_path: Path, base: int, prev_chain: int
    ) -> _Segment:
        nbytes = seg_path.stat().st_size
        meta_path = self._meta_path(index)
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_bytes())
            except ValueError:
                meta = None  # torn meta: a derived cache, recompute below
            if (
                meta is not None
                and meta.get("nbytes") == nbytes
                and isinstance(meta.get("crc32"), int)
                and isinstance(meta.get("chain"), int)
            ):
                return _Segment(
                    index, seg_path, base, nbytes, meta["crc32"], meta["chain"]
                )
        return self._seal_meta(index, seg_path, base, prev_chain)

    def _seal_meta(
        self, index: int, seg_path: Path, base: int, prev_chain: int
    ) -> _Segment:
        """(Re)derive and persist a segment's meta from its bytes."""
        data = seg_path.read_bytes()
        crc = zlib.crc32(data)
        chain = zlib.crc32(data, prev_chain)
        meta = {
            "version": 1,
            "index": index,
            "base_offset": base,
            "nbytes": len(data),
            "crc32": crc,
            "chain": chain,
        }
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        try:
            atomic_write_bytes(
                self._meta_path(index), blob.encode("utf-8"),
                durable=self.durable,
            )
        except OSError as exc:
            raise StorageError(
                f"journal meta write for segment {index} failed: {exc}"
            ) from exc
        return _Segment(index, seg_path, base, len(data), crc, chain)

    # -- geometry ---------------------------------------------------------------

    def _active_size(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def size(self) -> int:
        """Logical end offset: sealed segments plus the active file."""
        return self._active_base + self._active_size()

    @property
    def retained_from(self) -> int:
        """Oldest logical offset still on disk (0 unless compacted)."""
        return self._retained_from

    def segments(self) -> List[dict]:
        """Sealed-segment inventory (health reporting, chain audits)."""
        return [
            {
                "index": seg.index,
                "base_offset": seg.base_offset,
                "nbytes": seg.nbytes,
                "crc32": seg.crc32,
                "chain": seg.chain,
            }
            for seg in self._segments
        ]

    def compaction_info(self) -> Optional[dict]:
        """The compaction header minus its tally payload, or None."""
        if self._compact is None:
            return None
        return {
            key: self._compact[key]
            for key in (
                "retained_from",
                "retained_index",
                "chain",
                "segments_folded",
                "chunks_folded",
                "bytes_folded",
            )
        }

    def compacted_tally_payload(self) -> Optional[dict]:
        """Tally payload folded by compaction (seed for offline replay)."""
        return None if self._compact is None else self._compact["tally"]

    def dir_bytes(self) -> int:
        """Actual bytes on disk across every journal artifact."""
        total = self._active_size()
        if self.segment_dir.is_dir():
            for entry in self.segment_dir.iterdir():
                try:
                    total += entry.stat().st_size
                except FileNotFoundError:
                    pass
        return total

    def verify_chain(self) -> int:
        """Recompute every sealed segment's CRC chain from its bytes.

        Returns the number of segments verified; raises
        :class:`~repro.errors.ServiceError` on any divergence between
        bytes and recorded metas (real corruption, not a crash artifact).
        """
        chain = 0 if self._compact is None else int(self._compact["chain"])
        for seg in self._segments:
            data = seg.path.read_bytes()
            crc = zlib.crc32(data)
            chain = zlib.crc32(data, chain)
            if len(data) != seg.nbytes or crc != seg.crc32 or chain != seg.chain:
                raise ServiceError(
                    f"journal segment {seg.path} fails chain verification"
                )
        return len(self._segments)

    def truncate_to(self, offset: int) -> int:
        """Discard everything past logical ``offset``; returns bytes discarded.

        ``offset`` beyond the current size means the journal lost data the
        checkpoint relies on — the caller must fall down the recovery
        ladder, so this raises rather than papering over it.  ``offset``
        below the compaction floor is equally unrecoverable: those bytes
        were folded away, which the compaction floor (derived from the
        same checkpoint ladder) exists to prevent.

        Truncating into a sealed segment *unseals* it: later segments and
        the active file are dropped and the containing segment becomes the
        active file again, so recovery after a crash-at-rotation resumes
        appending exactly where the checkpoint says.
        """
        size = self.size()
        if offset > size:
            raise ServiceError(
                f"journal {self.path} is {size} bytes but the checkpoint "
                f"requires {offset}: journal data was lost"
            )
        if offset < self._retained_from:
            raise ServiceError(
                f"journal offset {offset} in {self.path} was compacted away "
                f"(retained from {self._retained_from})"
            )
        if offset == size:
            return 0
        if offset >= self._active_base:
            with open(self.path, "r+b") as handle:
                handle.truncate(offset - self._active_base)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            return size - offset
        discarded = size - offset
        keep: List[_Segment] = []
        reopen: Optional[_Segment] = None
        for seg in self._segments:
            if seg.base_offset + seg.nbytes <= offset:
                keep.append(seg)
            elif reopen is None and seg.base_offset <= offset:
                reopen = seg
            else:
                seg.path.unlink()
                meta = self._meta_path(seg.index)
                if meta.exists():
                    meta.unlink()
        if self.path.exists():
            self.path.unlink()
        if reopen is not None:
            meta = self._meta_path(reopen.index)
            if meta.exists():
                meta.unlink()
            os.replace(reopen.path, self.path)
            with open(self.path, "r+b") as handle:
                handle.truncate(offset - reopen.base_offset)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            self._active_base = reopen.base_offset
        else:
            self._active_base = offset
        self._segments = keep
        if self.durable:
            fsync_dir(self.segment_dir)
            fsync_dir(self.path.parent)
        return discarded

    # -- writing ----------------------------------------------------------------

    @staticmethod
    def _encode_line(chunk_index: int, body: dict) -> bytes:
        """One journal line, its body serialised once.

        The CRC covers exactly the body bytes the line carries, and the
        frame around them is what ``json.dumps`` with ``sort_keys`` writes
        for ``{"chunk": .., "crc32": .., "body": ..}`` — the format has not
        changed (``tests/oracles/journal.py`` holds the two-pass encoder
        this is pinned to).  ``ensure_ascii`` output is ASCII, so its bytes
        are its UTF-8 bytes.
        """
        blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
            "ascii"
        )
        return b'{"body":%b,"chunk":%d,"crc32":%d}\n' % (
            blob, chunk_index, zlib.crc32(blob),
        )

    def append(
        self, chunk_index: int, body: dict, faults=None
    ) -> int:
        """Append one chunk record; returns the logical offset after it.

        The append is flushed and fsynced before returning, so a
        subsequently-committed checkpoint never points past durable data.
        ``faults`` may tear the write (crash simulation): the partial line
        is written and the injector raises, modelling a power cut.  A
        storage failure (ENOSPC, short write) rolls the active file back
        to its pre-append offset and raises
        :class:`~repro.errors.StorageError` — the journal still matches
        the last committed checkpoint exactly.
        """
        data = self._encode_line(chunk_index, body)
        torn = None
        if faults is not None:
            torn = faults.torn_bytes("mid-journal", chunk_index, data)
        pre = self._active_size()
        try:
            with open(self.path, "ab") as handle:
                _write_all(handle, data if torn is None else torn[0])
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
                offset = self._active_base + handle.tell()
        except OSError as exc:
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(pre)
                    handle.flush()
                    if self.durable:
                        os.fsync(handle.fileno())
            except OSError:
                pass  # nothing written past ``pre`` to roll back
            raise StorageError(
                f"journal append to {self.path} failed ({exc}); rolled back "
                f"to offset {self._active_base + pre}"
            ) from exc
        if torn is not None:
            raise torn[1]
        return offset

    # -- rotation & compaction --------------------------------------------------

    def maybe_rotate(
        self, rotate_bytes: int, faults=None, chunk_index: int = -1
    ) -> bool:
        """Seal the active file into a segment once it reaches
        ``rotate_bytes`` (0 disables).  Returns True when rotated."""
        if rotate_bytes <= 0 or self._active_size() < rotate_bytes:
            return False
        self.rotate(faults=faults, chunk_index=chunk_index)
        return True

    def rotate(self, faults=None, chunk_index: int = -1) -> None:
        """Seal the current active file as the next numbered segment.

        Rename-first: the record bytes move atomically, then the derived
        meta is written.  A crash between the two leaves a segment whose
        meta is healed from its bytes on the next open — no state in this
        path can require repair.
        """
        if self._active_size() == 0:
            return
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        if self._segments:
            index = self._segments[-1].index + 1
            prev_chain = self._segments[-1].chain
        elif self._compact is not None:
            index = int(self._compact["retained_index"])
            prev_chain = int(self._compact["chain"])
        else:
            index = 1
            prev_chain = 0
        if faults is not None:
            faults.kill("journal-rotate", chunk_index)
        seg_path = self.segment_dir / f"{_SEG_STEM}{index:08d}.jsonl"
        os.replace(self.path, seg_path)
        if self.durable:
            fsync_dir(self.segment_dir)
            fsync_dir(self.path.parent)
        seg = self._seal_meta(index, seg_path, self._active_base, prev_chain)
        self._segments.append(seg)
        self._active_base += seg.nbytes
        if faults is not None:
            faults.kill("after-rotate", chunk_index)

    def compact(
        self, floor: int, seed_tally=None, faults=None, chunk_index: int = -1
    ) -> int:
        """Fold sealed segments wholly below logical ``floor`` into the
        compaction header, then delete them; returns bytes reclaimed.

        ``floor`` must not exceed any offset recovery can still ask for —
        the service derives it from the oldest offset across its retained
        checkpoint generations (journal offset and tally-snapshot offset
        alike).  The fold replays the candidates' chunk records into a
        tally seeded from the previous header (or ``seed_tally`` — an
        empty tally of the class the service aggregates with — on the
        first fold), so offline recomputation via ``tally_from_journal``
        keeps producing the exact running aggregate.

        Commit point is the atomic header replace: a crash before it
        changes nothing, a crash after it leaves orphan segments that the
        next open sweeps.
        """
        candidates = [
            seg
            for seg in self._segments
            if seg.base_offset + seg.nbytes <= floor
        ]
        if not candidates:
            return 0
        # local import: repro.aggregation must stay importable without
        # the service layer, so the dependency points this way only.
        from repro.aggregation.sketches import tally_from_payload

        if self._compact is not None:
            tally = tally_from_payload(self._compact["tally"])
            segments_folded = int(self._compact["segments_folded"])
            chunks_folded = int(self._compact["chunks_folded"])
            bytes_folded = int(self._compact["bytes_folded"])
        else:
            if seed_tally is None:
                from repro.aggregation.tallies import CulpritTally

                seed_tally = CulpritTally()
            tally = seed_tally
            segments_folded = chunks_folded = bytes_folded = 0
        for seg in candidates:
            records = self._file_records(seg.path, seg.base_offset, 0)
            for _end, diagnoses in _decoded_chunks(records):
                tally.update(diagnoses)
                chunks_folded += 1
        last = candidates[-1]
        header = {
            "version": 1,
            "retained_from": last.base_offset + last.nbytes,
            "retained_index": last.index + 1,
            "chain": last.chain,
            "tally": tally.to_payload(),
            "segments_folded": segments_folded + len(candidates),
            "chunks_folded": chunks_folded,
            "bytes_folded": bytes_folded + sum(s.nbytes for s in candidates),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
        if faults is not None:
            faults.kill("journal-compact", chunk_index)
        tear = None
        if faults is not None:
            tear = lambda data: faults.torn_bytes(
                "mid-compact", chunk_index, data
            )
        try:
            atomic_write_bytes(
                self.segment_dir / _COMPACT_NAME,
                blob.encode("utf-8"),
                durable=self.durable,
                tear=tear,
            )
        except OSError as exc:
            raise StorageError(
                f"journal compaction header write failed: {exc}"
            ) from exc
        self._compact = header
        self._retained_from = header["retained_from"]
        if faults is not None:
            faults.kill("after-compact", chunk_index)
        reclaimed = 0
        for seg in candidates:
            reclaimed += seg.nbytes
            seg.path.unlink()
            meta = self._meta_path(seg.index)
            if meta.exists():
                meta.unlink()
        self._segments = self._segments[len(candidates):]
        if self.durable:
            fsync_dir(self.segment_dir)
        return reclaimed

    # -- reading ----------------------------------------------------------------

    @staticmethod
    def _decode_line(raw: bytes, where: str) -> Tuple[int, dict]:
        try:
            record = json.loads(raw)
            body = record["body"]
            crc = record["crc32"]
            chunk_index = record["chunk"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ServiceError(f"corrupt journal line {where}: {exc}") from exc
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(blob.encode("utf-8")) != crc:
            raise ServiceError(f"journal CRC mismatch at {where}")
        return chunk_index, body

    def _file_records(
        self, path: Path, base: int, local: int
    ) -> Iterator[Tuple[int, dict, int]]:
        """(chunk_index, body, logical end offset) for each line of one
        physical file (logical offset ``base``), from byte ``local`` on."""
        end = base + local
        with open(path, "rb") as handle:
            if local:
                handle.seek(local)
            for lineno, raw in enumerate(handle, 1):
                end += len(raw)
                chunk_index, body = self._decode_line(
                    raw, f"{path}:{lineno}(+{local}B)"
                )
                yield chunk_index, body, end

    def _located_records(
        self, start_offset: Optional[int]
    ) -> Iterator[Tuple[int, dict, int]]:
        """:meth:`records` plus the logical offset each record ends at."""
        if start_offset is None:
            start_offset = self._retained_from
        elif start_offset < self._retained_from:
            raise ServiceError(
                f"journal offset {start_offset} in {self.path} was "
                f"compacted away (retained from {self._retained_from})"
            )
        for seg in self._segments:
            if seg.base_offset + seg.nbytes <= start_offset:
                continue
            yield from self._file_records(
                seg.path, seg.base_offset, max(0, start_offset - seg.base_offset)
            )
        if self.path.exists():
            yield from self._file_records(
                self.path,
                self._active_base,
                max(0, start_offset - self._active_base),
            )

    def records(
        self, start_offset: Optional[int] = None
    ) -> Iterator[Tuple[int, dict]]:
        """Yield (chunk_index, body) pairs, CRC-verified.

        ``start_offset`` must be a line boundary (a previously returned
        append/record offset); reading resumes there, which is how the
        tally digest replays only the records after its last snapshot.
        None starts at the oldest retained offset; an explicit offset
        below the compaction floor raises — those records are gone and
        silently skipping them would misreport history.
        """
        for chunk_index, body, _end in self._located_records(start_offset):
            yield chunk_index, body

    def chunk_diagnoses(
        self, start_offset: Optional[int] = None
    ) -> Iterator[Tuple[int, List[VictimDiagnosis]]]:
        """Yield (end offset, diagnoses) per diagnosed chunk record from
        ``start_offset`` on (as in :meth:`records`); tally snapshots and
        dead letters are skipped.  The end offset is what :meth:`append`
        returned for the record — at or below ``retained_from`` once
        compaction has folded it."""
        return _decoded_chunks(self._located_records(start_offset))

    def record_at(self, offset: int) -> Tuple[int, dict, int]:
        """The record starting at logical ``offset``: (chunk, body, next)."""
        if offset < self._retained_from:
            raise ServiceError(
                f"journal offset {offset} in {self.path} was compacted away "
                f"(retained from {self._retained_from})"
            )
        if offset >= self.size():
            raise ServiceError(
                f"journal {self.path} has no record at offset {offset}"
            )
        for seg in self._segments:
            if seg.base_offset <= offset < seg.base_offset + seg.nbytes:
                with open(seg.path, "rb") as handle:
                    handle.seek(offset - seg.base_offset)
                    raw = handle.readline()
                    chunk_index, body = self._decode_line(
                        raw, f"{seg.path}@{offset}B"
                    )
                    return chunk_index, body, seg.base_offset + handle.tell()
        with open(self.path, "rb") as handle:
            handle.seek(offset - self._active_base)
            raw = handle.readline()
            chunk_index, body = self._decode_line(raw, f"{self.path}@{offset}B")
            return chunk_index, body, self._active_base + handle.tell()

    def diagnoses(self) -> List[VictimDiagnosis]:
        """Every retained journalled diagnosis, in chunk order."""
        return [d for _end, chunk in self.chunk_diagnoses() for d in chunk]

    def read_bytes(self) -> bytes:
        """The retained logical byte stream: sealed segments + active file."""
        parts = [seg.path.read_bytes() for seg in self._segments]
        if self.path.exists():
            parts.append(self.path.read_bytes())
        return b"".join(parts)
