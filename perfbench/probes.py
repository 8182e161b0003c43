"""Layer probes: isolated timed passes for stages no span can reach.

Frame encode/decode runs on the sender and on the server's reader
thread; clock repair is folded into ``IncrementalTrace.ingest``.  Neither
can be wrapped from outside without editing the program, so each is
measured alone, over the workload's own records, through public
functions only.  Probe numbers are per-record costs of the stage in
isolation — they bound the stage's share, they do not sum into the span
budget.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

from repro.ingest import (
    FeedConfig,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
    TelemetryRecord,
)
from repro.net import (
    FRAME_DATA,
    FrameDecoder,
    encode_frame,
    records_from_payload,
    records_to_payload,
)

from perfbench import inputs

#: The sender's default DATA frame size.
BATCH_RECORDS = 64
#: Records a probe pass covers (a prefix of the workload's records).
PROBE_RECORDS = 16_384
PROBE_REPEATS = 3


def _batches(records: Sequence[TelemetryRecord]) -> List[List[TelemetryRecord]]:
    by_stream: Dict[str, List[TelemetryRecord]] = {}
    for record in records:
        by_stream.setdefault(record.stream, []).append(record)
    return [
        stream_records[i : i + BATCH_RECORDS]
        for stream_records in by_stream.values()
        for i in range(0, len(stream_records), BATCH_RECORDS)
    ]


def codec(records: Sequence[TelemetryRecord]) -> Dict[str, float]:
    """Frame codec cost per record, 64-record batches, each way."""
    sample = inputs.sender_clock_chaos().warp_batch(records[:PROBE_RECORDS])
    batches = _batches(sample)
    n = len(sample)
    encode_ns: List[int] = []
    decode_ns: List[int] = []
    wire_bytes = 0
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        frames = [
            encode_frame(FRAME_DATA, records_to_payload(batch[0].stream, batch))
            for batch in batches
        ]
        encode_ns.append(time.perf_counter_ns() - start)
        wire_bytes = sum(len(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = 0
        start = time.perf_counter_ns()
        for frame in frames:
            decoder.feed(frame)
            _stream, out = records_from_payload(decoder.next_frame().payload)
            decoded += len(out)
        decode_ns.append(time.perf_counter_ns() - start)
        if decoded != n:
            raise AssertionError(f"codec probe lost records: {decoded} != {n}")
    return {
        "net.wire_bytes_per_record": wire_bytes / n,
        "net.codec_encode_ns_per_record": statistics.median(encode_ns) / n,
        "net.codec_decode_ns_per_record": statistics.median(decode_ns) / n,
    }


def _ingest_ns(records: Sequence[TelemetryRecord], config: IngestConfig) -> int:
    feed = TelemetryFeed(SimTransport(records), FeedConfig())
    builder = IncrementalTrace.for_topology(inputs.chain_topology(), config)
    start = time.perf_counter_ns()
    while not builder.complete:
        feed.pump()
        builder.ingest(feed)
    elapsed = time.perf_counter_ns() - start
    # Without clock models the skewed streams make a fraction of a percent
    # of records look acausal and get rejected; with them nothing may be.
    if config.clock is not None and builder.records_applied != len(records):
        raise AssertionError(
            f"clock probe applied {builder.records_applied} of {len(records)}"
        )
    return elapsed


def clock(
    records: Sequence[TelemetryRecord], chunk_ns: int, margin_ns: int
) -> Dict[str, float]:
    """What the online clock layer adds per record: clocked minus
    unclocked in-process ingest of the same warped records."""
    sample = inputs.sender_clock_chaos().warp_batch(records[:PROBE_RECORDS])
    plain = IngestConfig(chunk_ns=chunk_ns, seal_margin_ns=margin_ns)
    clocked = IngestConfig(
        chunk_ns=chunk_ns, seal_margin_ns=margin_ns, clock=inputs.CLOCK_CONFIG
    )
    off = statistics.median(_ingest_ns(sample, plain) for _ in range(PROBE_REPEATS))
    on = statistics.median(_ingest_ns(sample, clocked) for _ in range(PROBE_REPEATS))
    return {"time.clock_ns_per_record": (on - off) / len(sample)}
