"""Decoder fuzz: any bytes either raise ``TraceError`` or decode into
records an int64 trace column can hold.

Covers :func:`decode_batch_stream`, :func:`decode_batches` and
:func:`decode_exit_records` over arbitrary and mutated-valid buffers,
``load_collected`` over a dump whose stream file was replaced by such
bytes (manifest CRC recomputed, so the decoder — not the CRC — must
catch it), and the 63-bit bound on varints and cumulative timestamps.
CI replays it with ``--hypothesis-seed=0``.
"""

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.compression import (
    decode_batch_stream,
    decode_batches,
    decode_exit_records,
    encode_batches,
    encode_exit_records,
)
from repro.collector.persistence import load_collected, save_collected
from repro.collector.runtime import (
    BatchRecord,
    BatchStream,
    CollectedData,
    ExitRecord,
    RuntimeCollector,
)
from repro.errors import TraceError
from repro.nfv import Simulator, TrafficSource, constant_target
from repro.nfv.packet import FiveTuple
from repro.traffic import IpidSpace, PidAllocator
from repro.traffic.caida import CaidaLikeTraffic
from repro.util.rng import generator
from repro.util.timebase import MSEC
from tests.conftest import make_chain_topology

INT63 = 1 << 63
FLOW = FiveTuple.of("1.2.3.4", "5.6.7.8", 10, 20)


def varint(value: int) -> bytes:
    """LEB128 without the encoder's bound (to build out-of-range input)."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


valid_batches = st.lists(
    st.tuples(
        st.integers(0, 1 << 20),
        st.lists(st.integers(0, 0xFFFF), max_size=8),
    ),
    max_size=12,
).map(
    lambda raw: encode_batches(
        BatchRecord(t, tuple(ipids)) for t, ipids in sorted(raw, key=lambda x: x[0])
    )
)
valid_exits = st.lists(
    st.tuples(st.integers(0, 1 << 20), st.integers(0, 0xFFFF)), max_size=8
).map(
    lambda raw: encode_exit_records(
        ExitRecord(t, ipid, FLOW, "vpn1") for t, ipid in sorted(raw)
    )
)


@st.composite
def mutated(draw, valid):
    """A valid encoding with bytes flipped, runs of continuation bytes
    spliced in, and a random truncation."""
    buf = bytearray(draw(valid))
    for _ in range(draw(st.integers(0, 3))):
        if not buf:
            break
        pos = draw(st.integers(0, len(buf) - 1))
        action = draw(st.sampled_from(["flip", "splice", "cut"]))
        if action == "flip":
            buf[pos] ^= draw(st.integers(1, 255))
        elif action == "splice":
            run = draw(st.integers(1, 11))
            buf[pos:pos] = bytes([0xFF] * run + [draw(st.integers(0, 0x7F))])
        else:
            del buf[pos:]
    return bytes(buf)


@st.composite
def raw_varint(draw):
    """1–11 bytes, continuation bits set on all but the last: canonical or
    overlong, in range or far beyond 63 bits."""
    n = draw(st.integers(1, 11))
    body = draw(st.lists(st.integers(0x80, 0xFF), min_size=n - 1, max_size=n - 1))
    return bytes(body + [draw(st.integers(0, 0x7F))])


@st.composite
def framed_batches(draw):
    """Well-framed batch streams whose deltas are any varint."""
    out = bytearray()
    for _ in range(draw(st.integers(0, 6))):
        out += draw(raw_varint())
        size = draw(st.integers(0, 4))
        out += varint(size) + draw(st.binary(min_size=2 * size, max_size=2 * size))
    return bytes(out)


@st.composite
def framed_exits(draw):
    """Well-framed exit streams whose deltas are any varint."""
    out = bytearray()
    for _ in range(draw(st.integers(0, 6))):
        out += draw(raw_varint()) + draw(st.binary(min_size=15, max_size=15))
        name = draw(st.sampled_from([b"", b"vpn1", "fw-\u00e9".encode()]))
        out += varint(len(name)) + name
    return bytes(out)


def arbitrary(valid, framed):
    return st.one_of(st.binary(max_size=300), mutated(valid), framed)


def assert_holdable_batches(batches):
    previous = 0
    for batch in batches:
        assert previous <= batch.time_ns < INT63
        assert all(0 <= ipid <= 0xFFFF for ipid in batch.ipids)
        previous = batch.time_ns


def assert_holdable_exits(exits):
    for record in exits:
        assert 0 <= record.time_ns < INT63
        assert 0 <= record.ipid <= 0xFFFF
        assert isinstance(record.flow, FiveTuple)


class TestDecoderFuzz:
    @given(arbitrary(valid_batches, framed_batches()))
    @settings(max_examples=400, deadline=None)
    def test_batch_stream(self, buf):
        try:
            stream = decode_batch_stream(buf)
        except TraceError:
            return
        assert len(stream.ipids) == sum(stream.sizes)
        assert len(stream.times) == len(stream.sizes)
        assert_holdable_batches(stream)

    @given(arbitrary(valid_batches, framed_batches()))
    @settings(max_examples=200, deadline=None)
    def test_batches(self, buf):
        try:
            batches = decode_batches(buf)
        except TraceError:
            return
        assert_holdable_batches(batches)

    @given(arbitrary(valid_exits, framed_exits()))
    @settings(max_examples=400, deadline=None)
    def test_exit_records(self, buf):
        try:
            exits = decode_exit_records(buf)
        except TraceError:
            return
        assert_holdable_exits(exits)


class TestSixtyThreeBitBound:
    def test_ten_byte_varint_rejected(self):
        # Decoded to time_ns = 215045739870216870560 before the bound.
        with pytest.raises(TraceError, match="63 bits"):
            decode_batches(bytes.fromhex("a0b5d58ad0a1fcada81700"))
        with pytest.raises(TraceError, match="63 bits"):
            decode_batch_stream(varint(INT63) + b"\x00")

    def test_largest_time_round_trips(self):
        batches = [BatchRecord(INT63 - 1, (7,))]
        assert decode_batches(encode_batches(batches)) == batches
        exits = [ExitRecord(INT63 - 1, 7, FLOW, "vpn1")]
        assert decode_exit_records(encode_exit_records(exits)) == exits

    def test_cumulative_batch_time_rejected(self):
        buf = varint(INT63 - 1) + b"\x00" + varint(1) + b"\x00"
        with pytest.raises(TraceError, match="exceeds 63 bits"):
            decode_batch_stream(buf)
        with pytest.raises(TraceError, match="exceeds 63 bits"):
            decode_batches(varint(INT63 - 1) + b"\x00" + varint(300) + b"\x00")

    def test_exit_time_rejected(self):
        body = encode_exit_records([ExitRecord(0, 7, FLOW, "vpn1")])[1:]
        with pytest.raises(TraceError, match="63 bits"):
            decode_exit_records(varint(INT63) + body)
        with pytest.raises(TraceError, match="exceeds 63 bits"):
            decode_exit_records(varint(INT63 - 1) + body + varint(5) + body)

    def test_encoder_refuses_what_the_decoder_would(self):
        with pytest.raises(TraceError, match="63 bits"):
            encode_batches([BatchRecord(INT63, ())])
        with pytest.raises(TraceError, match="63 bits"):
            encode_exit_records([ExitRecord(INT63, 0, FLOW, "vpn1")])

    def test_format1_dump_names_the_file(self, tmp_path):
        """Version-1 dumps carry no CRC, so the decoder is the only check."""
        data = CollectedData(max_batch=32)
        data.nf("nat1").rx = [BatchRecord(5, (1,))]
        save_collected(data, tmp_path, durable=False)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["crc32"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        filename = manifest["nfs"]["nat1"]["rx"]
        (tmp_path / filename).write_bytes(bytes.fromhex("a0b5d58ad0a1fcada81700"))
        with pytest.raises(TraceError, match=filename.replace(".", r"\.")):
            load_collected(tmp_path)


@pytest.fixture(scope="module")
def dump():
    """A small saved collector dump (rx/tx/exit streams and a source log)."""
    topo = make_chain_topology()
    traffic = CaidaLikeTraffic(rate_pps=200_000, duration_ns=2 * MSEC, seed=5)
    schedule = traffic.generate(PidAllocator(), IpidSpace(generator(5))).schedule
    collector = RuntimeCollector()
    source = TrafficSource("src-main", schedule, constant_target("nat1"))
    Simulator(topo, [source], extra_hooks=[collector]).run()
    with tempfile.TemporaryDirectory() as root:
        directory = Path(root) / "dump"
        save_collected(collector.data, directory, durable=False)
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        yield files


class TestLoadFuzz:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_replaced_stream_is_named_or_loads(self, dump, data):
        manifest = json.loads(dump["manifest.json"])
        filename = data.draw(st.sampled_from(sorted(manifest["crc32"])), label="file")
        original = dump[filename]
        framed = framed_exits() if filename == manifest["exits"] else framed_batches()
        payload = data.draw(
            st.one_of(st.binary(max_size=300), mutated(st.just(original)), framed),
            label="payload",
        )
        manifest["crc32"][filename] = zlib.crc32(payload)
        with tempfile.TemporaryDirectory() as root:
            directory = Path(root)
            for name, content in dump.items():
                (directory / name).write_bytes(content)
            (directory / filename).write_bytes(payload)
            (directory / "manifest.json").write_text(json.dumps(manifest))
            try:
                loaded = load_collected(directory)
            except TraceError as exc:
                assert filename in str(exc)
                return
        assert isinstance(loaded, CollectedData)
        for records in loaded.nfs.values():
            for stream in [records.rx, *records.tx.values()]:
                assert isinstance(stream, BatchStream)
                assert_holdable_batches(stream)
        assert_holdable_exits(loaded.exits)

    def test_non_utf8_source_log_is_named(self, dump, tmp_path):
        manifest = json.loads(dump["manifest.json"])
        filename = manifest["sources"]["src-main"]
        for name, content in dump.items():
            (tmp_path / name).write_bytes(content)
        (tmp_path / filename).write_bytes(b"\xff\xfe{}\n")
        manifest["crc32"][filename] = zlib.crc32(b"\xff\xfe{}\n")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceError, match=filename.replace(".", r"\.")):
            load_collected(tmp_path)
