"""ChaosProxy: no seeded fault schedule may change what gets delivered.

Each fault family runs individually at an aggressive rate, then the
mixed-rate acceptance scenario (resets + partial frames + reorder +
duplication, seeded) drives a feed + builder and must seal the exact
chunks an offline SimTransport run seals — the whole point of the
network plane's at-least-once/dedup contract.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import IngestError
from repro.ingest import (
    FeedConfig,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
)
from repro.net import (
    FRAME_DATA,
    FRAME_HELLO,
    ChaosConfig,
    ChaosProxy,
    RecordSender,
    SenderConfig,
    SocketIngestServer,
    encode_frame,
    records_to_payload,
)
from tests.net.test_socket_transport import burst, drain_all
from tests.net.test_resume import run_sender


RECORDS = burst("a", 600, step_ns=20) + burst("b", 300, step_ns=20)


def reference_delivery():
    return drain_all(TelemetryFeed(SimTransport(RECORDS), FeedConfig()))


def run_through_proxy(chaos_config, records=RECORDS, seed=5):
    with SocketIngestServer(["a", "b"]) as server:
        with ChaosProxy(server.address, chaos_config) as proxy:
            run_sender(proxy.address, records, seed=seed)
            delivered = drain_all(
                TelemetryFeed(server.transport(), FeedConfig())
            )
            return delivered, proxy.stats, server.stats


def run_fixed_frames_through_proxy(chaos_config, frames):
    """Push pre-encoded frames through the proxy from a raw socket.

    No window, no ACK dependence, no resends: the proxy sees exactly
    ``frames`` on one connection, whatever the timing.  Returns once the
    proxy has closed the connection, i.e. after it forwarded everything.
    """
    with SocketIngestServer(["a", "b"]) as server:
        with ChaosProxy(server.address, chaos_config) as proxy:
            with socket.create_connection(proxy.address, timeout=10.0) as sock:
                sock.sendall(b"".join(frames))
                sock.shutdown(socket.SHUT_WR)
                try:
                    while sock.recv(65536):  # the server's ACKs, unread
                        pass
                except ConnectionResetError:
                    pass
            return proxy.stats


class TestFaultFamilies:
    def test_duplicated_frames_deduped(self):
        delivered, chaos, server = run_through_proxy(
            ChaosConfig(dup_prob=0.5, seed=1)
        )
        assert delivered == reference_delivery()
        assert chaos.dups > 0
        assert server.duplicates > 0  # the dedup path really ran

    def test_reordered_frames_reassembled(self):
        delivered, chaos, server = run_through_proxy(
            ChaosConfig(reorder_prob=0.6, seed=2)
        )
        assert delivered == reference_delivery()
        assert chaos.reorders > 0

    def test_delay_and_jitter_harmless(self):
        delivered, chaos, _server = run_through_proxy(
            ChaosConfig(delay_prob=0.5, max_delay_s=0.002, seed=3)
        )
        assert delivered == reference_delivery()
        assert chaos.delays > 0

    def test_resets_resumed(self):
        delivered, chaos, _server = run_through_proxy(
            ChaosConfig(reset_prob=0.02, seed=4)
        )
        assert delivered == reference_delivery()
        assert chaos.resets > 0

    def test_partial_frames_resumed(self):
        delivered, chaos, server = run_through_proxy(
            ChaosConfig(partial_prob=0.02, seed=5)
        )
        assert delivered == reference_delivery()
        assert chaos.partials > 0
        # A torn frame either dies incomplete in the server's decoder
        # buffer (EOF) or trips the CRC; both end as a reconnect, and
        # either way no half-frame ever decodes into records.
        assert server.records_received >= len(RECORDS)

    def test_mixed_chaos_converges(self):
        delivered, chaos, server = run_through_proxy(
            ChaosConfig.uniform(0.10, seed=6)
        )
        assert delivered == reference_delivery()
        assert chaos.faults > 0

    def test_same_seed_same_fault_schedule_shape(self):
        # The per-connection draws are seeded by (seed, connection index)
        # and consumed one per frame, so the same frames on the same
        # connection get the same faults.  A RecordSender's frame count
        # depends on ACK timing; a fixed frame sequence does not.
        frames = [encode_frame(FRAME_HELLO, {"streams": ["a", "b"], "sender": "raw"})]
        for stream, n in (("a", 600), ("b", 300)):
            records = burst(stream, n, step_ns=20)
            frames += [
                encode_frame(FRAME_DATA, records_to_payload(stream, records[i : i + 8]))
                for i in range(0, n, 8)
            ]
        config = ChaosConfig(dup_prob=0.3, reorder_prob=0.3, seed=7)
        chaos1 = run_fixed_frames_through_proxy(config, frames)
        chaos2 = run_fixed_frames_through_proxy(config, frames)
        assert chaos1.frames == chaos2.frames == len(frames)
        assert chaos1.dups > 0 and chaos1.reorders > 0
        assert (chaos1.dups, chaos1.reorders) == (chaos2.dups, chaos2.reorders)


class TestChaosWithBuilder:
    def test_sealed_chunks_identical_under_chaos(self):
        config = IngestConfig(chunk_ns=2_000, seal_margin_ns=1_000)

        def build(transport):
            feed = TelemetryFeed(transport, FeedConfig())
            builder = IncrementalTrace(
                packets={}, nfs={}, upstreams={}, sources={"a", "b"},
                config=config,
            )
            idle = 0
            while not builder.complete:
                progressed = feed.pump() or builder.ingest(feed)
                idle = 0 if progressed else idle + 1
                assert idle < 50_000, "stalled under chaos"
            return builder

        ref = build(SimTransport(RECORDS))
        with SocketIngestServer(["a", "b"]) as server:
            with ChaosProxy(
                server.address, ChaosConfig.uniform(0.10, seed=8)
            ) as proxy:
                import threading

                thread = threading.Thread(
                    target=run_sender, args=(proxy.address, RECORDS),
                    kwargs={"seed": 11}, daemon=True,
                )
                thread.start()
                live = build(server.transport())
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert live.sealed_chunks() == ref.sealed_chunks()
        assert live.ingest_stats() == ref.ingest_stats()
        assert live.ingest_stats()["duplicates"] == 0


class TestConfigValidation:
    def test_probabilities_must_fit(self):
        with pytest.raises(IngestError, match="sum into"):
            ChaosConfig(reset_prob=0.8, dup_prob=0.5)

    def test_uniform_splits_rate(self):
        config = ChaosConfig.uniform(0.10, seed=1)
        assert config.reset_prob == pytest.approx(0.02)
        assert config.delay_prob == pytest.approx(0.02)
