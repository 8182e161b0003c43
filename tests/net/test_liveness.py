"""Credit-window liveness: no record is dropped without a way back.

Two ways a sender could end up with records the server dropped past its
credit window while believing them in flight, and so never resend them:

* an older ACK (larger credit) overtaking a newer one on the wire — the
  reader thread and ``SocketTransport.pull`` both send ACKs;
* credit the sender was told in good faith but could not use, because a
  reconnect's zombie connection filled the window first.

The server sends each connection its ACKs in snapshot order, and the ACK
answering an overrun names the first dropped sequence, which the sender
sends again on the same connection.  Both tests are deterministic: the
first holds one ACK back on purpose, the second applies a stale credit
by hand.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.net import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_WELCOME,
    FrameDecoder,
    RecordSender,
    SenderConfig,
    ServerConfig,
    SocketIngestServer,
    encode_frame,
    records_to_payload,
)
from repro.net import server as server_mod
from tests.net.test_socket_transport import burst


def read_frames(sock: socket.socket, decoder: FrameDecoder, n: int):
    frames = []
    while len(frames) < n:
        frame = decoder.next_frame()
        if frame is not None:
            frames.append(frame)
            continue
        data = sock.recv(65536)
        assert data, "server closed the connection"
        decoder.feed(data)
    return frames


class TestAckOrder:
    def test_pull_refresh_cannot_overtake_data_ack(self, monkeypatch):
        """The DATA ack's snapshot is taken first and its send is held
        back; the pull's credit refresh, taken later, must still reach
        the sender last, so the credit it keeps is the fresh one."""
        capacity = 64
        snapped = threading.Event()
        real_encode = server_mod.encode_frame

        def slow_reader_ack(frame_type, payload):
            if (
                frame_type == FRAME_ACK
                and threading.current_thread().name.startswith("ingest-conn")
                and not snapped.is_set()
            ):
                snapped.set()
                time.sleep(0.3)
            return real_encode(frame_type, payload)

        monkeypatch.setattr(server_mod, "encode_frame", slow_reader_ack)
        with SocketIngestServer(
            ["a"], config=ServerConfig(capacity=capacity)
        ) as server:
            raw = socket.create_connection(server.address, timeout=5)
            decoder = FrameDecoder()
            raw.sendall(encode_frame(FRAME_HELLO, {"streams": ["a"], "sender": "t"}))
            (welcome,) = read_frames(raw, decoder, 1)
            assert welcome.type == FRAME_WELCOME
            raw.sendall(
                encode_frame(FRAME_DATA, records_to_payload("a", burst("a", 4)))
            )
            assert snapped.wait(timeout=5)
            got = server.transport().pull("a", 16)
            assert [r.seq for r in got] == [0, 1, 2, 3]
            data_ack, refresh = read_frames(raw, decoder, 2)
            raw.close()
        assert data_ack.type == refresh.type == FRAME_ACK
        assert data_ack.payload["credit"]["a"] == capacity - 4
        assert refresh.payload["acked"]["a"] == 3
        assert refresh.payload["credit"]["a"] == capacity


class TestOverrunResend:
    def test_dropped_records_resent_without_reconnect(self):
        """A sender that trusted a too-generous credit sends everything
        at once; the server keeps its window and drops the rest.  With
        nothing left unsent and ACKs still arriving, the sender neither
        blocks nor times out — only the ``resend`` cue brings the
        dropped records back."""
        capacity, n = 16, 40
        with SocketIngestServer(
            ["a"], config=ServerConfig(capacity=capacity)
        ) as server:
            sender = RecordSender(
                server.address, ["a"],
                SenderConfig(jitter_seed=4, batch_records=8, ack_timeout_s=60.0),
            )
            sender.push_all(burst("a", n))
            sender.connect()
            # The stale ACK, applied last: credit for the whole burst.
            sender._apply_ack({"credit": {"a": 1000}})
            sender.pump()
            deadline = time.monotonic() + 10
            while server.stats.credit_overruns < n - capacity:
                assert time.monotonic() < deadline, "the burst never overran"
                time.sleep(0.001)
            transport = server.transport()
            got = []
            while sender.pending_records() > 0 or len(got) < n:
                got.extend(transport.pull("a", 8))
                sender.pump()
                assert time.monotonic() < deadline, (
                    f"stalled: {len(got)} of {n} delivered, "
                    f"{sender.pending_records()} unacked"
                )
            sender.close()
        assert [r.seq for r in got] == list(range(n))
        assert sender.stats.connects == 1 and sender.stats.reconnects == 0
        assert sender.stats.records_resent >= n - capacity
