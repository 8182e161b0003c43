"""Server side of the network ingestion plane.

:class:`SocketIngestServer` listens on TCP and/or a Unix-domain socket,
accepts collector connections, and reassembles their framed record
streams into bounded per-stream delivery queues.  The diagnosis service
never sees a socket: it pulls from the server through
:class:`SocketTransport`, which implements the exact pull-transport
protocol :class:`~repro.ingest.feed.TelemetryFeed` already speaks
(``streams`` / ``pull`` / ``at_eos`` / ``can_backpressure``), so the
whole PR-5..8 ingest/diagnosis stack runs unchanged over a real network.

Three mechanisms keep sealed chunks byte-identical to offline no matter
what the wire does:

* **receiver-side dedup** — each stream's records carry consecutive
  sequence numbers; anything at or below the delivery cursor is dropped
  as a duplicate (the price of at-least-once resends), anything ahead of
  it waits in a reorder window and drains contiguously.  The transport
  therefore delivers every record exactly once, in sequence order.
* **credit-based backpressure** — the server advertises per-stream
  credits (``capacity`` minus records held) in every ACK; a compliant
  sender never has more than that many unacked records in flight, so
  server memory is bounded by ``streams * capacity`` regardless of how
  fast collectors push — the bound lives in the protocol, not in
  unbounded OS socket buffers.  Records arriving beyond the advertised
  window are dropped *unacknowledged* (``credit_overruns``): the sender
  re-sends them later, so the bound is hard and lossless.  The ACK
  answering such a frame names the first dropped sequence
  (``resend``), which is the sender's cue to send it again.  ACKs are
  snapshotted and sent under their connection's send lock, so a
  connection receives them in snapshot order and never applies an
  older, larger credit after a newer one.
* **dead-peer detection** — every frame refreshes the owning
  connection's ``last_seen``; a stream whose peer has been silent past
  ``heartbeat_timeout_s`` reports as *dead* in
  :meth:`SocketIngestServer.transport_stats`, and its lack of progress
  feeds the straggler-quarantine machinery
  (:class:`~repro.collector.health.TelemetryGap`) exactly like PR-5's
  dead-stream transports.

The server is intentionally thread-per-connection: collector counts per
pipeline are small, and the per-stream state transitions all happen
under one lock, which is what makes the dedup/credit invariants easy to
defend.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FrameError, IngestError, PeerGone, ProtocolError
from repro.ingest.records import TelemetryRecord
from repro.net.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_EOS,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FRAME_WELCOME,
    Frame,
    FrameDecoder,
    encode_frame,
    records_from_payload,
)


@dataclass
class ServerConfig:
    """Operating parameters of one :class:`SocketIngestServer`."""

    #: Per-stream record capacity (delivery queue + reorder window): the
    #: credit pool advertised to senders.
    capacity: int = 4096
    #: A peer silent for longer than this reports as dead (heartbeats
    #: count as traffic, so a healthy idle sender never trips it).
    heartbeat_timeout_s: float = 5.0
    #: Socket receive chunk size.
    recv_bytes: int = 65536

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise IngestError(f"capacity must be positive: {self.capacity}")


@dataclass
class ServerStats:
    """Everything the server did, pure ints (safe to report anywhere)."""

    connections: int = 0
    frames: int = 0
    data_frames: int = 0
    records_received: int = 0
    #: Records dropped by receiver-side dedup (resent after a reconnect,
    #: or duplicated by the network) — the at-least-once tax.
    duplicates: int = 0
    #: Records that arrived ahead of the delivery cursor and waited in
    #: the reorder window.
    reordered: int = 0
    #: Records dropped *unacked* because they exceeded the advertised
    #: credit window (a misbehaving or raced sender; resent later).
    credit_overruns: int = 0
    frame_errors: int = 0
    heartbeats: int = 0
    eos_frames: int = 0
    acks_sent: int = 0

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _StreamState:
    """One stream's reassembly state; all access under the server lock."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        #: Next sequence number to deliver (dedup cursor: everything
        #: below it has been delivered exactly once).
        self.next_seq = 0
        #: Received-ahead records awaiting contiguity, keyed by seq.
        self.reorder: Dict[int, TelemetryRecord] = {}
        #: In-order records awaiting a transport pull.
        self.delivered: Deque[TelemetryRecord] = deque()
        #: Total sequence count, once EOS announced it ([0, eos_seq)).
        self.eos_seq: Optional[int] = None
        #: Connection currently carrying this stream (None = never seen
        #: or disconnected).
        self.owner: Optional["_Connection"] = None
        self.connects = 0

    @property
    def held(self) -> int:
        return len(self.delivered) + len(self.reorder)

    @property
    def credit(self) -> int:
        return max(0, self.capacity - self.held)

    @property
    def acked_seq(self) -> int:
        """Highest contiguously received sequence (-1 = nothing yet)."""
        return self.next_seq - 1

    def at_eos(self) -> bool:
        return (
            self.eos_seq is not None
            and self.next_seq >= self.eos_seq
            and not self.delivered
        )


class _Connection:
    """One accepted peer socket plus its send lock and liveness clock."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        #: Held across an ACK's state snapshot and its send (see
        #: :meth:`SocketIngestServer._send_state`); re-entrant so a HELLO
        #: can claim its streams and send the WELCOME under one hold.
        self.send_lock = threading.RLock()
        self.last_seen = time.monotonic()
        self.streams: List[str] = []
        self.alive = True

    def send_frame(self, data: bytes) -> bool:
        """Best-effort frame send; False when the peer is gone."""
        with self.send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(data)
                return True
            except OSError:
                self.alive = False
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketIngestServer:
    """Accepts framed record pushes and serves them as a pull transport.

    ``streams`` is the full expected stream-name set — it is the
    transport identity the feed builds its buffers from, so it must be
    known up front (it is: the topology defines it).  ``path`` selects a
    Unix-domain listener, otherwise ``host``/``port`` a TCP one
    (``port=0`` lets the OS pick; read the bound port from
    :attr:`address`).
    """

    def __init__(
        self,
        streams: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[Union[str, os.PathLike]] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        if not streams:
            raise IngestError("a socket ingest server needs at least one stream")
        self.config = config or ServerConfig()
        self._lock = threading.Lock()
        self._data_ready = threading.Condition(self._lock)
        self._streams: Dict[str, _StreamState] = {
            name: _StreamState(name, self.config.capacity)
            for name in streams
        }
        self.stats = ServerStats()
        self._connections: List[_Connection] = []
        self._closed = False
        self._path = os.fspath(path) if path is not None else None
        if self._path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(self._path)
            self.address: Union[str, Tuple[str, int]] = self._path
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self.address = self._sock.getsockname()
        self._sock.listen(16)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ingest-accept", daemon=True
        )
        self._accept_thread.start()

    # -- accept / read loops ----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._sock.accept()
            except OSError:
                return  # listener closed
            if self._closed:
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1) \
                if self._path is None else None
            conn = _Connection(sock, peer=str(addr))
            with self._lock:
                self._connections.append(conn)
                self.stats.connections += 1
            threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"ingest-conn-{self.stats.connections}",
                daemon=True,
            ).start()

    def _read_loop(self, conn: _Connection) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                try:
                    data = conn.sock.recv(self.config.recv_bytes)
                except OSError:
                    return
                if not data:
                    return  # peer EOF
                decoder.feed(data)
                while True:
                    try:
                        frame = decoder.next_frame()
                    except FrameError:
                        with self._lock:
                            self.stats.frame_errors += 1
                        return  # poisoned stream: drop the connection
                    if frame is None:
                        break
                    self._handle_frame(conn, frame)
        finally:
            self._drop_connection(conn)

    def _drop_connection(self, conn: _Connection) -> None:
        conn.close()
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)
            for name in conn.streams:
                state = self._streams.get(name)
                if state is not None and state.owner is conn:
                    state.owner = None

    # -- frame handling ---------------------------------------------------------

    def _ack_payload(self, names: Sequence[str]) -> dict:
        # The ``eos`` flags give senders *positive* confirmation that an
        # EOS frame was processed; mere ACK arrival proves nothing (an
        # ACK already in flight when the EOS went out looks identical).
        return {
            "acked": {n: self._streams[n].acked_seq for n in names},
            "credit": {n: self._streams[n].credit for n in names},
            "eos": {n: self._streams[n].eos_seq is not None for n in names},
        }

    def _send_state(
        self,
        conn: _Connection,
        names: Sequence[str],
        frame_type: int = FRAME_ACK,
        resend: Optional[Dict[str, int]] = None,
    ) -> None:
        """Send ``conn`` a fresh snapshot of ``names``' acked/credit state.

        Snapshot and send both happen under the connection's send lock:
        the reader thread (answering DATA) and ``SocketTransport.pull``
        (refreshing credit) both send ACKs, and without the lock one's
        older snapshot could overtake the other's newer one on the wire,
        leaving the sender with a stale, too-generous credit.
        """
        with conn.send_lock:
            with self._lock:
                payload = self._ack_payload(names)
            if resend:
                payload["resend"] = resend
            sent = conn.send_frame(encode_frame(frame_type, payload))
        if sent:
            with self._lock:
                self.stats.acks_sent += 1

    def _handle_frame(self, conn: _Connection, frame: Frame) -> None:
        conn.last_seen = time.monotonic()
        with self._lock:
            self.stats.frames += 1
        if frame.type == FRAME_HELLO:
            self._handle_hello(conn, frame.payload)
        elif frame.type == FRAME_DATA:
            self._handle_data(conn, frame.payload)
        elif frame.type == FRAME_EOS:
            self._handle_eos(conn, frame.payload)
        elif frame.type == FRAME_HEARTBEAT:
            with self._lock:
                self.stats.heartbeats += 1
                names = list(conn.streams)
            if names:
                self._send_state(conn, names)
        # WELCOME/ACK arriving at the server are protocol violations, but
        # harmless ones; they are counted as frames and ignored.

    def _handle_hello(self, conn: _Connection, payload: dict) -> None:
        names = payload.get("streams")
        if not isinstance(names, list) or not names:
            raise ProtocolError(f"HELLO without streams: {payload!r}")
        unknown = [n for n in names if n not in self._streams]
        if unknown:
            # The peer is pushing streams this server never offered:
            # refuse loudly (a misdirected collector must not be half
            # accepted) by dropping the connection.
            conn.close()
            return
        # Claim and WELCOME under one send-lock hold: once this
        # connection owns the streams, pull may send it credit refreshes,
        # and none may reach the sender before its WELCOME.
        with conn.send_lock:
            with self._lock:
                conn.streams = list(names)
                for name in names:
                    state = self._streams[name]
                    # A new HELLO takes ownership: the old connection, if
                    # any, is a zombie of a reconnect (the sender gave up
                    # on it); its late frames will be deduped anyway.
                    state.owner = conn
                    state.connects += 1
            self._send_state(conn, conn.streams, FRAME_WELCOME)

    def _handle_data(self, conn: _Connection, payload: dict) -> None:
        stream, records = records_from_payload(payload)
        state = self._streams.get(stream)
        if state is None or stream not in conn.streams:
            conn.close()  # pushing an unannounced stream: refuse
            return
        with self._lock:
            self.stats.data_frames += 1
            self.stats.records_received += len(records)
            delivered_any = False
            first_overrun: Optional[int] = None
            for record in records:
                if record.seq < state.next_seq or record.seq in state.reorder:
                    self.stats.duplicates += 1
                    continue
                if state.held >= state.capacity:
                    # Beyond the credit window this sender was told
                    # about: drop unacked; the ACK asks for a resend.
                    self.stats.credit_overruns += 1
                    if first_overrun is None:
                        first_overrun = record.seq
                    continue
                if record.seq == state.next_seq:
                    state.delivered.append(record)
                    state.next_seq += 1
                    delivered_any = True
                    # Drain the reorder window's now-contiguous prefix.
                    while state.next_seq in state.reorder:
                        state.delivered.append(
                            state.reorder.pop(state.next_seq)
                        )
                        state.next_seq += 1
                else:
                    self.stats.reordered += 1
                    state.reorder[record.seq] = record
            if delivered_any:
                self._data_ready.notify_all()
        self._send_state(
            conn,
            [stream],
            resend=None if first_overrun is None else {stream: first_overrun},
        )

    def _handle_eos(self, conn: _Connection, payload: dict) -> None:
        stream = payload.get("s")
        state = self._streams.get(stream)
        if state is None:
            conn.close()
            return
        try:
            final_seq = int(payload["final_seq"])
        except (KeyError, TypeError, ValueError):
            conn.close()
            return
        with self._lock:
            self.stats.eos_frames += 1
            if state.eos_seq is not None and state.eos_seq != final_seq:
                raise ProtocolError(
                    f"stream {stream!r} announced EOS at {final_seq} after "
                    f"announcing it at {state.eos_seq}"
                )
            state.eos_seq = final_seq
            self._data_ready.notify_all()

    # -- transport / stats ------------------------------------------------------

    def transport(self, poll_wait_s: float = 0.002) -> "SocketTransport":
        """A pull-transport view over this server's streams."""
        return SocketTransport(self, poll_wait_s=poll_wait_s)

    def transport_stats(self) -> Dict[str, dict]:
        """Per-stream connection/progress state for the health report."""
        now = time.monotonic()
        out: Dict[str, dict] = {}
        with self._lock:
            for name in sorted(self._streams):
                state = self._streams[name]
                owner = state.owner
                if owner is None:
                    conn_state = "never" if state.connects == 0 else "disconnected"
                    age = None
                elif not owner.alive:
                    conn_state = "disconnected"
                    age = now - owner.last_seen
                else:
                    age = now - owner.last_seen
                    conn_state = (
                        "dead"
                        if age > self.config.heartbeat_timeout_s
                        else "live"
                    )
                out[name] = {
                    "state": conn_state,
                    "acked_seq": state.acked_seq,
                    "buffered": state.held,
                    "eos": state.eos_seq is not None,
                    "heartbeat_age_s": age,
                    "connects": state.connects,
                }
        return out

    def dead_streams(self) -> Tuple[str, ...]:
        """Streams whose peer is silent past the heartbeat timeout."""
        return tuple(
            name
            for name, info in self.transport_stats().items()
            if info["state"] in ("dead", "disconnected")
        )

    def close(self) -> None:
        """Stop accepting, drop every peer, unlink a Unix socket path."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections)
            self._data_ready.notify_all()
        try:
            self._sock.close()
        except OSError:
            pass
        for conn in connections:
            conn.close()
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass

    def __enter__(self) -> "SocketIngestServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SocketTransport:
    """The feed-facing pull protocol over a :class:`SocketIngestServer`.

    ``can_backpressure`` is True with teeth: records the feed does not
    pull stay in the server's bounded queues, credits stop being
    granted, and the *senders* block — backpressure propagates across
    the network instead of ballooning OS buffers.

    ``pull`` on an empty stream waits up to ``poll_wait_s`` for data, so
    the service's pump loop does not spin hot while collectors are
    merely slow (the idle-pump liveness backstop still fires if the
    transport is truly wedged).
    """

    can_backpressure = True

    def __init__(self, server: SocketIngestServer, poll_wait_s: float = 0.002) -> None:
        self.server = server
        self.poll_wait_s = poll_wait_s

    def streams(self) -> Tuple[str, ...]:
        return tuple(sorted(self.server._streams))

    def pull(self, stream: str, max_n: int) -> List[TelemetryRecord]:
        server = self.server
        state = server._streams[stream]
        batch: List[TelemetryRecord] = []
        with server._lock:
            if server._closed:
                raise PeerGone("ingest server is closed")
            if not state.delivered and not state.at_eos():
                server._data_ready.wait(timeout=self.poll_wait_s)
            while state.delivered and len(batch) < max_n:
                batch.append(state.delivered.popleft())
            owner = state.owner if batch else None
        if owner is not None:
            # Freed room is new credit: tell the sender promptly instead
            # of making it wait for its next DATA's ack (best effort —
            # a vanished peer just resyncs credit on reconnect).
            server._send_state(owner, [stream])
        return batch

    def at_eos(self, stream: str) -> bool:
        with self.server._lock:
            return self.server._streams[stream].at_eos()

    def reset(self) -> None:
        raise IngestError(
            "socket transports cannot replay; restart the senders instead"
        )
