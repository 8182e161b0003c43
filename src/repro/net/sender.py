"""Collector side of the network ingestion plane.

:class:`RecordSender` pushes :class:`~repro.ingest.records.TelemetryRecord`
batches to a :class:`~repro.net.server.SocketIngestServer` over TCP or a
Unix-domain socket.  Its contract is *at-least-once, resumable*:

* every record keeps the per-stream sequence number the collector
  assigned it; the wire never renumbers;
* unacked records stay in a bounded per-stream pending queue; a record
  leaves the queue only when an ACK (or the WELCOME of a reconnect)
  covers its sequence;
* on any connection failure the sender reconnects with jittered
  exponential backoff (the shared :mod:`repro.util.retry` machinery, so
  backoff draws are seeded and replayable), re-sends HELLO, and resumes
  from the *receiver-acked* sequence in the WELCOME — everything newer
  is re-sent.  Duplicates this creates are the server's problem by
  design (receiver-side dedup), which is what keeps sealed chunks
  byte-identical to offline;
* credit advertised in ACKs bounds how many unacked records may be in
  flight per stream, so a slow service backpressures collectors across
  the network instead of filling kernel buffers.  Records the server
  dropped past its window anyway (a reconnect's zombie connection can
  fill it) come back in the ACK's ``resend`` and are sent again on the
  same connection.

The sender is deliberately single-threaded and caller-driven: ``push``
enqueues, ``pump`` performs bounded I/O, ``finish`` flushes and
announces end-of-stream.  Crash testing hooks into the same
:class:`~repro.service.crashsim.CrashInjector` protocol as the rest of
the stack via ``faults`` — kill points fire at connect/send/ack
boundaries with the frame counter as the coordinate, so a soak can kill
a sender at *every* frame boundary and assert byte-identical journals.
"""

from __future__ import annotations

import os
import socket
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FrameError, IngestError, PeerGone, TransportError
from repro.ingest.records import TelemetryRecord
from repro.net.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_EOS,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FRAME_WELCOME,
    FrameDecoder,
    encode_frame,
    records_to_payload,
)
from repro.util.retry import RetryPolicy, retry_call
from repro.util.rng import substream


@dataclass
class SenderConfig:
    """Operating parameters of one :class:`RecordSender`."""

    #: Max records per DATA frame (bounds frame size and re-send cost).
    batch_records: int = 64
    #: Per-stream pending (unacked) queue bound; ``push`` past it raises
    #: — the collector must drain before producing more.
    queue_capacity: int = 65536
    #: Send a HEARTBEAT when the connection has been idle this long.
    heartbeat_interval_s: float = 0.5
    #: Give up on a credit-starved wait (no ACK progress) after this
    #: long and force a reconnect.
    ack_timeout_s: float = 5.0
    #: Socket connect timeout.
    connect_timeout_s: float = 5.0
    #: Reconnect retry ladder (shared semantics with the feed/service).
    max_retries: int = 8
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    #: Seed for the jittered-backoff substream (replayable reconnects).
    jitter_seed: int = 0
    #: Name announced in HELLO (diagnostics only).
    name: str = "sender"

    def __post_init__(self) -> None:
        if self.batch_records <= 0:
            raise IngestError(
                f"batch_records must be positive: {self.batch_records}"
            )
        if self.queue_capacity <= 0:
            raise IngestError(
                f"queue_capacity must be positive: {self.queue_capacity}"
            )


@dataclass
class SenderStats:
    """Wire-level accounting, pure ints/floats."""

    connects: int = 0
    reconnects: int = 0
    frames_sent: int = 0
    records_sent: int = 0
    #: Records sent more than once (the at-least-once resend tax).
    records_resent: int = 0
    records_acked: int = 0
    acks_received: int = 0
    heartbeats_sent: int = 0
    send_failures: int = 0
    backoff_total_s: float = 0.0

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _StreamOut:
    """One stream's outbound state."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Unacked records, oldest first.  ``pending[:unsent]`` are in
        #: flight on the current connection; the rest await credit.
        self.pending: Deque[TelemetryRecord] = deque()
        self.unsent = 0
        #: Credit last advertised by the server (may-be-in-flight cap).
        self.credit = 0
        #: Highest sequence ever pushed (for EOS's final_seq).
        self.highest_seq = -1
        #: Records this stream has ever sent at least once (so a resend
        #: can be told apart from a first send).
        self.sent_through = -1
        #: The server positively confirmed (via an ACK's ``eos`` flag)
        #: that this stream's EOS frame was processed.
        self.eos_confirmed = False

    @property
    def inflight(self) -> int:
        return self.unsent

    def rewind(self, seq: int) -> None:
        """Mark in-flight records from ``seq`` on as unsent again: the
        server dropped them unacknowledged."""
        keep = 0
        while keep < self.unsent and self.pending[keep].seq < seq:
            keep += 1
        self.unsent = keep

    def prune_acked(self, acked_seq: int) -> int:
        """Drop pending records at or below ``acked_seq``; return count."""
        dropped = 0
        while self.pending and self.pending[0].seq <= acked_seq:
            self.pending.popleft()
            dropped += 1
        self.unsent = max(0, self.unsent - dropped)
        return dropped


class RecordSender:
    """Framed, resumable record push over one socket connection.

    ``address`` is a ``(host, port)`` tuple for TCP or a filesystem path
    for a Unix-domain socket.  ``streams`` must name every stream this
    sender will carry (they go in HELLO; the server refuses strangers).

    ``sleep`` and ``clock`` are injectable for tests; ``faults`` is an
    optional crash injector honouring the ``kill(point, chunk)``
    protocol of :class:`~repro.service.crashsim.CrashInjector`.

    ``clock_chaos`` is an optional :class:`~repro.time.chaos.ClockChaos`:
    pushed records are warped through their stream's fault schedule
    before they enter the send queue, so the fault originates at the
    sender's host clock — upstream of framing, resume and dedup, exactly
    where a real drifting or stepping collector clock lives.
    """

    def __init__(
        self,
        address: Union[str, os.PathLike, Tuple[str, int]],
        streams: Sequence[str],
        config: Optional[SenderConfig] = None,
        sleep: Optional[Callable[[float], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        faults=None,
        clock_chaos=None,
    ) -> None:
        if not streams:
            raise IngestError("a record sender needs at least one stream")
        self.address = address
        self.config = config or SenderConfig()
        self.sleep = sleep if sleep is not None else time.sleep
        self.clock = clock
        self.faults = faults
        self.clock_chaos = clock_chaos
        self.stats = SenderStats()
        self._streams: Dict[str, _StreamOut] = {
            name: _StreamOut(name) for name in streams
        }
        self._order: Tuple[str, ...] = tuple(sorted(self._streams))
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._last_send = self.clock()
        self._retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
        )
        self._rng = substream(
            self.config.jitter_seed, f"net-sender-{self.config.name}"
        )
        self._finished = False
        self._closed = False

    # -- crash hooks ------------------------------------------------------------

    def _kill(self, point: str) -> None:
        if self.faults is not None:
            # The frame counter is the crash coordinate: monotone,
            # deterministic for a given record set, and fine-grained
            # enough to hit every frame boundary.
            self.faults.kill(point, self.stats.frames_sent)

    # -- queueing ---------------------------------------------------------------

    def push(self, record: TelemetryRecord) -> None:
        """Enqueue one record for delivery (does no I/O)."""
        if self.clock_chaos is not None:
            # Warp before queueing: a crashed-and-resumed sender replays
            # the identical warped record (the warp is a pure function of
            # the true timestamp), so clock chaos adds no nondeterminism.
            record = self.clock_chaos.warp_record(record)
        state = self._streams.get(record.stream)
        if state is None:
            raise IngestError(
                f"record for undeclared stream {record.stream!r}"
            )
        if self._finished:
            raise IngestError("cannot push after finish()")
        if len(state.pending) >= self.config.queue_capacity:
            raise IngestError(
                f"stream {record.stream!r} send queue is full "
                f"({self.config.queue_capacity} pending records)"
            )
        state.pending.append(record)
        state.highest_seq = max(state.highest_seq, record.seq)

    def push_all(self, records: Sequence[TelemetryRecord]) -> None:
        for record in records:
            self.push(record)

    def pending_records(self) -> int:
        return sum(len(s.pending) for s in self._streams.values())

    # -- connection management --------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._decoder = FrameDecoder()
        # Anything in flight on the dead connection may or may not have
        # arrived; the WELCOME of the next connection will say.  Until
        # then it is all unsent again.
        for state in self._streams.values():
            state.unsent = 0
            state.credit = 0

    def _connect_once(self) -> None:
        self._disconnect()
        if isinstance(self.address, tuple):
            sock = socket.create_connection(
                self.address, timeout=self.config.connect_timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.config.connect_timeout_s)
            sock.connect(os.fspath(self.address))
        sock.settimeout(self.config.ack_timeout_s)
        self._sock = sock
        try:
            hello = {
                "streams": list(self._order),
                "sender": self.config.name,
            }
            self._send_raw(encode_frame(FRAME_HELLO, hello))
            welcome = self._recv_frame_blocking()
            if welcome is None or welcome.type != FRAME_WELCOME:
                raise TransportError(
                    "server did not answer HELLO with WELCOME"
                )
            self._apply_ack(welcome.payload)
        except (OSError, TransportError):
            self._disconnect()
            raise
        self.stats.connects += 1
        self._kill("net-connect")

    def connect(self) -> None:
        """Connect (or reconnect) with jittered exponential backoff."""
        if self._closed:
            raise IngestError("sender is closed")
        if self.connected:
            return

        def on_failure(exc, attempt):
            self.stats.send_failures += 1

        def on_retry(delay):
            self.stats.reconnects += 1
            self.stats.backoff_total_s += delay

        retry_call(
            self._connect_once,
            self._retry_policy,
            self._rng,
            sleep=self.sleep,
            retry_on=(OSError, TransportError),
            on_failure=on_failure,
            on_retry=on_retry,
            give_up=lambda exc, attempts: PeerGone(
                f"could not reach {self.address!r} after "
                f"{attempts} attempts: {exc}"
            ),
        )

    # -- wire primitives --------------------------------------------------------

    def _send_raw(self, data: bytes) -> None:
        if self._sock is None:
            raise TransportError("not connected")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self._last_send = self.clock()

    def _recv_frame_blocking(self):
        """Receive exactly one frame, honouring the socket timeout."""
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                return frame
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise TransportError("timed out waiting for server") from exc
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not data:
                raise PeerGone("server closed the connection")
            self._decoder.feed(data)

    def _apply_ack(self, payload: dict) -> None:
        acked = payload.get("acked", {})
        credit = payload.get("credit", {})
        for name, seq in acked.items():
            state = self._streams.get(name)
            if state is not None:
                self.stats.records_acked += state.prune_acked(int(seq))
        for name, n in credit.items():
            state = self._streams.get(name)
            if state is not None:
                state.credit = int(n)
        for name, seq in payload.get("resend", {}).items():
            state = self._streams.get(name)
            if state is not None:
                state.rewind(int(seq))
        for name, flag in payload.get("eos", {}).items():
            state = self._streams.get(name)
            if state is not None and flag:
                state.eos_confirmed = True
        self.stats.acks_received += 1
        self._kill("net-after-ack")

    def _drain_acks(self) -> None:
        """Consume whatever ACKs have already arrived, without blocking."""
        if self._sock is None:
            return
        self._sock.setblocking(False)
        try:
            while True:
                try:
                    data = self._sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}") from exc
                if not data:
                    raise PeerGone("server closed the connection")
                self._decoder.feed(data)
        finally:
            if self._sock is not None:
                self._sock.settimeout(self.config.ack_timeout_s)
        while True:
            frame = self._decoder.next_frame()
            if frame is None:
                break
            if frame.type in (FRAME_ACK, FRAME_WELCOME):
                self._apply_ack(frame.payload)

    def _wait_for_ack(self) -> None:
        """Block for one server frame (used when credit-starved)."""
        frame = self._recv_frame_blocking()
        if frame.type in (FRAME_ACK, FRAME_WELCOME):
            self._apply_ack(frame.payload)

    # -- the pump ---------------------------------------------------------------

    def _send_ready_batches(self) -> int:
        """Send every batch current credit allows; return records sent."""
        sent = 0
        for name in self._order:
            state = self._streams[name]
            while state.unsent < len(state.pending):
                room = state.credit - state.inflight
                if room <= 0:
                    break
                take = min(
                    room,
                    self.config.batch_records,
                    len(state.pending) - state.unsent,
                )
                batch = [
                    state.pending[state.unsent + i] for i in range(take)
                ]
                self._kill("net-before-send")
                self._send_raw(
                    encode_frame(FRAME_DATA, records_to_payload(name, batch))
                )
                state.unsent += take
                sent += take
                self.stats.frames_sent += 1
                self.stats.records_sent += take
                resent = sum(
                    1 for r in batch if r.seq <= state.sent_through
                )
                self.stats.records_resent += resent
                state.sent_through = max(
                    state.sent_through, batch[-1].seq
                )
                self._kill("net-after-send")
        return sent

    def pump(self) -> int:
        """One bounded I/O round: connect if needed, drain ACKs, send
        what credit allows, heartbeat if idle.  Returns records sent.

        Connection failures inside the round trigger an immediate
        backoff-reconnect (resume-from-acked), after which the round is
        considered done — the next ``pump`` continues from the resumed
        state.
        """
        if self._closed:
            raise IngestError("sender is closed")
        self.connect()
        try:
            self._drain_acks()
            sent = self._send_ready_batches()
            starved = any(
                s.unsent < len(s.pending) and s.credit - s.inflight <= 0
                for s in self._streams.values()
            )
            if sent == 0 and starved:
                # Nothing sendable until the server frees room: block
                # for one ACK instead of spinning (its timeout converts
                # a wedged server into a reconnect).
                self._wait_for_ack()
                sent = self._send_ready_batches()
            if (
                self.clock() - self._last_send
                > self.config.heartbeat_interval_s
            ):
                self._send_raw(encode_frame(FRAME_HEARTBEAT, {}))
                self.stats.frames_sent += 1
                self.stats.heartbeats_sent += 1
            return sent
        except (OSError, TransportError):
            self.stats.send_failures += 1
            self._disconnect()
            self.connect()
            return 0

    def flush(self, timeout_s: float = 30.0) -> None:
        """Pump until every pushed record has been acked."""
        deadline = self.clock() + timeout_s
        while self.pending_records() > 0:
            if self.clock() > deadline:
                raise IngestError(
                    f"flush timed out with {self.pending_records()} "
                    "records unacked"
                )
            self.pump()

    def _eos_confirmed_everywhere(self) -> bool:
        return all(s.eos_confirmed for s in self._streams.values())

    def finish(self, timeout_s: float = 30.0) -> None:
        """Flush everything, then announce end-of-stream for each stream.

        EOS delivery is confirmed *positively*: the server marks every
        stream whose EOS it has processed with an ``eos`` flag in each
        ACK, and finish only returns once every stream's flag has come
        back true.  Waiting for any ACK after the EOS frames is not
        enough — an ACK already in flight when the EOS went out (e.g. a
        credit refresh from the service's pull loop) arrives first and
        proves nothing, and a fault eating the EOS frames right then
        would strand the server waiting for an end that never comes.
        On failure or non-confirmation the finish sequence is retried
        over a fresh connection — duplicate EOS frames with the same
        final sequence are valid protocol.
        """
        deadline = self.clock() + timeout_s
        self.flush(timeout_s=timeout_s)
        while not self._eos_confirmed_everywhere():
            if self.clock() > deadline:
                raise IngestError("finish timed out announcing EOS")
            try:
                self.connect()
                for name in self._order:
                    state = self._streams[name]
                    if state.eos_confirmed:
                        continue
                    self._send_raw(
                        encode_frame(
                            FRAME_EOS,
                            {"s": name, "final_seq": state.highest_seq + 1},
                        )
                    )
                    self.stats.frames_sent += 1
                # A HEARTBEAT after the EOS frames provokes a fresh ACK
                # carrying the eos flags.
                self._send_raw(encode_frame(FRAME_HEARTBEAT, {}))
                self.stats.frames_sent += 1
                self.stats.heartbeats_sent += 1
                while (
                    not self._eos_confirmed_everywhere()
                    and self.clock() <= deadline
                ):
                    self._wait_for_ack()
            except (OSError, TransportError):
                self.stats.send_failures += 1
                self._disconnect()
        self._finished = True

    def close(self) -> None:
        self._closed = True
        self._disconnect()

    def __enter__(self) -> "RecordSender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
