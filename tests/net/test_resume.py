"""Reconnect-with-resume: kill the sender at every frame boundary.

The pinned property (ISSUE 9): at-least-once delivery + receiver-side
dedup = exactly-once in-order application.  A sender killed at *any*
frame boundary (before send, after send, after ack, after connect),
then restarted from its full record log, must leave the server
delivering the exact same record sequence a clean run delivers — and a
diagnosis service fed through sockets must journal the exact bytes an
offline run journals, including across a mid-run service kill/restart
that loses all server state.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.records import DiagTrace
from repro.errors import IngestError, PeerGone
from repro.ingest import (
    FeedConfig,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
    hop_record,
)
from repro.net import RecordSender, SenderConfig, ServerConfig, SocketIngestServer
from repro.nfv.tap import LiveRecordTap
from repro.service import (
    NET_KILL_POINTS,
    CrashInjector,
    CrashPlan,
    DiagnosisService,
    LiveTraceSource,
    ServiceConfig,
    SimulatedCrash,
)
from repro.util.timebase import MSEC, USEC
from tests.conftest import make_chain_topology, run_interrupt_chain
from tests.core.test_streaming_fastpath import canonical_bytes
from tests.net.test_socket_transport import burst, drain_all

SENDER_CFG = dict(jitter_seed=5, batch_records=32, backoff_base_s=0.001,
                  backoff_cap_s=0.01)


def run_sender(address, records, faults=None, seed=5):
    cfg = dict(SENDER_CFG)
    cfg["jitter_seed"] = seed
    sender = RecordSender(
        address, sorted({r.stream for r in records}),
        SenderConfig(**cfg), faults=faults,
    )
    # A killed sender's socket closes on the way out, as a dead process's
    # would (otherwise the traceback keeps it open).
    with sender:
        sender.push_all(records)
        sender.finish()
    return sender


def wait_for_peer_gone(server, timeout_s=10.0):
    """Block until the server has read a dead sender's connection to EOF.

    Frames the sender wrote before dying may still sit unread in the
    socket when its successor says HELLO; the WELCOME can only prune the
    replay by what the server has already processed.
    """
    deadline = time.monotonic() + timeout_s
    while any(
        info["state"] not in ("never", "disconnected")
        for info in server.transport_stats().values()
    ):
        assert time.monotonic() < deadline, "dead sender's connection never closed"
        time.sleep(0.001)


class TestKillEveryFrameBoundary:
    @pytest.fixture(scope="class")
    def record_set(self):
        return burst("a", 150, step_ns=10) + burst("b", 90, step_ns=10)

    @pytest.fixture(scope="class")
    def reference(self, record_set):
        """Clean-run delivery order and the clean run's frame count."""
        with SocketIngestServer(["a", "b"]) as server:
            sender = run_sender(server.address, record_set)
            delivered = drain_all(
                TelemetryFeed(server.transport(), FeedConfig())
            )
        return delivered, sender.stats.frames_sent

    def test_reference_is_sim_transport_order(self, record_set, reference):
        delivered, _frames = reference
        assert delivered == drain_all(
            TelemetryFeed(SimTransport(record_set), FeedConfig())
        )

    @pytest.mark.parametrize("point", NET_KILL_POINTS)
    def test_kill_then_restart_delivers_identically(
        self, record_set, reference, point
    ):
        ref_delivery, frames_clean = reference
        assert frames_clean >= 8, "record set too small to be interesting"
        killed_at_least_once = False
        for frame_at in range(frames_clean + 1):
            with SocketIngestServer(["a", "b"]) as server:
                injector = CrashInjector(CrashPlan(point, chunk=frame_at))
                try:
                    run_sender(server.address, record_set, faults=injector)
                except SimulatedCrash:
                    killed_at_least_once = True
                    # The crash-restart model: a fresh sender process
                    # replays its full record log; the server's acked
                    # state (WELCOME) prunes the replay to the suffix.
                    run_sender(server.address, record_set, seed=6)
                assert (
                    drain_all(TelemetryFeed(server.transport(), FeedConfig()))
                    == ref_delivery
                )
        # Every net kill-point must actually be reachable at some frame
        # coordinate of this record set — a vacuous sweep pins nothing.
        assert killed_at_least_once

    def test_double_kill_composes(self, record_set, reference):
        ref_delivery, _frames = reference
        with SocketIngestServer(["a", "b"]) as server:
            for plan in (
                CrashPlan("net-after-send", chunk=2),
                CrashPlan("net-before-send", chunk=4),
            ):
                with pytest.raises(SimulatedCrash):
                    run_sender(
                        server.address, record_set,
                        faults=CrashInjector(plan),
                    )
                wait_for_peer_gone(server)
            run_sender(server.address, record_set, seed=7)
            assert (
                drain_all(TelemetryFeed(server.transport(), FeedConfig()))
                == ref_delivery
            )
            # Three sender incarnations, one exactly-once delivery: the
            # WELCOME resume pruned each replay to the missing suffix.
            assert server.stats.connections == 3
            assert server.stats.records_received == len(record_set)

    def test_unarmed_injector_visits_all_net_points(self, record_set):
        with SocketIngestServer(["a", "b"]) as server:
            injector = CrashInjector()
            run_sender(server.address, record_set, faults=injector)
            visited = {point for point, _chunk in injector.visited}
        assert set(NET_KILL_POINTS) <= visited


# -- service-level byte identity over sockets ---------------------------------

CHUNK_NS = 1 * MSEC
MARGIN_NS = 5 * MSEC
THRESHOLD_NS = 300 * USEC


def service_config(tmp_path) -> ServiceConfig:
    return ServiceConfig(
        state_dir=tmp_path / "state",
        chunk_ns=CHUNK_NS,
        margin_ns=MARGIN_NS,
        victim_threshold_ns=THRESHOLD_NS,
        durable=False,
    )


def socket_source(server):
    feed = TelemetryFeed(server.transport(), FeedConfig())
    builder = IncrementalTrace.for_topology(
        make_chain_topology(),
        IngestConfig(chunk_ns=CHUNK_NS, seal_margin_ns=MARGIN_NS),
    )
    return LiveTraceSource(feed, builder)


def sender_thread(address, records, faults=None, seed=5):
    """Drive a sender to completion in the background, restarting it
    once if an armed kill fires (the collector crash-restart model)."""

    def run():
        try:
            run_sender(address, records, faults=faults, seed=seed)
        except SimulatedCrash:
            try:
                run_sender(address, records, seed=seed + 1)
            except (PeerGone, IngestError):
                pass
        except (PeerGone, IngestError):
            pass  # server torn down under us (service-kill scenarios)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def tapped_run():
    tap = LiveRecordTap()
    result = run_interrupt_chain(duration_ns=12 * MSEC, extra_hooks=[tap])
    return tap.records, DiagTrace.from_sim_result(result)


@pytest.fixture(scope="module")
def offline_reference(tapped_run, tmp_path_factory):
    _records, trace = tapped_run
    service = DiagnosisService(
        trace, service_config(tmp_path_factory.mktemp("offline"))
    )
    report = service.run()
    return {
        "canon": canonical_bytes(report.diagnoses),
        "journal": service.journal.read_bytes(),
        "n_chunks": report.n_chunks,
    }


class TestServiceOverSockets:
    def streams_of(self, records):
        return sorted({r.stream for r in records})

    def test_clean_socket_run_matches_offline(
        self, tapped_run, tmp_path, offline_reference
    ):
        records, _trace = tapped_run
        with SocketIngestServer(self.streams_of(records)) as server:
            thread = sender_thread(server.address, records)
            service = DiagnosisService(
                socket_source(server), service_config(tmp_path)
            )
            report = service.run()
            thread.join(timeout=60)
        assert service.journal.read_bytes() == offline_reference["journal"]
        assert canonical_bytes(report.diagnoses) == offline_reference["canon"]
        assert report.n_chunks == offline_reference["n_chunks"]

    def test_sender_killed_midrun_journal_identical(
        self, tapped_run, tmp_path, offline_reference
    ):
        records, _trace = tapped_run
        with SocketIngestServer(self.streams_of(records)) as server:
            thread = sender_thread(
                server.address, records,
                faults=CrashInjector(CrashPlan("net-after-send", chunk=40)),
            )
            service = DiagnosisService(
                socket_source(server), service_config(tmp_path)
            )
            report = service.run()
            thread.join(timeout=60)
        assert service.journal.read_bytes() == offline_reference["journal"]
        assert canonical_bytes(report.diagnoses) == offline_reference["canon"]

    def test_service_kill_restart_over_sockets(
        self, tapped_run, tmp_path, offline_reference
    ):
        """The acceptance scenario: the service dies mid-run, taking its
        server (and all its dedup state) with it; a restarted service
        gets a fresh server and a sender replaying from record zero, and
        its journal must still converge to the offline bytes."""
        records, _trace = tapped_run
        streams = self.streams_of(records)
        server = SocketIngestServer(streams)
        thread = sender_thread(server.address, records)
        armed = DiagnosisService(
            socket_source(server),
            service_config(tmp_path),
            faults=CrashInjector(CrashPlan("after-seal", chunk=2)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        server.close()  # the crash takes the listener down too
        thread.join(timeout=60)
        assert not thread.is_alive()

        server2 = SocketIngestServer(streams)
        thread2 = sender_thread(server2.address, records, seed=9)
        recovered = DiagnosisService(
            socket_source(server2), service_config(tmp_path)
        )
        report = recovered.run()
        thread2.join(timeout=60)
        server2.close()
        assert recovered.journal.read_bytes() == offline_reference["journal"]
        assert canonical_bytes(report.diagnoses) == offline_reference["canon"]
        assert report.stats.resumes == 1


class _EOSEatingServer:
    """A minimal framed server whose fault model is precisely the hole
    the chaos soak found: it silently eats the first EOS frame while
    still answering heartbeats with ACKs — the ACK arrives, but its
    ``eos`` flag is honest.  A sender trusting ACK *arrival* declares
    success and strands the real server short one EOS; a sender
    requiring the flag retries until the EOS actually lands."""

    def __init__(self):
        import socket as socket_mod

        self._sock = socket_mod.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.address = self._sock.getsockname()
        self.eos_seen = 0
        self.eos_applied = False
        threading.Thread(target=self._serve, daemon=True).start()

    def _ack(self, frame_type):
        from repro.net import encode_frame

        return encode_frame(
            frame_type,
            {
                "acked": {"a": -1},
                "credit": {"a": 1024},
                "eos": {"a": self.eos_applied},
            },
        )

    def _serve(self):
        from repro.net import (
            FRAME_ACK,
            FRAME_EOS,
            FRAME_HEARTBEAT,
            FRAME_HELLO,
            FRAME_WELCOME,
            FrameDecoder,
        )

        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            decoder = FrameDecoder()
            try:
                while True:
                    data = conn.recv(65536)
                    if not data:
                        break
                    decoder.feed(data)
                    while True:
                        frame = decoder.next_frame()
                        if frame is None:
                            break
                        if frame.type == FRAME_HELLO:
                            conn.sendall(self._ack(FRAME_WELCOME))
                        elif frame.type == FRAME_EOS:
                            self.eos_seen += 1
                            if self.eos_seen > 1:  # the fault eats #1
                                self.eos_applied = True
                        elif frame.type == FRAME_HEARTBEAT:
                            conn.sendall(self._ack(FRAME_ACK))
            except OSError:
                pass
            finally:
                conn.close()

    def close(self):
        self._sock.close()


class TestEosConfirmation:
    def test_finish_retries_until_eos_positively_confirmed(self):
        server = _EOSEatingServer()
        try:
            sender = RecordSender(
                tuple(server.address), ["a"],
                SenderConfig(jitter_seed=3, ack_timeout_s=0.2,
                             backoff_base_s=0.001, backoff_cap_s=0.01),
            )
            sender.finish(timeout_s=30.0)
            sender.close()
        finally:
            server.close()
        # The first EOS was eaten while a heartbeat ACK still arrived;
        # returning then would have stranded the stream short its EOS.
        assert server.eos_seen >= 2
        assert server.eos_applied
