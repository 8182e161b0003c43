"""Live-mode acceptance: a live service run equals an offline one, byte
for byte, and survives crashes anywhere in the ingest path.

The pinned invariants (ISSUE 5):

* with a clean transport, a live run's journal and final report are
  byte-identical to an offline ``DiagnosisService`` run over the same
  telemetry materialized as a ``DiagTrace``;
* a crash at any ingest kill-point (or any per-chunk protocol point),
  followed by a restart with a freshly constructed identically-seeded
  source, recovers with no duplicated and no lost sealed chunks;
* overload sheds are journalled per chunk, never silent, and the
  shed schedule is deterministic across crash-restart.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.records import DiagTrace, PacketView
from repro.errors import ServiceError
from repro.ingest import (
    DeadStreamTransport,
    FeedConfig,
    FlakyTransport,
    IncrementalTrace,
    IngestConfig,
    SimTransport,
    TelemetryFeed,
)
from repro.ingest.records import drop_record, emit_record
from repro.nfv.tap import LiveRecordTap
from repro.service import (
    INGEST_KILL_POINTS,
    CrashInjector,
    CrashPlan,
    DiagnosisService,
    LiveTraceSource,
    ServiceConfig,
    SimulatedCrash,
)
from repro.util.timebase import MSEC, USEC
from tests.conftest import MAIN_FLOW, make_chain_topology, run_interrupt_chain
from tests.core.test_streaming_fastpath import canonical_bytes

CHUNK_NS = 1 * MSEC
MARGIN_NS = 5 * MSEC
THRESHOLD_NS = 300 * USEC


def config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("chunk_ns", CHUNK_NS)
    kwargs.setdefault("margin_ns", MARGIN_NS)
    kwargs.setdefault("victim_threshold_ns", THRESHOLD_NS)
    kwargs.setdefault("durable", False)
    return ServiceConfig(state_dir=tmp_path / "state", **kwargs)


def make_source(
    records,
    transport=None,
    feed_config=None,
    chunk_ns=CHUNK_NS,
    straggler_timeout_ns=None,
):
    """Fresh source over the record stream — what a (re)started service
    constructs; building it anew each time is the restart model."""
    transport = transport if transport is not None else SimTransport(records)
    feed = TelemetryFeed(transport, feed_config or FeedConfig())
    builder = IncrementalTrace.for_topology(
        make_chain_topology(),
        IngestConfig(
            chunk_ns=chunk_ns,
            seal_margin_ns=MARGIN_NS,
            straggler_timeout_ns=straggler_timeout_ns,
        ),
    )
    return LiveTraceSource(feed, builder)


@pytest.fixture(scope="module")
def tapped_run():
    # 12 ms so chunks seal progressively while the transport still
    # delivers (a 5 ms trace under a 5 ms seal margin only seals at EOS,
    # which would leave the mid-run ingest kill-points unreachable).
    tap = LiveRecordTap()
    result = run_interrupt_chain(duration_ns=12 * MSEC, extra_hooks=[tap])
    return tap.records, DiagTrace.from_sim_result(result)


@pytest.fixture(scope="module")
def offline_reference(tapped_run, tmp_path_factory):
    _records, trace = tapped_run
    service = DiagnosisService(trace, config(tmp_path_factory.mktemp("offline")))
    report = service.run()
    return {
        "canon": canonical_bytes(report.diagnoses),
        "journal": service.journal.read_bytes(),
        "tally": report.tally,
        "n_chunks": report.n_chunks,
    }


@pytest.fixture(scope="module")
def live_reference(tapped_run, tmp_path_factory):
    records, _trace = tapped_run
    service = DiagnosisService(
        make_source(records), config(tmp_path_factory.mktemp("live"))
    )
    report = service.run()
    return {
        "canon": canonical_bytes(report.diagnoses),
        "journal": service.journal.read_bytes(),
        "tally": report.tally,
        "n_chunks": report.n_chunks,
        "stats": report.stats,
    }


class TestLiveMatchesOffline:
    def test_journal_byte_identical(self, offline_reference, live_reference):
        assert live_reference["journal"] == offline_reference["journal"]
        assert live_reference["n_chunks"] == offline_reference["n_chunks"]

    def test_report_identical(self, offline_reference, live_reference):
        assert live_reference["canon"] == offline_reference["canon"]
        assert live_reference["tally"] == offline_reference["tally"]

    def test_ingest_stats_populated(self, tapped_run, live_reference):
        records, _trace = tapped_run
        stats = live_reference["stats"]
        assert stats.ingest_records_applied == len(records)
        assert stats.ingest_records_pulled == len(records)
        assert stats.ingest_rejects == 0 and stats.ingest_gaps == 0
        assert stats.ingest_peak_buffered > 0

    def test_live_requires_absolute_threshold(self, tapped_run, tmp_path):
        records, _trace = tapped_run
        with pytest.raises(ServiceError, match="victim_threshold_ns"):
            DiagnosisService(
                make_source(records),
                config(tmp_path, victim_threshold_ns=None),
            )

    def test_chunk_width_mismatch_refused(self, tapped_run, tmp_path):
        records, _trace = tapped_run
        with pytest.raises(ServiceError, match="chunk"):
            DiagnosisService(
                make_source(records, chunk_ns=2 * CHUNK_NS), config(tmp_path)
            )

    def test_drop_after_the_last_departure_is_diagnosed(self, tapped_run, tmp_path):
        """A queue that overflows after everything else has departed (the
        trace cut off with its contents still queued): the drop falls in a
        later chunk than any departure, and both modes must run that far —
        sizing the run by departures alone silently lost the victim."""
        records, trace = tapped_run
        last_ns = max(record.time_ns for record in records)
        pid = max(record.pid for record in records) + 1
        emit_ns, drop_ns = last_ns + 1, last_ns + 3 * CHUNK_NS
        seq = {
            stream: 1 + max(r.seq for r in records if r.stream == stream)
            for stream in ("src-main", "nat1")
        }
        late = [
            emit_record("src-main", seq["src-main"], emit_ns, pid, MAIN_FLOW.as_tuple()),
            drop_record("nat1", seq["nat1"], drop_ns, pid),
        ]
        trace = copy.deepcopy(trace)  # the fixture is shared
        trace.packets[pid] = PacketView(
            pid=pid,
            flow=MAIN_FLOW,
            source="src-main",
            emitted_ns=emit_ns,
            dropped_at="nat1",
            dropped_ns=drop_ns,
        )
        trace.nfs["nat1"].drops.append((drop_ns, pid))

        offline = DiagnosisService(trace, config(tmp_path / "offline"))
        offline_report = offline.run()
        live = DiagnosisService(
            make_source(list(records) + late), config(tmp_path / "live")
        )
        live_report = live.run()
        assert live.journal.read_bytes() == offline.journal.read_bytes()
        assert live_report.n_chunks == offline_report.n_chunks
        assert offline_report.n_chunks == drop_ns // CHUNK_NS + 1
        for report in (offline_report, live_report):
            assert [
                d.victim.arrival_ns
                for d in report.diagnoses
                if d.victim.kind == "drop" and d.victim.pid == pid
            ] == [drop_ns]

    def test_offline_with_threshold_equals_offline(
        self, tapped_run, tmp_path, offline_reference
    ):
        """The threshold selector itself is mode-independent: the offline
        reference above already uses it, so re-running offline reproduces
        the journal — pinning that live equality is not vacuous."""
        _records, trace = tapped_run
        service = DiagnosisService(trace, config(tmp_path))
        report = service.run()
        assert service.journal.read_bytes() == offline_reference["journal"]
        assert report.n_chunks == offline_reference["n_chunks"]


class TestIngestCrashRecovery:
    @pytest.mark.parametrize("point", INGEST_KILL_POINTS)
    def test_kill_restart_no_duplicate_no_lost_chunks(
        self, tapped_run, tmp_path, live_reference, point
    ):
        records, _trace = tapped_run
        armed = DiagnosisService(
            make_source(records),
            config(tmp_path),
            faults=CrashInjector(CrashPlan(point, chunk=2)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        recovered = DiagnosisService(make_source(records), config(tmp_path))
        report = recovered.run()
        assert recovered.journal.read_bytes() == live_reference["journal"]
        assert canonical_bytes(report.diagnoses) == live_reference["canon"]
        assert report.tally == live_reference["tally"]
        assert report.stats.resumes == 1
        assert report.stats.chunks_done == live_reference["n_chunks"]

    def test_kill_inside_chunk_protocol_in_live_mode(
        self, tapped_run, tmp_path, live_reference
    ):
        """The per-chunk commit protocol's own kill-points compose with
        live re-ingestion."""
        records, _trace = tapped_run
        armed = DiagnosisService(
            make_source(records),
            config(tmp_path),
            faults=CrashInjector(CrashPlan("after-journal", chunk=3)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        recovered = DiagnosisService(make_source(records), config(tmp_path))
        report = recovered.run()
        assert recovered.journal.read_bytes() == live_reference["journal"]
        assert canonical_bytes(report.diagnoses) == live_reference["canon"]

    def test_repeated_crashes_compose(self, tapped_run, tmp_path, live_reference):
        records, _trace = tapped_run
        for plan in (
            CrashPlan("ingest-pump", chunk=1),
            CrashPlan("after-seal", chunk=4),
        ):
            service = DiagnosisService(
                make_source(records),
                config(tmp_path),
                faults=CrashInjector(plan),
            )
            with pytest.raises(SimulatedCrash):
                service.run()
        final = DiagnosisService(make_source(records), config(tmp_path))
        report = final.run()
        assert final.journal.read_bytes() == live_reference["journal"]
        assert report.stats.resumes == 2

    def test_unarmed_injector_visits_ingest_points(self, tapped_run, tmp_path):
        records, _trace = tapped_run
        injector = CrashInjector()
        DiagnosisService(
            make_source(records), config(tmp_path), faults=injector
        ).run()
        visited = {point for point, _chunk in injector.visited}
        assert set(INGEST_KILL_POINTS) <= visited


class TestFlakyTransportLive:
    def test_transport_faults_do_not_change_output(
        self, tapped_run, tmp_path, live_reference
    ):
        records, _trace = tapped_run
        transport = FlakyTransport(SimTransport(records), fail_prob=0.1, seed=11)
        service = DiagnosisService(
            make_source(records, transport=transport), config(tmp_path)
        )
        report = service.run()
        assert service.journal.read_bytes() == live_reference["journal"]
        assert report.stats.ingest_transport_failures > 0
        assert report.stats.ingest_retries > 0
        assert report.stats.ingest_reconnects > 0

    def test_flaky_crash_restart_replays_identically(
        self, tapped_run, tmp_path, live_reference
    ):
        """Seeded transport + seeded feed: a restart re-ingests the exact
        same delivery sequence, so recovery under faults is still
        byte-identical."""
        records, _trace = tapped_run

        def flaky_source():
            return make_source(
                records,
                transport=FlakyTransport(
                    SimTransport(records), fail_prob=0.1, seed=11
                ),
            )

        armed = DiagnosisService(
            flaky_source(),
            config(tmp_path),
            faults=CrashInjector(CrashPlan("ingest-apply", chunk=3)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        recovered = DiagnosisService(flaky_source(), config(tmp_path))
        report = recovered.run()
        assert recovered.journal.read_bytes() == live_reference["journal"]
        assert canonical_bytes(report.diagnoses) == live_reference["canon"]


class TestOverloadSheds:
    def test_sheds_journalled_per_chunk(self, tapped_run, tmp_path):
        records, _trace = tapped_run
        source = make_source(
            records,
            transport=SimTransport(records, can_backpressure=False),
            feed_config=FeedConfig(buffer_capacity=512, max_pull=2048),
        )
        service = DiagnosisService(source, config(tmp_path))
        report = service.run()
        assert report.stats.ingest_sheds > 0
        journalled = [
            tuple(shed)
            for _index, body in service.journal.records()
            for shed in body.get("ingest_sheds", [])
        ]
        assert len(journalled) == report.stats.ingest_sheds
        assert sorted(journalled) == sorted(source._sheds)
        # Shedding degraded the evidence: diagnosis went tolerant, with
        # the loss visible in health, not silently absorbed.
        assert source.builder.telemetry is not None
        assert report.stats.ingest_gaps > 0


class TestStragglerLive:
    def test_dead_stream_quarantined_service_completes(
        self, tapped_run, tmp_path
    ):
        records, _trace = tapped_run
        source = make_source(
            records,
            transport=DeadStreamTransport(
                SimTransport(records), "src-probe", after_ns=2 * MSEC
            ),
            straggler_timeout_ns=1 * MSEC,
        )
        report = DiagnosisService(source, config(tmp_path)).run()
        assert report.stats.ingest_quarantined == 1
        assert report.stats.chunks_done == report.n_chunks
        assert report.n_chunks >= 1
