"""DiagnosisService behavior: equivalence, shedding, retries, fingerprints.

Crash recovery itself is exercised in ``test_crashsim.py``; this module
pins everything the service does while *not* crashing.
"""

from __future__ import annotations

import pytest

from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import Victim
from repro.errors import CheckpointError, ServiceError
from repro.fleet import WorkerPool
from repro.service import (
    DiagnosisService,
    FlakyPlan,
    ServiceConfig,
    ServiceStats,
    shed_victims,
)
from repro.util.timebase import MSEC
from tests.core.test_streaming_fastpath import canonical_bytes

CHUNK_NS = 1 * MSEC
MARGIN_NS = 5 * MSEC


def config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("chunk_ns", CHUNK_NS)
    kwargs.setdefault("margin_ns", MARGIN_NS)
    kwargs.setdefault("durable", False)
    return ServiceConfig(state_dir=tmp_path / "state", **kwargs)


@pytest.fixture(scope="module")
def streaming_reference(interrupt_chain_trace):
    return StreamingDiagnosis(
        interrupt_chain_trace,
        StreamingConfig(chunk_ns=CHUNK_NS, margin_ns=MARGIN_NS),
        victim_pct=99.0,
    ).run()


class TestCleanRun:
    def test_matches_streaming_output(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        report = DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        assert canonical_bytes(report.diagnoses) == canonical_bytes(
            streaming_reference
        )
        assert report.stats.chunks_done == report.n_chunks
        assert report.stats.checkpoints_written == report.n_chunks
        assert report.stats.victims_diagnosed == len(streaming_reference)
        assert report.stats.resumes == 0

    def test_tally_accumulates_all_chunks(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        report = DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        assert report.tally.victims == len(streaming_reference)
        expected_score = sum(
            c.score for d in streaming_reference for c in d.culprits
        )
        assert report.tally.total_score == pytest.approx(expected_score)
        assert report.tally.top(1)[0][2].score > 0

    def test_rerun_on_finished_state_is_idempotent(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        again = DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        assert canonical_bytes(again.diagnoses) == canonical_bytes(
            streaming_reference
        )
        assert again.stats.resumes == 1
        # No chunk was re-processed: counters carried from the checkpoint.
        assert again.stats.chunks_done == again.n_chunks

    def test_parallel_workers_identical(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        with WorkerPool(2) as pool:
            report = DiagnosisService(
                interrupt_chain_trace,
                config(tmp_path, task_timeout_s=60.0),
                executor=pool,
            ).run()
        assert canonical_bytes(report.diagnoses) == canonical_bytes(
            streaming_reference
        )


class TestLoadShedding:
    def test_budget_sheds_and_accounts(self, tmp_path, interrupt_chain_trace):
        budget = 5
        report = DiagnosisService(
            interrupt_chain_trace, config(tmp_path, max_victims_per_chunk=budget)
        ).run()
        stats = report.stats
        assert stats.victims_shed > 0
        assert stats.shed_chunks > 0
        assert stats.victims_diagnosed + stats.victims_shed == sum(
            len(
                StreamingDiagnosis(
                    interrupt_chain_trace,
                    StreamingConfig(chunk_ns=CHUNK_NS, margin_ns=MARGIN_NS),
                    victim_pct=99.0,
                ).victims_for_chunk(i)
            )
            for i in range(report.n_chunks)
        )

    def test_shed_pids_journalled_per_chunk(self, tmp_path, interrupt_chain_trace):
        service = DiagnosisService(
            interrupt_chain_trace, config(tmp_path, max_victims_per_chunk=5)
        )
        report = service.run()
        journalled_shed = [
            pid
            for _i, body in service.journal.records()
            for pid in body.get("shed_pids", [])
        ]
        assert len(journalled_shed) == report.stats.victims_shed

    def test_worst_victims_retained(self):
        victims = [
            Victim(pid=i, nf="vpn1", kind="hop-latency", arrival_ns=i * 10, metric=float(m))
            for i, m in enumerate([5, 50, 10, 90, 20])
        ]
        victims.append(
            Victim(pid=99, nf="vpn1", kind="drop", arrival_ns=60, metric=1.0)
        )
        kept, shed = shed_victims(victims, 3)
        # Drops always survive; then by metric descending (90, 50).
        assert {v.pid for v in kept} == {99, 3, 1}
        assert len(shed) == 3
        # Kept victims stay in original arrival order.
        assert [v.pid for v in kept] == [1, 3, 99]

    def test_no_budget_means_no_shedding(self):
        victims = [
            Victim(pid=i, nf="x", kind="hop-latency", arrival_ns=i, metric=1.0)
            for i in range(10)
        ]
        kept, shed = shed_victims(victims, None)
        assert kept == victims and shed == []


class TestRetryBackoff:
    def test_transient_failures_retried_with_backoff(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        sleeps = []
        service = DiagnosisService(
            interrupt_chain_trace,
            config(tmp_path, max_retries=3),
            sleep=sleeps.append,
            flaky=FlakyPlan(failures={1: 2, 3: 1}),
        )
        report = service.run()
        assert canonical_bytes(report.diagnoses) == canonical_bytes(
            streaming_reference
        )
        assert report.stats.transient_failures == 3
        assert report.stats.retries == 3
        assert len(sleeps) == 3
        assert report.stats.backoff_total_s == pytest.approx(sum(sleeps))

    def test_backoff_grows_exponentially_with_jitter(
        self, tmp_path, interrupt_chain_trace
    ):
        sleeps = []
        service = DiagnosisService(
            interrupt_chain_trace,
            config(tmp_path, max_retries=3, backoff_base_s=0.1, backoff_cap_s=10.0),
            sleep=sleeps.append,
            flaky=FlakyPlan(failures={0: 3}),
        )
        service.run()
        assert len(sleeps) == 3
        # Jitter keeps each delay within [0.5, 1.5] x the exponential step.
        for attempt, delay in enumerate(sleeps):
            nominal = 0.1 * (2.0**attempt)
            assert 0.5 * nominal <= delay <= 1.5 * nominal
        assert sleeps[2] > sleeps[0]

    def test_retries_exhausted_raises(self, tmp_path, interrupt_chain_trace):
        service = DiagnosisService(
            interrupt_chain_trace,
            config(tmp_path, max_retries=2),
            sleep=lambda s: None,
            flaky=FlakyPlan(failures={0: 99}),
        )
        with pytest.raises(ServiceError, match="chunk 0 failed after 3 attempts"):
            service.run()

    def test_failed_chunk_left_uncommitted_then_recovered(
        self, tmp_path, interrupt_chain_trace, streaming_reference
    ):
        """A chunk that exhausts retries commits nothing; a later healthy
        run picks up exactly there."""
        broken = DiagnosisService(
            interrupt_chain_trace,
            config(tmp_path, max_retries=1),
            sleep=lambda s: None,
            flaky=FlakyPlan(failures={2: 99}),
        )
        with pytest.raises(ServiceError):
            broken.run()
        assert broken.stats.chunks_done == 2
        healthy = DiagnosisService(interrupt_chain_trace, config(tmp_path))
        report = healthy.run()
        assert canonical_bytes(report.diagnoses) == canonical_bytes(
            streaming_reference
        )
        assert report.stats.resumes == 1


class TestFingerprint:
    def test_resume_with_different_chunking_refused(
        self, tmp_path, interrupt_chain_trace
    ):
        DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        with pytest.raises(CheckpointError, match="different service configuration"):
            DiagnosisService(
                interrupt_chain_trace, config(tmp_path, chunk_ns=2 * MSEC)
            ).run()

    def test_resume_with_different_trace_refused(
        self, tmp_path, interrupt_chain_trace, recurring_stall_trace
    ):
        DiagnosisService(interrupt_chain_trace, config(tmp_path)).run()
        with pytest.raises(CheckpointError):
            DiagnosisService(recurring_stall_trace, config(tmp_path)).run()


class TestStatsPayload:
    def test_round_trip(self):
        stats = ServiceStats(
            chunks_done=7, victims_shed=3, backoff_total_s=1.25, resumes=2
        )
        assert ServiceStats.from_payload(stats.to_payload()) == stats

    def test_unknown_fields_ignored(self):
        payload = ServiceStats(chunks_done=1).to_payload()
        payload["from_the_future"] = 42
        assert ServiceStats.from_payload(payload).chunks_done == 1
