"""The commit path touches each verdict once, and the bytes do not move.

* the single-pass line encoder is pinned byte for byte to the two-pass
  reference (``tests/oracles/journal.py``) over arbitrary bodies;
* ``ServiceReport.diagnoses`` is what the journal retains — after clean
  runs, resumes at every kill-point, dead letters and compaction — without
  ``run()`` reading the journal back;
* counting (never timing) guards: a fresh run decodes no journal line and
  JSON-encodes each record once; a resumed run reads its prefix once;
* a body whose victims and diagnoses disagree in length is refused by
  every reader instead of being read as the shorter list.
"""

from __future__ import annotations

import ast
import json
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.tallies import CulpritTally
from repro.errors import ServiceError
from repro.fleet.rollup import tally_from_journal
from repro.service import (
    KILL_POINTS,
    CrashInjector,
    CrashPlan,
    DiagnosisService,
    ServiceConfig,
    SimulatedCrash,
)
from repro.service import journal as journal_mod
from repro.service.crashsim import FlakyPlan
from repro.service.journal import ResultJournal
from repro.util.timebase import MSEC
from tests.core.test_streaming_fastpath import canonical_bytes
from tests.oracles.journal import encode_line_reference

CHUNK_NS = 3 * MSEC
MARGIN_NS = 10 * MSEC


def config(state_dir, **kwargs) -> ServiceConfig:
    kwargs.setdefault("chunk_ns", CHUNK_NS)
    kwargs.setdefault("margin_ns", MARGIN_NS)
    kwargs.setdefault("durable", False)
    return ServiceConfig(state_dir=state_dir, **kwargs)


# -- byte identity of the line encoder ---------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1]),
    st.text(max_size=12),  # non-ASCII, quotes, backslashes, control characters
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)
bodies = st.dictionaries(st.text(max_size=8), values, max_size=6)
chunk_indexes = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**31, 2**63, 2**64])
)


def listified(obj):
    """What JSON hands back for ``obj``: tuples read as lists."""
    if isinstance(obj, (list, tuple)):
        return [listified(item) for item in obj]
    if isinstance(obj, dict):
        return {key: listified(item) for key, item in obj.items()}
    return obj


class TestEncodeLineMatchesReference:
    @given(chunk_index=chunk_indexes, body=bodies)
    @settings(max_examples=300, deadline=None)
    def test_byte_identical_and_round_trips(self, chunk_index, body):
        line = ResultJournal._encode_line(chunk_index, body)
        assert line == encode_line_reference(chunk_index, body)
        decoded_index, decoded = ResultJournal._decode_line(line, "test")
        assert decoded_index == chunk_index
        assert decoded == listified(body)

    def test_real_chunk_bodies(self, recurring_stall_trace, tmp_path):
        service = DiagnosisService(recurring_stall_trace, config(tmp_path))
        service.run()
        lines = service.journal.read_bytes().splitlines(keepends=True)
        assert len(lines) > 8
        for line in lines:
            chunk_index, body = ResultJournal._decode_line(line, "test")
            assert ResultJournal._encode_line(chunk_index, body) == line
            assert encode_line_reference(chunk_index, body) == line


# -- report == retained journal ----------------------------------------------------


def assert_report_is_retained_journal(service, report):
    retained = service.journal.diagnoses()
    assert report.diagnoses == retained
    assert canonical_bytes(report.diagnoses) == canonical_bytes(retained)
    assert [d.confidence for d in report.diagnoses] == [
        d.confidence for d in retained
    ]


def rotating(state_dir, **kwargs) -> ServiceConfig:
    """Every ~500 KB chunk record seals a segment; compaction starts once
    three are sealed, so it fires several times in the nine-chunk run."""
    return config(
        state_dir,
        tally_compact_every=2,
        journal_rotate_bytes=256 * 1024,
        journal_compact_bytes=1536 * 1024,
        **kwargs,
    )


class TestReportIsRetainedJournal:
    def test_clean_run(self, recurring_stall_trace, tmp_path):
        service = DiagnosisService(recurring_stall_trace, config(tmp_path))
        report = service.run()
        assert len(report.diagnoses) == report.stats.victims_diagnosed > 0
        assert_report_is_retained_journal(service, report)

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_kill_and_resume(self, recurring_stall_trace, tmp_path, point):
        armed = DiagnosisService(
            recurring_stall_trace,
            config(tmp_path),
            faults=CrashInjector(CrashPlan(point, chunk=4)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        service = DiagnosisService(recurring_stall_trace, config(tmp_path))
        report = service.run()
        assert report.stats.resumes == 1
        assert len(report.diagnoses) == report.stats.victims_diagnosed
        assert_report_is_retained_journal(service, report)

    def test_dead_lettered_chunks(self, recurring_stall_trace, tmp_path):
        service = DiagnosisService(
            recurring_stall_trace,
            config(tmp_path, max_retries=1, dead_letter_chunks=True),
            sleep=lambda s: None,
            flaky=FlakyPlan(failures={1: 99, 5: 99}),
        )
        report = service.run()
        assert report.stats.chunks_dead_lettered == 2
        assert_report_is_retained_journal(service, report)

    @pytest.mark.parametrize("crash_chunk", [None, 2])
    def test_rotation_and_compaction(
        self, recurring_stall_trace, tmp_path, crash_chunk
    ):
        """Compaction folds records out of the journal mid-run; a report
        that kept every committed diagnosis would name verdicts the journal
        no longer holds (and grow without bound).  With ``crash_chunk`` the
        folded records include ones read back from an earlier process."""
        if crash_chunk is not None:
            armed = DiagnosisService(
                recurring_stall_trace,
                rotating(tmp_path),
                faults=CrashInjector(CrashPlan("after-journal", crash_chunk)),
            )
            with pytest.raises(SimulatedCrash):
                armed.run()
            assert armed.journal.retained_from == 0
        service = DiagnosisService(recurring_stall_trace, rotating(tmp_path))
        report = service.run()
        assert report.stats.journal_compactions > 0
        assert service.journal.retained_from > 0
        assert 0 < len(report.diagnoses) < report.stats.victims_diagnosed
        assert_report_is_retained_journal(service, report)


# -- counting guards (no timers) ---------------------------------------------------


class CountingJson:
    """Stands in for the ``json`` module inside ``repro.service.journal``."""

    def __init__(self) -> None:
        self.dumped = []

    def dumps(self, obj, **kwargs):
        self.dumped.append(obj)
        return json.dumps(obj, **kwargs)

    loads = staticmethod(json.loads)


class TestCommitPathCounts:
    def test_fresh_run_never_reads_and_encodes_each_record_once(
        self, recurring_stall_trace, tmp_path, monkeypatch
    ):
        service = DiagnosisService(recurring_stall_trace, config(tmp_path))
        appended, decoded, read_calls = [], [], []
        append, decode_line = service.journal.append, ResultJournal._decode_line

        def counting_append(chunk_index, body, faults=None):
            appended.append(body)
            return append(chunk_index, body, faults=faults)

        def counting_decode(raw, where):
            decoded.append(where)
            return decode_line(raw, where)

        for name in ("records", "chunk_diagnoses", "diagnoses", "record_at"):
            monkeypatch.setattr(
                service.journal, name, lambda *a, _n=name, **k: read_calls.append(_n)
            )
        monkeypatch.setattr(service.journal, "append", counting_append)
        monkeypatch.setattr(
            ResultJournal, "_decode_line", staticmethod(counting_decode)
        )
        counting_json = CountingJson()
        monkeypatch.setattr(journal_mod, "json", counting_json)

        report = service.run()

        assert report.n_chunks >= 8 and report.diagnoses
        assert read_calls == [] and decoded == []
        # One dumps per append, and it is that append's body: chunk records
        # and tally snapshots alike, nothing encoded twice.
        assert len(appended) > report.n_chunks  # snapshots ride along
        assert len(counting_json.dumped) == len(appended)
        assert all(a is b for a, b in zip(counting_json.dumped, appended))

    def test_resumed_run_reads_its_prefix_once(
        self, recurring_stall_trace, tmp_path, monkeypatch
    ):
        armed = DiagnosisService(
            recurring_stall_trace,
            config(tmp_path),
            faults=CrashInjector(CrashPlan("chunk-start", chunk=5)),
        )
        with pytest.raises(SimulatedCrash):
            armed.run()
        service = DiagnosisService(recurring_stall_trace, config(tmp_path))
        reads = []
        chunk_diagnoses = service.journal.chunk_diagnoses

        def counting_chunk_diagnoses(start_offset=None):
            reads.append(start_offset)
            return chunk_diagnoses(start_offset)

        monkeypatch.setattr(
            service.journal, "chunk_diagnoses", counting_chunk_diagnoses
        )
        for name in ("records", "diagnoses"):
            monkeypatch.setattr(
                service.journal, name, lambda *a, _n=name, **k: reads.append(_n)
            )
        report = service.run()
        assert report.stats.resumes == 1
        # The tally replays from its snapshot (an offset); then the report's
        # prefix is the one read of everything retained (None).
        snapshot_offset, prefix = reads
        assert isinstance(snapshot_offset, int) and prefix is None


def test_no_tuple_to_list_pass_on_the_write_path():
    """``json.dumps`` writes a tuple as an array; converting first walks
    every wire element in Python.  ``_tupleize`` is the only function in
    the journal module that may call itself, and only the decoder calls it.
    """
    path = Path(journal_mod.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    recursive, callers = [], {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == func.name:
                recursive.append(func.name)
            callers.setdefault(node.func.id, set()).add(func.name)
    assert set(recursive) == {"_tupleize"}
    assert callers["_tupleize"] == {"_tupleize", "decode_diagnoses"}
    assert "_jsonify" not in path.read_text()


# -- no silent wrong answer: mismatched victims / diagnoses ------------------------


class TestMismatchedBodyRefused:
    @pytest.fixture()
    def damaged(self, recurring_stall_trace, tmp_path):
        """A journal whose chunk 2 holds one victim more than diagnoses,
        written with a valid CRC (damage a checksum cannot see)."""
        reference = DiagnosisService(
            recurring_stall_trace, config(tmp_path / "ref", tally_compact_every=0)
        )
        reference.run()
        journal = ResultJournal(tmp_path / "damaged" / "journal.jsonl", durable=False)
        for chunk_index, body in reference.journal.records():
            if chunk_index == 2:
                assert len(body["diagnoses"]) > 1
                body["diagnoses"] = body["diagnoses"][:-1]
            journal.append(chunk_index, body)
        assert [i for i, _ in journal.records()][:3] == [0, 1, 2]  # CRCs hold
        return journal

    def test_diagnoses(self, damaged):
        with pytest.raises(ServiceError, match=r"chunk 2 .* victims with"):
            damaged.diagnoses()

    def test_tally_from_journal(self, damaged):
        with pytest.raises(ServiceError, match=r"chunk 2 "):
            tally_from_journal(damaged.path)

    def test_compact(self, damaged):
        damaged.rotate()
        with pytest.raises(ServiceError, match=r"chunk 2 "):
            damaged.compact(damaged.size(), seed_tally=CulpritTally())
        assert damaged.retained_from == 0  # nothing was folded away

    def test_rebuild_tally(self, damaged, recurring_stall_trace, tmp_path):
        service = DiagnosisService(
            recurring_stall_trace, config(tmp_path / "svc", tally_compact_every=0)
        )
        service.journal = damaged
        digest = {"crc32": zlib.crc32(b""), "snapshot_offset": None}
        with pytest.raises(ServiceError, match=r"chunk 2 "):
            service._rebuild_tally(digest)
