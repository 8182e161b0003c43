"""Relation columns against the per-culprit dataclass reference.

``causal_relations`` builds relation columns in one pass over all
culprits.  Iterated, they must give the rows of the per-culprit code in
``tests/oracles/report.py`` — same flows, locations, gaps and kinds, and
scores equal by ``float.hex`` — on random traces and diagnoses: ties at
the ``max_culprit_flows`` cap, pids absent from the trace, victims
without a flow, repeated pid tuples, and pid lookups cut into batches of
a few pids.  The column view itself (indexing,
slices, :meth:`RelationColumns.of`) must agree with the rows it yields.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import Culprit, MicroscopeEngine, VictimDiagnosis
from repro.core.records import DiagTrace, PacketView
from repro.core import report
from repro.core.report import CausalRelation, RelationColumns, causal_relations
from repro.core.victims import Victim, VictimSelector
from repro.experiments.harness import run_injected_experiment
from repro.nfv.packet import FiveTuple
from repro.util.timebase import MSEC
from tests.oracles import report as oracle
from tests.oracles.trace import NFView

FLOWS = [
    FiveTuple.of("10.0.0.1", "20.0.0.1", 1_000, 80),
    FiveTuple.of("10.0.0.2", "20.0.0.1", 1_001, 80),
    FiveTuple.of("10.0.0.2", "20.0.0.1", 1_001, 80, 17),
    FiveTuple.of("151.3.0.9", "32.0.0.7", 2_004, 6_004),
    FiveTuple.of("151.3.0.9", "32.0.0.7", 2_005, 6_005),
]
NFS = ["nat1", "fw1", "vpn1"]


def rows_of(relations):
    return [
        (
            r.culprit_flow,
            r.culprit_location,
            r.victim_flow,
            r.victim_location,
            r.score.hex(),
            r.gap_ns,
            r.culprit_kind,
        )
        for r in relations
    ]


@st.composite
def postmortems(draw):
    """A trace of ``n`` packets over a few flows, and diagnoses whose
    victims and culprit pids may lie outside it."""
    n = draw(st.integers(1, 30))
    flows = draw(st.lists(st.sampled_from(FLOWS), min_size=n, max_size=n))
    packets = {
        pid: PacketView(pid=pid, flow=flow, source="src", emitted_ns=pid)
        for pid, flow in enumerate(flows)
    }
    trace = DiagTrace(
        packets=packets,
        nfs={name: NFView(name=name, peak_rate_pps=1e6) for name in NFS},
        upstreams={},
        sources={"src"},
    )
    pid = st.integers(0, n + 3)  # pids >= n are absent from the trace
    pid_tuple = st.lists(pid, max_size=12).map(tuple)
    shared = draw(st.lists(pid_tuple, min_size=1, max_size=3))
    diagnoses = []
    for _ in range(draw(st.integers(0, 6))):
        victim = Victim(
            pid=draw(pid),
            nf=draw(st.sampled_from(NFS)),
            kind="latency",
            arrival_ns=draw(st.integers(0, 5_000)),
            metric=1.0,
        )
        culprits = [
            Culprit(
                kind=draw(st.sampled_from(["local", "source", "low-evidence"])),
                location=draw(st.sampled_from(NFS + ["src"])),
                score=draw(st.floats(0.0, 100.0) | st.sampled_from([0.1, 1 / 3])),
                culprit_pids=draw(pid_tuple | st.sampled_from(shared)),
                victim_pid=victim.pid,
                victim_nf=victim.nf,
                depth=0,
                culprit_time_ns=draw(st.integers(0, 6_000)),
            )
            for _ in range(draw(st.integers(0, 4)))
        ]
        diagnoses.append(VictimDiagnosis(victim=victim, culprits=culprits))
    return trace, diagnoses


class TestRelationParity:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        case=postmortems(),
        cap=st.sampled_from([1, 2, 3, 16, 0]),
        batch=st.sampled_from([report._PIDS_PER_BATCH, 1, 5]),
    )
    def test_same_rows_as_per_culprit_code(self, case, cap, batch):
        trace, diagnoses = case
        with mock.patch.object(report, "_PIDS_PER_BATCH", batch):
            ours = causal_relations(diagnoses, trace, max_culprit_flows=cap)
        theirs = oracle.causal_relations(diagnoses, trace, max_culprit_flows=cap)
        assert len(ours) == len(theirs)
        assert rows_of(ours) == rows_of(theirs)
        assert rows_of(RelationColumns.of(theirs)) == rows_of(theirs)

    def test_ties_at_the_cap_keep_first_occurrence(self):
        packets = {
            pid: PacketView(pid=pid, flow=FLOWS[pid % 4], source="src", emitted_ns=0)
            for pid in range(8)
        }
        trace = DiagTrace(
            packets=packets,
            nfs={"fw1": NFView(name="fw1", peak_rate_pps=1e6)},
            upstreams={},
            sources={"src"},
        )
        victim = Victim(pid=0, nf="fw1", kind="latency", arrival_ns=900, metric=1.0)
        culprit = Culprit(
            kind="source", location="src", score=3.0,
            culprit_pids=(3, 2, 7, 6, 1, 0), victim_pid=0, victim_nf="fw1",
            depth=0, culprit_time_ns=100,
        )
        diagnoses = [VictimDiagnosis(victim=victim, culprits=[culprit])]
        ours = causal_relations(diagnoses, trace, max_culprit_flows=2)
        theirs = oracle.causal_relations(diagnoses, trace, max_culprit_flows=2)
        assert [r.culprit_flow for r in ours] == [FLOWS[3], FLOWS[2]]
        assert rows_of(ours) == rows_of(theirs)

    def test_fig10_chain(self):
        """A diagnosed Fig. 10 chain run: thousands of relations, with the
        culprit pids looked up in one batch and in many."""
        run = run_injected_experiment(
            rate_pps=600_000.0,
            duration_ns=8 * MSEC,
            seed=5,
            plan_kwargs=dict(
                n_bursts=1, n_interrupts=1, n_bug_triggers=1,
                horizon_ns=2 * MSEC, warmup_ns=2 * MSEC,
            ),
        )
        selector = VictimSelector(run.trace)
        victims = selector.hop_latency_victims(pct=99.0) + selector.drop_victims()
        diagnoses = MicroscopeEngine(run.trace).diagnose_all(victims)
        theirs = oracle.causal_relations(diagnoses, run.trace)
        assert len(theirs) > 1_000
        for batch in (report._PIDS_PER_BATCH, 997):
            with mock.patch.object(report, "_PIDS_PER_BATCH", batch):
                ours = causal_relations(diagnoses, run.trace)
            assert rows_of(ours) == rows_of(theirs)


class TestColumnView:
    def relations(self):
        return [
            CausalRelation(FLOWS[0], "fw1", FLOWS[1], "vpn1", 2.5, 10, "local"),
            CausalRelation(None, "src", FLOWS[1], "vpn1", 0.5, 20, "source"),
            CausalRelation(FLOWS[3], "fw1", FLOWS[4], "nat1", 1.0, 30, "low-evidence"),
        ]

    def test_indexing_and_slices(self):
        rows = self.relations()
        columns = RelationColumns.of(rows)
        assert len(columns) == 3 and bool(columns)
        assert list(columns) == rows
        assert columns[-1] == rows[-1] and columns[1].culprit_flow is None
        assert list(columns[1:]) == rows[1:]
        assert isinstance(columns[1:], RelationColumns)
        with pytest.raises(IndexError):
            columns[3]

    def test_of_is_idempotent_and_empty(self):
        columns = RelationColumns.of(self.relations())
        assert RelationColumns.of(columns) is columns
        empty = RelationColumns.of([])
        assert len(empty) == 0 and not empty and list(empty) == []
