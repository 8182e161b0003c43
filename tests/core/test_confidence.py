"""Confidence-scored diagnosis over degraded telemetry.

``trace.telemetry is None`` (strict mode) must leave every culprit at
confidence 1.0 and the output bit-identical to the pre-confidence engine;
attaching a ``TelemetryHealth`` discounts confidence along the recursion
chain and turns quarantined upstream NFs into explicit ``low-evidence``
culprits instead of confident guesses.
"""

import pytest

from repro.collector.health import TelemetryHealth
from repro.core.diagnosis import (
    Culprit,
    MicroscopeEngine,
    _diagnosis_from_wire,
    _diagnosis_to_wire,
)
from repro.core.records import DiagTrace
from repro.core.report import ranked_entities
from repro.core.explain import explain
from repro.core.victims import VictimSelector
from repro.errors import DiagnosisError
from repro.fleet import WorkerPool


def with_health(trace: DiagTrace, health: TelemetryHealth) -> DiagTrace:
    """Same views, different telemetry — never mutate the shared fixture."""
    return DiagTrace(
        packets=trace.packets,
        nfs=trace.nfs,
        upstreams=trace.upstreams,
        sources=trace.sources,
        nf_types=trace.nf_types,
        telemetry=health,
    )


def select_victims(trace):
    return sorted(
        VictimSelector(trace).hop_latency_victims(pct=98.0),
        key=lambda v: v.arrival_ns,
    )


class TestStrictMode:
    def test_culprit_confidence_defaults_to_one(self):
        culprit = Culprit(
            kind="local",
            location="nat1",
            score=1.0,
            culprit_pids=(1,),
            victim_pid=1,
            victim_nf="nat1",
            depth=0,
            culprit_time_ns=0,
        )
        assert culprit.confidence == 1.0

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(DiagnosisError):
            Culprit(
                kind="psychic",
                location="nat1",
                score=1.0,
                culprit_pids=(),
                victim_pid=1,
                victim_nf="nat1",
                depth=0,
                culprit_time_ns=0,
            )

    def test_strict_trace_reports_full_confidence(self, interrupt_chain_trace):
        trace = interrupt_chain_trace
        assert trace.telemetry is None
        engine = MicroscopeEngine(trace)
        victims = select_victims(trace)
        assert victims
        for diagnosis in engine.diagnose_all(victims[:10]):
            assert all(c.confidence == 1.0 for c in diagnosis.culprits)
            assert diagnosis.confidence == 1.0

    def test_perfect_health_equals_strict_output(self, interrupt_chain_trace):
        """A tolerant trace with perfect telemetry is bit-identical."""
        trace = interrupt_chain_trace
        healthy = with_health(trace, TelemetryHealth.perfect())
        victims = select_victims(trace)
        strict = MicroscopeEngine(trace).diagnose_all(victims)
        tolerant = MicroscopeEngine(healthy).diagnose_all(victims)
        assert [d.culprits for d in strict] == [d.culprits for d in tolerant]


class TestConfidenceDiscounting:
    def test_completeness_discounts_confidence(self, interrupt_chain_trace):
        health = TelemetryHealth(completeness={"nat1": 0.8, "vpn1": 0.9})
        trace = with_health(interrupt_chain_trace, health)
        engine = MicroscopeEngine(trace)
        victims = [v for v in select_victims(trace) if v.nf == "vpn1"]
        assert victims
        diagnoses = engine.diagnose_all(victims)
        confidences = {
            (c.kind, c.location, c.depth): c.confidence
            for d in diagnoses
            for c in d.culprits
        }
        # Depth-0 culprits at vpn1 carry vpn1's completeness.
        depth0 = [v for (k, loc, d), v in confidences.items() if d == 0]
        assert depth0 and all(v == pytest.approx(0.9) for v in depth0)
        # Culprits reached through nat1 compound both completeness ratios.
        at_nat1 = [
            v for (k, loc, d), v in confidences.items() if loc == "nat1" and d > 0
        ]
        assert at_nat1 and all(v == pytest.approx(0.9 * 0.8) for v in at_nat1)
        assert all(d.confidence < 1.0 for d in diagnoses if d.culprits)

    def test_victim_confidence_is_score_weighted(self):
        base = dict(culprit_pids=(), victim_pid=1, victim_nf="x", depth=0,
                    culprit_time_ns=0)
        from repro.core.diagnosis import VictimDiagnosis

        diagnosis = VictimDiagnosis(victim=None)
        diagnosis.culprits = [
            Culprit(kind="local", location="a", score=3.0, confidence=1.0, **base),
            Culprit(kind="local", location="b", score=1.0, confidence=0.2, **base),
        ]
        assert diagnosis.confidence == pytest.approx((3.0 * 1.0 + 1.0 * 0.2) / 4.0)

    def test_parallel_matches_serial_with_health(self, interrupt_chain_trace):
        health = TelemetryHealth(completeness={"nat1": 0.7})
        trace = with_health(interrupt_chain_trace, health)
        victims = select_victims(trace)
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        with WorkerPool(2) as pool:
            parallel = MicroscopeEngine(trace).diagnose_all(victims, executor=pool)
        assert [d.culprits for d in serial] == [d.culprits for d in parallel]


class TestQuarantineStopsRecursion:
    @pytest.fixture()
    def quarantined_diagnoses(self, interrupt_chain_trace):
        health = TelemetryHealth(
            completeness={"nat1": 0.0, "vpn1": 1.0}, quarantined={"nat1"}
        )
        trace = with_health(interrupt_chain_trace, health)
        victims = [v for v in select_victims(trace) if v.nf == "vpn1"]
        assert victims
        return trace, MicroscopeEngine(trace).diagnose_all(victims)

    def test_low_evidence_culprit_emitted(self, quarantined_diagnoses):
        _trace, diagnoses = quarantined_diagnoses
        low = [
            c
            for d in diagnoses
            for c in d.culprits
            if c.kind == "low-evidence"
        ]
        assert low
        assert all(c.location == "nat1" for c in low)
        assert all(c.confidence == 0.0 for c in low)
        assert all(c.depth > 0 for c in low)

    def test_no_culprit_beyond_the_quarantine(self, quarantined_diagnoses):
        """Recursion must stop at the quarantined NF: nothing upstream of
        nat1 (i.e. src-main) can be blamed through untrusted evidence."""
        _trace, diagnoses = quarantined_diagnoses
        for diagnosis in diagnoses:
            for culprit in diagnosis.culprits:
                assert culprit.location != "src-main"

    def test_low_evidence_ranks_as_nf_entity(self, quarantined_diagnoses):
        trace, diagnoses = quarantined_diagnoses
        with_low = [
            d
            for d in diagnoses
            if any(c.kind == "low-evidence" for c in d.culprits)
        ]
        assert with_low
        ranking = ranked_entities(with_low[0], trace)
        assert ("nf", "nat1") in [entity for entity, _score in ranking]

    def test_explain_narrates_low_evidence(self, quarantined_diagnoses):
        trace, diagnoses = quarantined_diagnoses
        with_low = next(
            d
            for d in diagnoses
            if any(c.kind == "low-evidence" for c in d.culprits)
        )
        text = explain(with_low, trace)
        assert "insufficient telemetry at nat1" in text
        assert "confidence" in text


class TestWireFormat:
    def test_confidence_survives_the_worker_wire(self, interrupt_chain_trace):
        health = TelemetryHealth(
            completeness={"nat1": 0.5, "vpn1": 0.75}, quarantined=set()
        )
        trace = with_health(interrupt_chain_trace, health)
        engine = MicroscopeEngine(trace)
        victims = select_victims(trace)
        for victim in victims[:5]:
            diagnosis = engine.diagnose(victim)
            rebuilt = _diagnosis_from_wire(victim, _diagnosis_to_wire(diagnosis))
            assert rebuilt.culprits == diagnosis.culprits
            assert rebuilt.confidence == diagnosis.confidence
