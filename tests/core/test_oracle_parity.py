"""Scenario parity: the oracle engine equals the production engine.

The hypothesis properties in ``test_columnar.py`` and ``test_queuing.py``
explore hand-built shapes; this file runs the reference implementations
(``tests/oracles/``) over *simulated* workloads — the two chain fixtures,
a short run of the Figure-10 DAG with injected problems, and a
reconstruction that lost 10 % of its records — and asserts the same
victims and byte-identical diagnoses (confidence included), batch and
streamed.
"""

from __future__ import annotations

import pytest

from repro.collector.chaos import ChaosConfig
from repro.core.diagnosis import MicroscopeEngine
from repro.core.streaming import StreamingConfig, StreamingDiagnosis
from repro.core.victims import VictimSelector
from repro.experiments.harness import run_injected_experiment
from repro.util.timebase import MSEC, USEC
from tests.core.test_fastpath import canonical_bytes
from tests.oracles import victims as oracle_victims
from tests.oracles.engine import OracleEngine, streaming_through


def fingerprint(diagnoses):
    return canonical_bytes(diagnoses), [d.confidence for d in diagnoses]


def batch_and_streamed(engine_class, trace, victims, config, **stream_kwargs):
    """``(batch fingerprint, per-chunk fingerprints)`` through one engine."""
    batch = fingerprint(engine_class(trace).diagnose_all(victims))
    with streaming_through(engine_class):
        chunks = StreamingDiagnosis(trace, config, **stream_kwargs).chunks()
        streamed = [
            (c.start_ns, c.end_ns) + fingerprint(c.diagnoses) for c in chunks
        ]
    return batch, streamed


def fig10_dag_trace():
    """24 ms of the 16-NF chain: one burst, one interrupt, one bug."""
    return run_injected_experiment(
        rate_pps=600_000,
        duration_ns=24 * MSEC,
        seed=3,
        plan_kwargs=dict(
            n_bursts=1,
            n_interrupts=1,
            n_bug_triggers=1,
            warmup_ns=4 * MSEC,
            horizon_ns=6 * MSEC,
        ),
    ).trace


def lossy_reconstruction_trace():
    from tests.integration.test_degraded_telemetry import (
        build_soak_scenario,
        run_pipeline,
    )

    topo, data, edges = build_soak_scenario()
    chaos = ChaosConfig(drop_rate=0.10, seed=0)
    return run_pipeline(topo, data, edges, chaos=chaos, tolerant=True)["trace"]


#: name -> (trace builder or fixture name, victim threshold, chunking)
SCENARIOS = {
    "interrupt-chain": (
        "interrupt_chain_trace", 500 * USEC, StreamingConfig(MSEC // 2, MSEC)
    ),
    "recurring-stall": (
        "recurring_stall_trace", 700 * USEC, StreamingConfig(3 * MSEC, 5 * MSEC)
    ),
    "fig10-dag": (fig10_dag_trace, 1000 * USEC, StreamingConfig(4 * MSEC, 0)),
    "10pct-record-loss": (
        lossy_reconstruction_trace, 500 * USEC, StreamingConfig(2 * MSEC, 2 * MSEC)
    ),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_oracle_engine_matches_production(name, request):
    source, threshold_ns, config = SCENARIOS[name]
    trace = request.getfixturevalue(source) if isinstance(source, str) else source()

    selector = VictimSelector(trace)
    latency = selector.hop_latency_victims_over(threshold_ns)
    drops = selector.drop_victims()
    assert latency == oracle_victims.hop_latency_victims_over(trace, threshold_ns)
    assert drops == oracle_victims.drop_victims(trace)
    # The order StreamingDiagnosis gives threshold victims.
    victims = sorted(
        latency + drops, key=lambda v: (v.arrival_ns, v.pid, v.nf, v.kind)
    )
    assert len(victims) >= 20, "scenario must produce victims to compare"

    production, oracle = (
        batch_and_streamed(
            engine_class, trace, victims, config, victim_threshold_ns=threshold_ns
        )
        for engine_class in (MicroscopeEngine, OracleEngine)
    )
    assert production == oracle
    # And streamed == batch, per victim in order.
    (_batch_bytes, batch_confidences), chunks = production
    assert [conf for chunk in chunks for conf in chunk[3]] == batch_confidences
