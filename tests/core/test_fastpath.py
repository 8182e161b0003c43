"""Fast-path equivalence: memoization and pooled dispatch must never
change diagnosis output.

The diagnosis fast path (indexed hop lookups, period-level memoization,
``diagnose_all`` on a worker pool) is designed to be result-invariant —
every mode funnels through the same arithmetic, so culprit lists compare
equal field-for-field (including float bits).
These tests pin that contract on the interrupt-chain scenario and a
fan-in DAG, plus the memo counters and the ``_earliest_emit`` fallback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarPathDecomposition
from repro.core.diagnosis import MicroscopeEngine
from repro.core.propagation import propagation_scores
from repro.core.records import DiagTrace
from repro.core.victims import Victim, VictimSelector
from repro.fleet import WorkerPool
from repro.nfv import (
    FiveTuple,
    InterruptInjector,
    InterruptSpec,
    Nat,
    Simulator,
    Topology,
    TrafficSource,
    Vpn,
    constant_target,
)
from repro.traffic import IpidSpace, PidAllocator, constant_rate_flow
from repro.util import MSEC, USEC, substream
from tests.conftest import run_interrupt_chain
from tests.oracles.engine import OracleEngine
from tests.oracles.propagation import PathDecomposition

FLOW_A = FiveTuple.of("10.1.0.1", "20.1.0.1", 1111, 80)
FLOW_B = FiveTuple.of("10.2.0.1", "20.2.0.1", 2222, 80)


def run_fanin_dag(seed: int = 3, duration_ns: int = 4 * MSEC):
    """Two NAT branches converging on one VPN, one branch interrupted."""
    topo = Topology()
    topo.add_nf(Nat("nat-a", router=lambda p: "vpn"))
    topo.add_nf(Nat("nat-b", router=lambda p: "vpn"))
    topo.add_nf(Vpn("vpn", router=lambda p: None))
    topo.add_source("src-a")
    topo.add_source("src-b")
    topo.connect("src-a", "nat-a")
    topo.connect("src-b", "nat-b")
    topo.connect("nat-a", "vpn")
    topo.connect("nat-b", "vpn")
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "fanin"))
    flow_a = constant_rate_flow(FLOW_A, 800_000.0, duration_ns, pids, ipids)
    flow_b = constant_rate_flow(FLOW_B, 400_000.0, duration_ns, pids, ipids)
    return Simulator(
        topo,
        [
            TrafficSource("src-a", flow_a, constant_target("nat-a")),
            TrafficSource("src-b", flow_b, constant_target("nat-b")),
        ],
        injectors=[
            InterruptInjector([InterruptSpec("nat-a", 400 * USEC, 600 * USEC)])
        ],
    ).run()


def culprit_lists(diagnoses):
    return [d.culprits for d in diagnoses]


def canonical_bytes(diagnoses) -> bytes:
    """Identity-insensitive byte serialization of the culprit output."""
    payload = [
        [
            [c.kind, c.location, c.score, list(c.culprit_pids), c.victim_pid,
             c.victim_nf, c.depth, c.culprit_time_ns]
            for c in d.culprits
        ]
        for d in diagnoses
    ]
    return json.dumps(payload, sort_keys=True).encode()


@pytest.fixture(scope="module")
def chain_case():
    trace = DiagTrace.from_sim_result(run_interrupt_chain())
    victims = VictimSelector(trace).hop_latency_victims(pct=98.0)
    assert victims
    return trace, victims


@pytest.fixture(scope="module")
def fanin_case():
    trace = DiagTrace.from_sim_result(run_fanin_dag())
    victims = sorted(
        VictimSelector(trace).hop_latency_victims(pct=98.0)
        + VictimSelector(trace).drop_victims(),
        key=lambda v: (v.arrival_ns, v.pid, v.nf),
    )
    assert victims
    return trace, victims


class TestMemoizationEquivalence:
    @pytest.mark.parametrize("case", ["chain_case", "fanin_case"])
    def test_memo_on_off_identical(self, case, request):
        trace, victims = request.getfixturevalue(case)
        memo = MicroscopeEngine(trace, memoize=True).diagnose_all(victims)
        plain = MicroscopeEngine(trace, memoize=False).diagnose_all(victims)
        assert culprit_lists(memo) == culprit_lists(plain)
        assert canonical_bytes(memo) == canonical_bytes(plain)

    @pytest.mark.parametrize("case", ["chain_case", "fanin_case"])
    def test_warm_cache_identical_to_cold(self, case, request):
        trace, victims = request.getfixturevalue(case)
        engine = MicroscopeEngine(trace)
        cold = engine.diagnose_all(victims)
        warm = engine.diagnose_all(victims)
        assert culprit_lists(cold) == culprit_lists(warm)

    @pytest.mark.parametrize("case", ["chain_case", "fanin_case"])
    def test_victim_order_shuffle_is_result_invariant(self, case, request):
        # Memo layers answer prefix queries: later victims must see the
        # same answers whether the cache grew forward or backward.
        trace, victims = request.getfixturevalue(case)
        forward = MicroscopeEngine(trace).diagnose_all(victims)
        backward = MicroscopeEngine(trace).diagnose_all(list(reversed(victims)))
        assert culprit_lists(forward) == culprit_lists(list(reversed(backward)))

    def test_cache_counters_expose_hits(self, chain_case):
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims)
        stats = engine.cache_stats
        assert stats.misses > 0
        if len(victims) > 1:
            # Recursion re-visits shared upstream periods: hits must show up.
            assert stats.hits > 0
        before = stats.hits
        engine.diagnose_all(victims)
        assert engine.cache_stats.hits > before

    def test_memo_off_reports_no_cache_activity(self, chain_case):
        trace, victims = chain_case
        engine = MicroscopeEngine(trace, memoize=False)
        engine.diagnose_all(victims)
        stats = engine.cache_stats
        assert stats.hits == 0 and stats.misses == 0


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


class TestParallelEquivalence:
    """A batch handed to a pool is one task on one warm worker; whatever
    the batch, the output equals the serial path's."""

    @pytest.mark.parametrize("case", ["chain_case", "fanin_case"])
    def test_workers_1_vs_4_identical(self, case, request):
        # In-caller (one process) against a four-worker pool.
        trace, victims = request.getfixturevalue(case)
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        with WorkerPool(4) as four:
            parallel = MicroscopeEngine(trace).diagnose_all(victims, executor=four)
            assert four.stats.tasks == 1
        assert len(parallel) == len(victims)
        assert [d.victim for d in parallel] == [d.victim for d in serial]
        assert culprit_lists(serial) == culprit_lists(parallel)
        assert canonical_bytes(serial) == canonical_bytes(parallel)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_pooled_subsets_match_serial(self, chain_case, fanin_case, pool, data):
        case = data.draw(st.sampled_from(["chain", "fanin"]), label="case")
        trace, victims = chain_case if case == "chain" else fanin_case
        index = data.draw(st.integers(0, len(victims) - 1), label="index")
        shuffled = data.draw(st.permutations(victims), label="shuffled")
        for subset in ([], [victims[index]], list(victims), shuffled):
            serial = MicroscopeEngine(trace).diagnose_all(subset)
            pooled = MicroscopeEngine(trace).diagnose_all(subset, executor=pool)
            assert [d.victim for d in pooled] == subset
            assert canonical_bytes(pooled) == canonical_bytes(serial)

    def test_parallel_unmemoized_identical_too(self, chain_case, pool):
        trace, victims = chain_case
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        parallel = MicroscopeEngine(trace, memoize=False).diagnose_all(
            victims, executor=pool
        )
        assert culprit_lists(serial) == culprit_lists(parallel)

    def test_parallel_empty_and_single_victim(self, chain_case, pool):
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        assert engine.diagnose_all([], executor=pool) == []
        single = engine.diagnose_all(victims[:1], executor=pool)
        assert culprit_lists(single) == culprit_lists(engine.diagnose_all(victims[:1]))


class TestWorkerFailureRecovery:
    def test_broken_pool_retries_serially(self, chain_case, monkeypatch):
        """A crashed worker must not kill the run: the lost batch is
        retried serially in the caller, output matches the serial path,
        and the failure surfaces in cache_stats.worker_failures."""
        import repro.core.diagnosis as diagnosis_mod

        def exploding_init(*_args, **_kwargs):
            import os

            os._exit(13)  # simulate a worker dying mid-initialization

        monkeypatch.setattr(
            diagnosis_mod, "_parallel_worker_init", exploding_init
        )
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        with WorkerPool(2) as broken:  # forks after the patch
            recovered = engine.diagnose_all(victims, executor=broken)
        assert engine.cache_stats.worker_failures > 0
        serial = MicroscopeEngine(trace).diagnose_all(victims)
        assert [d.victim for d in recovered] == [d.victim for d in serial]
        assert culprit_lists(recovered) == culprit_lists(serial)
        assert canonical_bytes(recovered) == canonical_bytes(serial)

    def test_healthy_pool_reports_zero_failures(self, chain_case, pool):
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        engine.diagnose_all(victims, executor=pool)
        assert engine.cache_stats.worker_failures == 0


class TestPathDecompositionPrefixes:
    def test_prefix_queries_match_fresh_runs(self, chain_case):
        # One decomposition answering growing prefixes must equal a fresh
        # propagation run per prefix — the core memoization invariant —
        # whether it is the production one or the object-walking oracle.
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        victim = max(victims, key=lambda v: v.arrival_ns)
        analyzer = engine.analyzer(victim.nf)
        period = analyzer.period_for_arrival(victim.pid, victim.arrival_ns)
        if period is None:  # pragma: no cover - scenario always queues
            pytest.skip("victim saw no queuing period")
        preset = analyzer.preset_pids(period)
        si, texp = 25.0, 1_000_000.0
        shared = [
            PathDecomposition(trace, victim.nf),
            ColumnarPathDecomposition(trace, victim.nf),
        ]
        for m in sorted({1, 2, len(preset) // 2, len(preset)}):
            if m < 1 or m > len(preset):
                continue
            fresh = propagation_scores(trace, victim.nf, preset[:m], si, texp)
            for decomposition in shared:
                reused = propagation_scores(
                    trace, victim.nf, preset[:m], si, texp,
                    decomposition=decomposition,
                )
                assert fresh == reused

    def test_first_hop_arrival_matches_scan(self, chain_case):
        trace, victims = chain_case
        engine = MicroscopeEngine(trace)
        scan = OracleEngine(trace)._first_preset_arrival
        for victim in victims[:20]:
            diagnosis = engine.diagnose(victim)
            if diagnosis.local is None or diagnosis.local.si <= 0:
                continue
            analyzer = engine.analyzer(victim.nf)
            preset = analyzer.preset_pids(diagnosis.period)
            peak = trace.nfs[victim.nf].peak_rate_pps
            shares, _ = propagation_scores(
                trace,
                victim.nf,
                preset,
                diagnosis.local.si,
                diagnosis.period.n_input / peak * 1e9,
            )
            for share in shares:
                if share.is_source:
                    assert share.first_hop_arrival is None
                else:
                    expected = scan(share.name, share.subset_pids)
                    assert share.first_hop_arrival == expected
                    assert expected == engine._first_preset_arrival(
                        share.name, share.subset_pids
                    )


class TestEarliestEmitFallback:
    def test_unknown_pids_fall_back_to_victim_arrival(self, chain_case):
        # Regression: unknown pids used to return 0 — a bogus epoch
        # timestamp that wrecked culprit-to-victim time-gap statistics.
        trace, _victims = chain_case
        engine = MicroscopeEngine(trace)
        missing = [max(trace.packets) + 1000, max(trace.packets) + 1001]
        assert engine._earliest_emit(missing, fallback_ns=123_456) == 123_456

    def test_known_pids_still_report_earliest_emit(self, chain_case):
        trace, _victims = chain_case
        engine = MicroscopeEngine(trace)
        pids = sorted(trace.packets)[:5]
        expected = min(trace.packets[p].emitted_ns for p in pids)
        assert engine._earliest_emit(pids, fallback_ns=0) == expected

    def test_unattributed_culprit_uses_arrival_not_epoch(self, chain_case):
        # Diagnosing against a trace whose packet metadata is gone forces
        # the <unattributed> path; its timestamp must be the victim's
        # arrival, never 0.
        trace, victims = chain_case
        stripped = DiagTrace(
            packets={},
            nfs=trace.nfs,
            upstreams=trace.upstreams,
            sources=trace.sources,
            nf_types=trace.nf_types,
        )
        engine = MicroscopeEngine(stripped)
        victim = victims[0]
        result = engine.diagnose(victim)
        for culprit in result.culprits:
            assert culprit.culprit_time_ns > 0
