#!/usr/bin/env python
"""Record the diagnosis fast-path trajectory into BENCH_diagnosis.json.

Runs the ISSUE-1 acceptance workload (interrupt chain, 20 ms, >= 200 p99
victims at the VPN) through every ``diagnose_all`` mode, verifies the
culprit output is byte-identical across them, and writes timings plus
cache statistics to ``BENCH_diagnosis.json`` at the repo root so future
PRs can track the perf trajectory.

Usage::

    PYTHONPATH=src:. python benchmarks/record_bench.py [--output PATH]
                                                       [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.diagnosis import MicroscopeEngine  # noqa: E402
from repro.core.records import DiagTrace  # noqa: E402
from repro.core.streaming import StreamingConfig, StreamingDiagnosis  # noqa: E402
from repro.core.victims import VictimSelector  # noqa: E402
from repro.fleet import WorkerPool  # noqa: E402
from repro.util.timebase import MSEC  # noqa: E402
from tests.conftest import run_interrupt_chain  # noqa: E402

#: Seed-repo serial diagnose_all on this exact workload, measured on the
#: pre-fast-path tree (commit 59828ef's engine) right before the fast
#: path landed.  Machine-specific but recorded so the speedup the PR
#: claims stays auditable next to the live numbers below.
SEED_REFERENCE = {
    "diagnose_all_s": 0.612,
    "measured_on": "1-core linux container, python 3.11",
}


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


def timed(fn, repeats: int):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_periodic_interrupt_chain(
    duration_ns: int = 60 * MSEC,
    interrupt_every_ns: int = 3 * MSEC,
    interrupt_ns: int = 800_000,
):
    """A long-running chain with recurring NAT interrupts.

    The generator itself lives in ``tests/conftest.py``
    (``run_recurring_stall_chain``) so the service's crash-recovery tests
    and these benchmarks exercise the same workload; the benchmark runs
    the longer 60 ms variant.
    """
    from tests.conftest import run_recurring_stall_chain

    return run_recurring_stall_chain(
        duration_ns=duration_ns,
        interrupt_every_ns=interrupt_every_ns,
        interrupt_ns=interrupt_ns,
    )


def bench_service(repeats: int, trace) -> dict:
    """Checkpoint/journal overhead of the always-on service (ISSUE 4).

    Runs the crash-only service over the periodic-interrupt trace and
    compares against bare streaming: the difference is what durability
    costs — journal appends, checkpoint commits, fsyncs — amortized per
    chunk.  Measured twice: ``durable=True`` (production: every commit
    fsynced) and ``durable=False`` (atomic renames only), so the fsync
    share is visible.  Output equality with streaming is asserted, not
    assumed.
    """
    import shutil
    import tempfile

    from repro.service import DiagnosisService, ServiceConfig

    cfg = dict(chunk_ns=3 * MSEC, margin_ns=10 * MSEC)
    pct = 99.9

    def run_streaming():
        # Construction included: the service also pays victim selection
        # and engine setup per run, so the delta is purely durability.
        return StreamingDiagnosis(
            trace, StreamingConfig(**cfg), victim_pct=pct
        ).run()

    streaming_s, expected = timed(run_streaming, repeats)
    n_chunks = StreamingDiagnosis(
        trace, StreamingConfig(**cfg), victim_pct=pct
    ).n_chunks()

    def run_service(durable: bool):
        state = tempfile.mkdtemp(prefix="bench-service-")
        try:
            service = DiagnosisService(
                trace,
                ServiceConfig(
                    state_dir=state, victim_pct=pct, durable=durable, **cfg
                ),
            )
            report = service.run()
            if canonical_bytes(report.diagnoses) != canonical_bytes(expected):
                raise SystemExit("FATAL: service output differs from streaming")
            return report
        finally:
            shutil.rmtree(state, ignore_errors=True)

    durable_s, report = timed(lambda: run_service(True), repeats)
    renames_s, _ = timed(lambda: run_service(False), repeats)
    return {
        "workload": "periodic-interrupt chain 60ms (service vs streaming)",
        "n_chunks": n_chunks,
        "n_victims": report.stats.victims_diagnosed,
        "timings": {
            "streaming_s": round(streaming_s, 6),
            "service_durable_s": round(durable_s, 6),
            "service_rename_only_s": round(renames_s, 6),
        },
        "overhead": {
            "durable_total_s": round(durable_s - streaming_s, 6),
            "durable_per_chunk_ms": round(
                (durable_s - streaming_s) / n_chunks * 1e3, 3
            ),
            "fsync_share_s": round(durable_s - renames_s, 6),
        },
        "state_bytes": {
            "checkpoint": report.stats.checkpoint_bytes,
            "journal": report.stats.journal_bytes,
        },
        "output_identical_to_streaming": True,
    }


def bench_columnar(repeats: int, trace, threshold_ns: int = 50_000) -> dict:
    """Columnar-core throughput (ISSUE 6).

    End-to-end means everything a cold diagnosis pass pays: building the
    columnar twin from the object trace, selecting threshold victims from
    the columns, and serially diagnosing all of them.  Throughput is
    reported in packet-hops/sec over that wall time.
    """
    n_hops = int(len(trace.columns().hop_arrival))
    nf = max(trace.nfs, key=lambda name: len(trace.nfs[name].arrivals))

    def end_to_end():
        # Cold pass: invalidate the cached columns so the build is billed.
        trace._columns_cache = None
        trace._columns_built_at = -1
        built = trace.columns()
        victims = VictimSelector(trace).hop_latency_victims_over(
            threshold_ns, nf=nf
        )
        diags = MicroscopeEngine(trace).diagnose_all(victims)
        return built, victims, diags

    end_to_end_s, (_built, victims, serial_diags) = timed(end_to_end, repeats)
    # Work measure: packet-hops the diagnosis actually examined — every
    # buildup packet of every victim period plus every attributed pid
    # across the recursion.  The raw trace size (``n_hops``) understates
    # the workload by orders of magnitude when victims share hot periods.
    processed_hops = sum(
        (d.period.n_input if d.period is not None else 0)
        + sum(len(c.culprit_pids) for c in d.culprits)
        for d in serial_diags
    )

    return {
        "workload": "interrupt chain 20ms, columnar end-to-end",
        "threshold_ns": threshold_ns,
        "victim_nf": nf,
        "n_victims": len(victims),
        "n_packet_hops": n_hops,
        "end_to_end": {
            "wall_s": round(end_to_end_s, 6),
            "trace_packet_hops_per_s": round(n_hops / end_to_end_s, 1),
            "processed_packet_hops": int(processed_hops),
            "processed_packet_hops_per_s": round(processed_hops / end_to_end_s, 1),
            "includes": ["columns build", "victim selection", "serial diagnose_all"],
        },
        "cpus": os.cpu_count(),
    }


def bench_fleet(repeats: int, trace) -> dict:
    """Fleet-scale execution plane: aggregate throughput at 1/2/4/8
    pipelines over one shared warm pool (ISSUE 7 tentpole).

    Serial reference is one pipeline with no pool (inline diagnosis, the
    PR-6 regime); an N-pipeline fleet would cost N× that run serially.
    The fleet numbers are whatever this machine delivers — ``cpus`` is
    recorded next to them, and a 1-core container cannot show aggregate
    speedup (the GIL serializes the pipeline threads and the pool's
    workers share the single core).  Byte-identity of every pipeline
    journal with a standalone PR-6 service run is asserted, not assumed.
    """
    import shutil
    import tempfile

    from repro.fleet import FleetConfig, FleetSupervisor, PipelineSpec
    from repro.service import DiagnosisService, ServiceConfig

    n_hops = int(len(trace.columns().hop_arrival))
    cfg = dict(chunk_ns=3 * MSEC, margin_ns=10 * MSEC, victim_pct=99.9)
    pool_workers = min(8, max(2, os.cpu_count() or 1))

    # PR-6 oracle: the journal every fleet pipeline must reproduce.
    state = tempfile.mkdtemp(prefix="bench-fleet-oracle-")
    try:
        oracle = DiagnosisService(
            trace, ServiceConfig(state_dir=state, durable=False, **cfg)
        )
        oracle_report = oracle.run()
        reference_journal = oracle.journal.read_bytes()
    finally:
        shutil.rmtree(state, ignore_errors=True)

    def run_fleet(n: int, workers: int):
        root = tempfile.mkdtemp(prefix="bench-fleet-")
        try:
            specs = [
                PipelineSpec(name=f"site-{i}", source=trace) for i in range(n)
            ]
            report = FleetSupervisor(
                specs,
                FleetConfig(
                    state_dir=root,
                    pool_workers=workers,
                    task_timeout_s=60.0,
                    durable=False,
                    **cfg,
                ),
            ).run()
            for spec in specs:
                journal = (
                    Path(root) / "pipelines" / spec.name / "journal.jsonl"
                ).read_bytes()
                if journal != reference_journal:
                    raise SystemExit(
                        f"FATAL: fleet pipeline {spec.name} journal differs "
                        f"from the standalone service at {n} pipelines"
                    )
            return report
        finally:
            shutil.rmtree(root, ignore_errors=True)

    reps = max(1, repeats - 2)
    serial_s, _ = timed(lambda: run_fleet(1, 0), reps)

    scaling = {}
    for n in (1, 2, 4, 8):
        wall_s, report = timed(lambda n=n: run_fleet(n, pool_workers), reps)
        scaling[f"{n}p"] = {
            "wall_s": round(wall_s, 6),
            "aggregate_packet_hops_per_s": round(n * n_hops / wall_s, 1),
            "speedup_vs_serial": round(n * serial_s / wall_s, 2),
            "pool": report.pool_stats,
            "scheduler": report.scheduler_stats,
        }

    return {
        "workload": "periodic-interrupt chain 60ms per pipeline",
        "pool_workers": pool_workers,
        "n_packet_hops_per_pipeline": n_hops,
        "n_victims_per_pipeline": oracle_report.stats.victims_diagnosed,
        "serial_reference": {
            "single_pipeline_no_pool_s": round(serial_s, 6),
        },
        "pipeline_scaling": scaling,
        "journals_identical_to_standalone": True,
        "cpus": os.cpu_count(),
    }


def bench_endurance(repeats: int) -> dict:
    """Restart-replay cost vs run length (ISSUE 8 tentpole).

    For each run length, the endurance-enabled live service (watermark
    pruning, ingest snapshots every 6 chunks, tally budget, journal
    rotation + compaction) is crashed two chunks before the end and the
    restart is timed.  With snapshots the restart re-ingests only the
    suffix past the newest snapshot, so its cost is pinned by the
    snapshot cadence and stays flat as the run grows; the full-replay
    variant (snapshots off, same pruning schedule) re-ingests the whole
    stream and grows linearly.  Both recoveries are asserted
    byte-identical to an uninterrupted oracle over the overlap of their
    retained journal ranges.
    """
    import shutil
    import tempfile

    from repro.ingest import (
        FeedConfig,
        IncrementalTrace,
        IngestConfig,
        SimTransport,
        TelemetryFeed,
    )
    from repro.nfv.tap import LiveRecordTap
    from repro.service import (
        CrashInjector,
        CrashPlan,
        DiagnosisService,
        LiveTraceSource,
        ServiceConfig,
        SimulatedCrash,
    )
    from tests.conftest import make_chain_topology, run_recurring_stall_chain

    chunk_ns = 1 * MSEC
    margin_ns = 5 * MSEC
    snapshot_every = 6
    retain = margin_ns // chunk_ns + 2

    def config(state_dir, bounded: bool) -> ServiceConfig:
        return ServiceConfig(
            state_dir=state_dir,
            chunk_ns=chunk_ns,
            margin_ns=margin_ns,
            victim_threshold_ns=300_000,
            durable=False,
            tally_compact_every=snapshot_every,
            tally_budget=8,
            journal_rotate_bytes=8 * 1024,
            journal_compact_bytes=32 * 1024,
            ingest_checkpoint_every=snapshot_every if bounded else 0,
            replay_retain_chunks=retain,
        )

    class CountingSimTransport(SimTransport):
        # Per-process delivery counter.  Snapshot restore carries the
        # cursor and the feed's cumulative stats across restarts, so
        # ``ingest_records_pulled`` converges to the record total in
        # both modes; this counter measures what the *recovery* process
        # actually re-pulled — the replay cost being benchmarked.
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.pulled = 0

        def pull(self, stream, max_n):
            batch = super().pull(stream, max_n)
            self.pulled += len(batch)
            return batch

    def make_source(records):
        transport = CountingSimTransport(records)
        feed = TelemetryFeed(transport, FeedConfig())
        builder = IncrementalTrace.for_topology(
            make_chain_topology(),
            IngestConfig(chunk_ns=chunk_ns, seal_margin_ns=margin_ns),
        )
        return LiveTraceSource(feed, builder)

    lengths_ms = (16, 32, 48)
    reps = max(1, repeats - 1)
    by_length = []
    for length_ms in lengths_ms:
        tap = LiveRecordTap()
        run_recurring_stall_chain(
            duration_ns=length_ms * MSEC,
            main_rate=250_000.0,
            probe_rate=50_000.0,
            extra_hooks=[tap],
        )
        records = tap.records
        crash_chunk = length_ms - 2
        row = {"run_ms": length_ms, "n_records": len(records)}
        base = tempfile.mkdtemp(prefix="bench-endurance-")
        try:
            oracle_dir = Path(base) / "oracle"
            oracle = DiagnosisService(
                make_source(records), config(oracle_dir, bounded=True)
            )
            oracle_report = oracle.run()
            oracle_bytes = oracle.journal.read_bytes()
            oracle_rf = oracle.journal.retained_from
            row["n_chunks"] = oracle_report.n_chunks
            for mode, bounded in (("bounded", True), ("full_replay", False)):
                crashed = Path(base) / f"{mode}-crashed"
                armed = DiagnosisService(
                    make_source(records),
                    config(crashed, bounded=bounded),
                    faults=CrashInjector(
                        CrashPlan("after-checkpoint", chunk=crash_chunk)
                    ),
                )
                try:
                    armed.run()
                    raise SystemExit("FATAL: endurance crash plan never fired")
                except SimulatedCrash:
                    pass
                best = float("inf")
                for rep in range(reps):
                    state = Path(base) / f"{mode}-recover-{rep}"
                    shutil.copytree(crashed, state)
                    recovered = DiagnosisService(
                        make_source(records), config(state, bounded=bounded)
                    )
                    start = time.perf_counter()
                    report = recovered.run()
                    best = min(best, time.perf_counter() - start)
                    got = recovered.journal.read_bytes()
                    rf = recovered.journal.retained_from
                    overlap_ok = (
                        got == oracle_bytes[rf - oracle_rf:]
                        if rf >= oracle_rf
                        else got[oracle_rf - rf:] == oracle_bytes
                    )
                    if not overlap_ok:
                        raise SystemExit(
                            f"FATAL: {mode} recovery diverges at {length_ms}ms"
                        )
                    if report.tally.to_payload() != oracle_report.tally.to_payload():
                        raise SystemExit(
                            f"FATAL: {mode} recovery tally diverges at {length_ms}ms"
                        )
                    expected = 1 if bounded else 0
                    if report.stats.bounded_resumes != expected:
                        raise SystemExit(
                            f"FATAL: {mode} recovery at {length_ms}ms was not "
                            f"{'bounded' if bounded else 'a full replay'}"
                        )
                    row[f"{mode}_replayed_records"] = (
                        recovered.source.feed.transport.pulled
                    )
                row[f"{mode}_restart_s"] = round(best, 6)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        by_length.append(row)
    first, last = by_length[0], by_length[-1]
    return {
        "workload": "recurring-stall chain, crash 2 chunks before the end",
        "snapshot_every_chunks": snapshot_every,
        "by_run_length": by_length,
        "restart_cost_growth": {
            # run length grew 3x; a flat bounded restart stays near 1.0
            # while the full replay tracks the run length.
            "run_length_ratio": round(last["run_ms"] / first["run_ms"], 2),
            "bounded_restart_ratio": round(
                last["bounded_restart_s"] / first["bounded_restart_s"], 2
            ),
            "full_replay_restart_ratio": round(
                last["full_replay_restart_s"] / first["full_replay_restart_s"],
                2,
            ),
            "bounded_replays_suffix_only": (
                last["bounded_replayed_records"]
                < 0.5 * last["full_replay_replayed_records"]
            ),
        },
    }


def bench_net(repeats: int) -> dict:
    """Ingestion throughput across transports (ISSUE 9).

    The same tapped record set is driven through a feed + drain loop
    three ways — in-process ``SimTransport``, loopback TCP, and a
    Unix-domain socket (both via ``RecordSender`` ->
    ``SocketIngestServer``) — and records/sec is recorded for each, so
    the wire protocol's overhead over the in-process baseline is pinned
    in the trajectory.  Delivery equality across the three is asserted
    before any timing is trusted.
    """
    import tempfile
    import threading

    from repro.ingest import FeedConfig, SimTransport, TelemetryFeed
    from repro.net import RecordSender, SenderConfig, SocketIngestServer
    from repro.nfv.tap import LiveRecordTap

    tap = LiveRecordTap()
    run_interrupt_chain(duration_ns=12 * MSEC, extra_hooks=[tap])
    records = tap.records
    streams = sorted({r.stream for r in records})

    def drain(transport) -> int:
        feed = TelemetryFeed(transport, FeedConfig())
        total = 0
        idle = 0
        while not feed.exhausted():
            progressed = feed.pump()
            popped = 0
            for buffer in feed.buffers.values():
                while buffer:
                    buffer.pop()
                    popped += 1
            total += popped
            idle = 0 if (progressed or popped) else idle + 1
            assert idle < 100_000, "ingest stalled"
        return total

    def run_socket(path=None) -> float:
        if path is not None:
            server = SocketIngestServer(streams, path=path)
        else:
            server = SocketIngestServer(streams)
        with server:
            def push():
                sender = RecordSender(
                    server.address, streams, SenderConfig(jitter_seed=1)
                )
                sender.push_all(records)
                sender.finish()
                sender.close()

            start = time.perf_counter()
            thread = threading.Thread(target=push, daemon=True)
            thread.start()
            delivered = drain(server.transport())
            thread.join(timeout=120)
            elapsed = time.perf_counter() - start
        assert delivered == len(records), f"lost records: {delivered}"
        return elapsed

    timings = {}

    def best(key, fn):
        timings[key] = min(fn() for _ in range(max(1, repeats)))

    def run_sim() -> float:
        start = time.perf_counter()
        delivered = drain(SimTransport(records))
        elapsed = time.perf_counter() - start
        assert delivered == len(records)
        return elapsed

    best("sim_inprocess_s", run_sim)
    best("loopback_tcp_s", run_socket)
    with tempfile.TemporaryDirectory() as tmp:
        best("unix_socket_s", lambda: run_socket(Path(tmp) / "bench.sock"))

    rates = {
        key[: -len("_s")] + "_records_per_s": round(len(records) / value)
        for key, value in timings.items()
    }
    return {
        "n_records": len(records),
        "n_streams": len(streams),
        "timings": {k: round(v, 6) for k, v in sorted(timings.items())},
        "rates": rates,
        "tcp_overhead_vs_inprocess": round(
            timings["loopback_tcp_s"] / timings["sim_inprocess_s"], 2
        ),
    }


def bench_clock(repeats: int) -> dict:
    """Per-record cost of the online clock layer (ISSUE 10).

    The same tapped record set is ingested three ways — clock models
    disabled (the PR-9 regime), enabled over clean clocks (the production
    steady state: envelope updates and monotone repairs on every record,
    no faults), and enabled while two streams drift past tolerance (fault
    detection, quarantine accounting and confidence discounting all
    active).  Per-record nanoseconds are recorded for each, so the tax of
    the always-on time layer — and the marginal cost of an actual fault
    storm — stay pinned in the trajectory.
    """
    from repro.ingest import (
        FeedConfig,
        IncrementalTrace,
        IngestConfig,
        SimTransport,
        TelemetryFeed,
    )
    from repro.nfv.tap import LiveRecordTap
    from repro.time import (
        ClockChaos,
        ClockChaosTransport,
        ClockConfig,
        ClockSchedule,
    )
    from repro.util.timebase import USEC
    from tests.conftest import make_chain_topology

    tap = LiveRecordTap()
    run_interrupt_chain(duration_ns=12 * MSEC, extra_hooks=[tap])
    records = tap.records
    chunk_ns, margin_ns = 1 * MSEC, 5 * MSEC
    clock_cfg = ClockConfig(
        window_ns=200 * USEC,
        deadband_ns=500,
        drift_tolerance_ppm=200.0,
        step_tolerance_ns=100 * USEC,
        freeze_records=2048,
    )
    drift = ClockChaos(
        {
            "nat1": ClockSchedule(kind="drift", ppm=400.0),
            "vpn1": ClockSchedule(kind="drift", ppm=-250.0),
        }
    )

    def run(clock, chaos=None):
        transport = SimTransport(records)
        if chaos is not None:
            transport = ClockChaosTransport(transport, chaos)
        feed = TelemetryFeed(transport, FeedConfig())
        builder = IncrementalTrace.for_topology(
            make_chain_topology(),
            IngestConfig(
                chunk_ns=chunk_ns, seal_margin_ns=margin_ns, clock=clock
            ),
        )
        idle = 0
        while not builder.complete:
            progressed = feed.pump()
            applied = builder.ingest(feed)
            idle = 0 if (progressed or applied) else idle + 1
            assert idle < 100_000, "clocked ingest stalled"
        return builder

    timings = {}
    builders = {}
    for key, clock, chaos in (
        ("disabled", None, None),
        ("enabled_clean", clock_cfg, None),
        ("enabled_drift", clock_cfg, drift),
    ):
        timings[key], builders[key] = timed(
            lambda c=clock, x=chaos: run(c, x), repeats
        )
    clean = builders["enabled_clean"].clock
    drifted = builders["enabled_drift"].clock
    if clean.faults:
        raise SystemExit("FATAL: clean clocks reported faults")
    if not drifted.faults:
        raise SystemExit("FATAL: drifting clocks reported no faults")
    per_record = {
        key: round(value / len(records) * 1e9, 1)
        for key, value in timings.items()
    }
    return {
        "workload": "interrupt chain 12ms, full feed->builder ingest",
        "n_records": len(records),
        "timings": {f"{k}_s": round(v, 6) for k, v in sorted(timings.items())},
        "per_record_ns": per_record,
        "overhead": {
            "clean_vs_disabled_ns_per_record": round(
                per_record["enabled_clean"] - per_record["disabled"], 1
            ),
            "drift_vs_clean_ns_per_record": round(
                per_record["enabled_drift"] - per_record["enabled_clean"], 1
            ),
        },
        "drift_run": {
            "faults": len(drifted.faults),
            "repairs": drifted.repairs,
            "fault_kinds": sorted({f.kind for f in drifted.faults}),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_diagnosis.json"),
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per mode (best-of is recorded)",
    )
    args = parser.parse_args()

    print("simulating 20 ms interrupt chain ...", flush=True)
    trace = DiagTrace.from_sim_result(run_interrupt_chain(duration_ns=20 * MSEC))
    victims = VictimSelector(trace).hop_latency_victims(pct=99.0, nf="vpn1")
    assert len(victims) >= 200, f"workload too small: {len(victims)} victims"
    print(f"workload: {len(victims)} victims at vpn1")

    timings = {}
    outputs = {}

    timings["serial_unmemoized_s"], diags = timed(
        lambda: MicroscopeEngine(trace, memoize=False).diagnose_all(victims),
        args.repeats,
    )
    outputs["serial_unmemoized"] = canonical_bytes(diags)

    timings["serial_memoized_cold_s"], diags = timed(
        lambda: MicroscopeEngine(trace).diagnose_all(victims), args.repeats
    )
    outputs["serial_memoized_cold"] = canonical_bytes(diags)

    warm_engine = MicroscopeEngine(trace)
    warm_engine.diagnose_all(victims)
    timings["serial_memoized_warm_s"], diags = timed(
        lambda: warm_engine.diagnose_all(victims), args.repeats
    )
    outputs["serial_memoized_warm"] = canonical_bytes(diags)
    stats = warm_engine.cache_stats

    # Pooled mode: the batch is one task on one warm worker (the fleet's
    # dispatch shape), so one worker is the whole story; pool startup is
    # paid once, outside the timing.
    with WorkerPool(1) as pool:
        timings["pooled_s"], diags = timed(
            lambda: MicroscopeEngine(trace).diagnose_all(victims, executor=pool),
            args.repeats,
        )
    outputs["pooled"] = canonical_bytes(diags)

    reference = outputs["serial_memoized_cold"]
    identical = {name: blob == reference for name, blob in outputs.items()}
    if not all(identical.values()):
        print(f"FATAL: culprit output differs across modes: {identical}")
        return 1
    print("culprit output byte-identical across all modes")

    print("simulating 60 ms periodic-interrupt chain ...", flush=True)
    trace60 = DiagTrace.from_sim_result(run_periodic_interrupt_chain())

    print("benchmarking service checkpoint overhead ...", flush=True)
    service = bench_service(args.repeats, trace60)
    print(json.dumps(service["timings"], indent=2))
    print(json.dumps(service["overhead"], indent=2))

    print("benchmarking columnar core ...", flush=True)
    columnar = bench_columnar(args.repeats, trace)
    print(json.dumps(columnar["end_to_end"], indent=2))

    print("benchmarking fleet execution plane ...", flush=True)
    fleet = bench_fleet(args.repeats, trace60)
    print(json.dumps(fleet["pipeline_scaling"], indent=2))

    print("benchmarking endurance restart-replay cost ...", flush=True)
    endurance = bench_endurance(args.repeats)
    print(json.dumps(endurance["restart_cost_growth"], indent=2))

    print("benchmarking network ingestion plane ...", flush=True)
    net = bench_net(args.repeats)
    print(json.dumps(net["rates"], indent=2))

    print("benchmarking online clock layer ...", flush=True)
    clock = bench_clock(args.repeats)
    print(json.dumps(clock["per_record_ns"], indent=2))
    print(json.dumps(clock["overhead"], indent=2))

    fast = timings["serial_memoized_cold_s"]
    record = {
        "benchmark": "diagnose_all interrupt-chain 20ms",
        "issue": 7,
        "n_victims": len(victims),
        "n_packets": len(trace.packets),
        "timings": {k: round(v, 6) for k, v in sorted(timings.items())},
        "speedups": {
            "memoized_cold_vs_unmemoized": round(
                timings["serial_unmemoized_s"] / fast, 2
            ),
            "memoized_cold_vs_seed_reference": round(
                SEED_REFERENCE["diagnose_all_s"] / fast, 2
            ),
            "memoized_warm_vs_seed_reference": round(
                SEED_REFERENCE["diagnose_all_s"]
                / timings["serial_memoized_warm_s"],
                2,
            ),
        },
        "seed_reference": SEED_REFERENCE,
        "cache_stats": {
            "local_hits": stats.local_hits,
            "local_misses": stats.local_misses,
            "decomp_hits": stats.decomp_hits,
            "decomp_misses": stats.decomp_misses,
            "preset_hits": stats.preset_hits,
            "preset_misses": stats.preset_misses,
        },
        "output_identical_across_modes": True,
        "service": service,
        "columnar": columnar,
        "fleet": fleet,
        "endurance": endurance,
        "net": net,
        "clock": clock,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["timings"], indent=2))
    print(json.dumps(record["speedups"], indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
