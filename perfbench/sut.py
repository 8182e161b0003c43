"""The system under test, in its own process.

The parent (:mod:`perfbench.harness`) is the load generator and judge;
this child holds only ``repro`` and the generated inputs, so its peak RSS
and CPU are the program's, not the simulator's.  It speaks JSON lines on
stdin/stdout: one ``ready`` event after importing and loading (the
parent times that as part of ``setup_s``), then one or more events per
command.

Three jobs, one per pipeline shape:

``wire``
    ``SocketIngestServer`` -> ``TelemetryFeed`` -> clocked
    ``IncrementalTrace`` -> durable live ``DiagnosisService``.
``postmortem``
    ``trace_from_directory`` -> victims -> ``diagnose_all`` ->
    ``causal_relations`` -> ``PatternAggregator``.
``fleet``
    ``FleetSupervisor`` over a ``WorkerPool``, plus the standalone serial
    ``DiagnosisService`` it is verified against.

The only hook in an untraced run is one clock read and one line on
stdout per chunk, on the wrapped ``journal.append`` of the wire job.  A
traced run additionally records spans (:mod:`perfbench.spans`): wrappers
on the public methods of the instances built here, and ``with`` blocks
around this file's own calls into a layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from repro.aggregation.patterns import PatternAggregator
from repro.collector import TraceReconstructor, load_collected
from repro.core import DiagTrace, MicroscopeEngine, VictimSelector, causal_relations
from repro.fleet import FleetConfig, FleetSupervisor, PipelineSpec, WorkerPool
from repro.net import ServerConfig, SocketIngestServer
from repro.service import DiagnosisService, ServiceConfig, runner, trace_from_directory

from perfbench import inputs, verify
from perfbench.spans import SpanRecorder, unattributed_share


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``VmHWM`` is per address space, so it starts fresh at exec; the
    ``ru_maxrss`` of a spawned process can inherit its parent's peak.
    """
    own_kb = 0.0
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kb = float(line.split()[1])
                    break
    except OSError:
        pass
    if not own_kb:
        own_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    children_kb = float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return (own_kb + children_kb) / 1024.0


def _span(recorder: Optional[SpanRecorder], name: str):
    """``with _span(recorder, "layer.step"):`` — free when untraced."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


_MEMO_LAYERS = ("local", "decomp", "preset")


def _memo_counts(cache) -> Counter:
    """Hit/miss counters of an engine's ``cache_stats`` (summable)."""
    return Counter(
        {
            f"{layer}_{kind}": getattr(cache, f"{layer}_{kind}")
            for layer in _MEMO_LAYERS
            for kind in ("hits", "misses")
        }
    )


def _hit_ratios(counts: Counter) -> dict:
    return {
        f"core.{layer}_hit_ratio": _ratio(
            counts[f"{layer}_hits"], counts[f"{layer}_misses"]
        )
        for layer in _MEMO_LAYERS
    }


class _Layers:
    """Self seconds and call counts per span name of one traced run."""

    def __init__(self, recorder: SpanRecorder, trace_path: Optional[str]) -> None:
        self.own = recorder.self_time_by_name()
        self.calls = recorder.counts()
        self.run = {
            "run.wall_s": recorder.total_time_by_name().get("run", 0.0),
            "run.unattributed_share": unattributed_share(recorder, "run"),
        }
        if trace_path:
            recorder.write(
                Path(trace_path), {"self_s": self.own, "calls": self.calls}
            )

    def s(self, *names: str) -> float:
        return sum(self.own.get(name, 0.0) for name in names)


# -- the per-chunk commit protocol (wire and serial fleet jobs) -----------------------


class _ServiceSpans:
    """Span wrappers on one ``DiagnosisService`` and what they count."""

    def __init__(self, recorder: SpanRecorder, service: DiagnosisService) -> None:
        self.recorder = recorder
        #: Memo counters summed over every engine the service opened (live
        #: mode opens a fresh one per chunk).
        self.cache: Counter = Counter()
        self.victims = 0
        self.columns_builds = 0
        self.columns_build_ns = 0
        self._columns = None
        stream, journal = service.stream, service.journal
        recorder.wrap(service.trace, "columns", "core.columns", after=self._columns_done)
        recorder.wrap(stream, "refresh_victims", "core.victim_select")
        recorder.wrap(stream, "victims_for_chunk", "core.victim_select")
        recorder.wrap(stream, "open", "core.engine_open")
        recorder.wrap(stream, "diagnose_chunk", "core.diagnose", after=self._diagnosed)
        # Journal encoding happens between two method calls, in module-level
        # functions: wrap them where the runner looks them up (undone by
        # ``unwrap_all`` once the traced run ends).
        recorder.wrap(runner, "chunk_record", "service.journal_encode")
        recorder.wrap(runner, "tally_record", "service.journal_encode")
        recorder.wrap(journal, "append", "service.journal_append")
        recorder.wrap(journal, "maybe_rotate", "service.journal_maintain")
        recorder.wrap(journal, "compact", "service.journal_maintain")
        recorder.wrap(journal, "diagnoses", "service.journal_read")
        recorder.wrap(
            service.checkpointer, "save", "service.checkpoint", after=self._committed
        )
        recorder.wrap(service.tally, "update", "aggregation.tally_update")
        self._stream = stream

    def _columns_done(self, span, result, args, kwargs) -> None:
        # A new object came back: this call was a rebuild, not a cache hit.
        if result is not None and result is not self._columns:
            self._columns = result
            self.columns_builds += 1
            self.columns_build_ns += self.recorder.ends[span] - self.recorder.starts[span]

    def _diagnosed(self, span, result, args, kwargs) -> None:
        self.cache.update(_memo_counts(self._stream.engine.cache_stats))
        self.victims += len(result.diagnoses)

    def _committed(self, span, result, args, kwargs) -> None:
        # Spans from here on work towards the next chunk.
        self.recorder.request = kwargs.get("chunk", self.recorder.request) + 1

    def metrics(self, layers: _Layers, stats) -> dict:
        build_s = self.columns_build_ns / 1e9
        return {
            "core.columns_build_s": build_s,
            "core.columns_builds": self.columns_builds,
            "core.victim_select_s": layers.s("core.victim_select"),
            # Cached ``columns()`` lookups are engine-open bookkeeping.
            "core.engine_open_s": layers.s("core.engine_open")
            + max(0.0, layers.s("core.columns") - build_s),
            "core.diagnose_s": layers.s("core.diagnose"),
            "core.victims": self.victims,
            **_hit_ratios(self.cache),
            "aggregation.tally_update_s": layers.s("aggregation.tally_update"),
            "service.journal_encode_s": layers.s("service.journal_encode"),
            "service.journal_append_s": layers.s("service.journal_append"),
            "service.journal_read_s": layers.s("service.journal_read"),
            "service.journal_bytes": stats.journal_bytes,
            "service.checkpoint_s": layers.s("service.checkpoint"),
            "service.checkpoint_bytes": stats.checkpoint_bytes,
            "service.journal_maintain_s": layers.s("service.journal_maintain"),
            "service.chunks": stats.chunks_done,
            "service.retries": stats.retries,
            **layers.run,
        }


def _run_service(service: DiagnosisService, recorder: Optional[SpanRecorder]):
    """``service.run()``, under one root span when traced."""
    try:
        with _span(recorder, "run"):
            return service.run()
    finally:
        if recorder is not None:
            recorder.unwrap_all()


# -- wire ------------------------------------------------------------------------


class WireJob:
    """Records in on a socket, journalled verdicts out."""

    def __init__(self, job: dict) -> None:
        self.streams = job["streams"]
        self.service_kwargs = job["service"]
        self.trace_path = job.get("trace_path")

    def op_serve(self, cmd: dict) -> None:
        state_dir = Path(cmd["state_dir"])
        server = SocketIngestServer(
            self.streams, config=ServerConfig(capacity=inputs.SERVER_CAPACITY)
        )
        try:
            transport = server.transport()
            service = inputs.live_service(transport, self.service_kwargs, state_dir)
            source = service.source
            feed, builder = source.feed, source.builder
            # The one untraced hook: when did chunk k's record hit the
            # journal?  (Tally snapshots ride the same index; first wins.)
            # The verdict is also announced at once — it is the reply the
            # closed-loop generator waits for.
            verdict_ns: Dict[int, int] = {}
            append = service.journal.append

            def stamped_append(chunk_index, body, faults=None):
                offset = append(chunk_index, body, faults=faults)
                if chunk_index not in verdict_ns:
                    verdict_ns[chunk_index] = time.perf_counter_ns()
                    _emit({"event": "verdict", "chunk": chunk_index})
                return offset

            service.journal.append = stamped_append

            recorder = spans = None
            if cmd.get("traced"):
                recorder = SpanRecorder()
                recorder.wrap(transport, "pull", "net.pull")
                recorder.wrap(feed, "pump", "ingest.feed_pump")
                recorder.wrap(builder, "ingest", "ingest.apply")
                recorder.wrap(source, "pump", "ingest.source_pump")
                recorder.wrap(source, "prune_before", "ingest.prune")
                recorder.wrap(source, "snapshot_state", "ingest.snapshot")
                if service.ingest_checkpointer is not None:
                    recorder.wrap(service.ingest_checkpointer, "save", "ingest.snapshot")
                spans = _ServiceSpans(recorder, service)

            _emit({"event": "listening", "address": list(server.address)})
            report = _run_service(service, recorder)
            server_stats = server.stats.to_payload()
        finally:
            server.close()

        stats = report.stats
        (state_dir / "journal.bin").write_bytes(service.journal.read_bytes())
        done = {
            "event": "done",
            "verdict_ns": {str(k): v for k, v in verdict_ns.items()},
            "n_chunks": report.n_chunks,
            "stats": stats.to_payload(),
            "server": server_stats,
            "peak_rss_mb": peak_rss_mb(),
        }
        if recorder is not None:
            layers = _Layers(recorder, self.trace_path)
            done["layers"] = {
                "net.pull_wait_s": layers.s("net.pull"),
                "net.pull_calls": layers.calls.get("net.pull", 0),
                "net.records_delivered": feed.stats.records,
                "net.credit_overruns": server_stats["credit_overruns"],
                "ingest.feed_pump_self_s": layers.s("ingest.feed_pump", "ingest.source_pump"),
                "ingest.apply_self_s": layers.s("ingest.apply"),
                "ingest.records_applied": stats.ingest_records_applied,
                "ingest.pumps": feed.stats.pumps,
                "ingest.peak_buffered": feed.stats.peak_buffered,
                "ingest.sheds": feed.stats.sheds,
                "ingest.prune_s": layers.s("ingest.prune"),
                "ingest.evictions": stats.ingest_evictions,
                "ingest.snapshot_s": layers.s("ingest.snapshot"),
                "ingest.snapshot_bytes": stats.ingest_snapshot_bytes,
                "time.updates": stats.ingest_clock_updates,
                "time.repairs": stats.ingest_clock_repairs,
                "time.faults": stats.ingest_clock_faults,
                "time.uncertainty_ns": stats.ingest_clock_uncertainty_ns,
                **spans.metrics(layers, stats),
            }
        _emit(done)


# -- post-mortem -----------------------------------------------------------------


class PostmortemJob:
    """The paper's offline pipeline over persisted collector streams."""

    def __init__(self, job: dict) -> None:
        self.directory = Path(job["directory"])
        with open(job["facts"], "rb") as handle:
            self.facts: inputs.TopologyFacts = pickle.load(handle)
        self.victim_pct = job["victim_pct"]
        self.pattern_threshold = job["pattern_threshold"]
        self.trace_path = job.get("trace_path")
        self.last = None  # (trace, diagnoses) of the latest pass

    def op_run(self, cmd: dict) -> None:
        facts = self.facts
        topology = dict(
            peak_rates=facts.peak_rates,
            upstreams=facts.upstreams,
            sources=facts.sources,
            nf_types=facts.nf_types,
        )
        self.last = None  # free the previous pass before building the next
        recorder = SpanRecorder() if cmd.get("traced") else None
        start_ns = time.perf_counter_ns()
        with _span(recorder, "run"):
            if recorder is None:
                trace = trace_from_directory(self.directory, facts.edges, **topology)
            else:
                # ``trace_from_directory`` is load + reconstruct + adopt in
                # one call; the traced pass makes the same three public
                # calls itself so each gets a span.
                with recorder.span("collector.load"):
                    data = load_collected(self.directory)
                with recorder.span("collector.reconstruct"):
                    packets = TraceReconstructor(data, facts.edges).reconstruct()
                with recorder.span("collector.adopt"):
                    trace = DiagTrace.from_reconstruction(packets, **topology)
            with _span(recorder, "core.columns"):
                trace.columns()
            with _span(recorder, "core.victim_select"):
                selector = VictimSelector(trace)
                victims = (
                    selector.hop_latency_victims(pct=self.victim_pct)
                    + selector.drop_victims()
                )
            engine = MicroscopeEngine(trace)
            with _span(recorder, "core.diagnose"):
                diagnoses = engine.diagnose_all(victims)
            with _span(recorder, "core.relations"):
                relations = causal_relations(diagnoses, trace)
            with _span(recorder, "aggregation.patterns"):
                result = PatternAggregator(
                    nf_types=trace.nf_types, threshold_fraction=self.pattern_threshold
                ).aggregate(relations)
        end_ns = time.perf_counter_ns()

        self.last = (trace, diagnoses)
        done = {
            "event": "done",
            "wall_s": (end_ns - start_ns) / 1e9,
            "packets": len(trace.packets),
            "packet_hops": sum(len(p.hops) for p in trace.packets.values()),
            "victims": len(victims),
            "diagnosed": len(diagnoses),
            "relations": len(relations),
            "patterns": len(result.patterns),
            "peak_rss_mb": peak_rss_mb(),
        }
        if recorder is not None:
            layers = _Layers(recorder, self.trace_path)
            done["layers"] = {
                "collector.load_s": layers.s("collector.load"),
                "collector.reconstruct_s": layers.s(
                    "collector.reconstruct", "collector.adopt"
                ),
                "core.columns_build_s": layers.s("core.columns"),
                "core.columns_builds": 1,
                "core.victim_select_s": layers.s("core.victim_select"),
                "core.diagnose_s": layers.s("core.diagnose"),
                "core.victims": len(diagnoses),
                "core.relations_s": layers.s("core.relations"),
                "core.relations": len(relations),
                **_hit_ratios(_memo_counts(engine.cache_stats)),
                "aggregation.patterns_s": layers.s("aggregation.patterns"),
                "aggregation.patterns": len(result.patterns),
                **layers.run,
            }
        _emit(done)

    def op_judge(self, cmd: dict) -> None:
        """Untimed: dump what the parent verifies, score accuracy here
        (the diagnoses and the trace they index live in this process)."""
        trace, diagnoses = self.last
        packets = TraceReconstructor(
            load_collected(self.directory), self.facts.edges
        ).reconstruct()
        with open(cmd["journeys"], "wb") as handle:
            pickle.dump(inputs.rebuilt_journeys(packets), handle)
        with open(cmd["problems"], "rb") as handle:
            problems = pickle.load(handle)
        score = verify.score_accuracy(trace, diagnoses, problems, significant=True)
        _emit(
            {
                "event": "judged",
                "accuracy": score.accuracy,
                "scored": score.scored,
                "digest": verify.culprit_digest(diagnoses),
            }
        )


# -- fleet -----------------------------------------------------------------------


class FleetJob:
    """Two pipelines replaying one trace over a shared worker pool."""

    def __init__(self, job: dict) -> None:
        with open(job["trace"], "rb") as handle:
            self.trace: DiagTrace = pickle.load(handle)
        self.trace.columns()  # warm: replay starts from a loaded trace
        self.fleet_kwargs = job["fleet"]
        self.pipelines = job["pipelines"]
        self.pool_workers = job["pool_workers"]
        self.trace_path = job.get("trace_path")
        self.serial = None  # report of the latest serial pass

    def op_fleet(self, cmd: dict) -> None:
        root = Path(cmd["state_dir"])
        specs = [
            PipelineSpec(name=f"site-{i}", source=self.trace)
            for i in range(self.pipelines)
        ]
        config = FleetConfig(
            state_dir=root, pool_workers=self.pool_workers, **self.fleet_kwargs
        )
        with WorkerPool(self.pool_workers) as pool:
            start_ns, start_wall_ns = time.perf_counter_ns(), time.time_ns()
            report = FleetSupervisor(specs, config, executor=pool).run()
            end_ns = time.perf_counter_ns()
            pool_stats = pool.stats.to_payload()
        pipelines = {}
        for spec in specs:
            journal = root / "pipelines" / spec.name / "journal.jsonl"
            stats = report.pipelines[spec.name].stats
            pipelines[spec.name] = {
                "journal": str(journal),
                # Its last append: when this pipeline's verdicts were all durable.
                "finished_ms": (os.stat(journal).st_mtime_ns - start_wall_ns) / 1e6,
                "victims_diagnosed": stats.victims_diagnosed,
                "worker_failures": stats.worker_failures,
                "worker_timeouts": stats.worker_timeouts,
            }
        _emit(
            {
                "event": "done",
                "wall_s": (end_ns - start_ns) / 1e9,
                "pipelines": pipelines,
                "pool": pool_stats,
                "scheduler": report.scheduler_stats,
                "peak_rss_mb": peak_rss_mb(),
            }
        )

    def op_serial(self, cmd: dict) -> None:
        """One standalone serial service over the same trace: the
        reference journal, the single-threaded baseline, and (traced) the
        instance whose commit protocol gets spans."""
        state_dir = Path(cmd["state_dir"])
        kwargs = {
            key: value
            for key, value in self.fleet_kwargs.items()
            if key in ServiceConfig.__dataclass_fields__
        }
        service = DiagnosisService(
            self.trace, ServiceConfig(state_dir=state_dir, **kwargs)
        )
        recorder = spans = None
        if cmd.get("traced"):
            recorder = SpanRecorder()
            spans = _ServiceSpans(recorder, service)
        start_ns = time.perf_counter_ns()
        report = _run_service(service, recorder)
        end_ns = time.perf_counter_ns()
        self.serial = report
        done = {
            "event": "done",
            "wall_s": (end_ns - start_ns) / 1e9,
            "journal": str(state_dir / "journal.jsonl"),
            "victims_diagnosed": report.stats.victims_diagnosed,
            "n_chunks": report.n_chunks,
            "peak_rss_mb": peak_rss_mb(),
        }
        if recorder is not None:
            done["layers"] = spans.metrics(
                _Layers(recorder, self.trace_path), report.stats
            )
        _emit(done)

    def op_judge(self, cmd: dict) -> None:
        with open(cmd["problems"], "rb") as handle:
            problems = pickle.load(handle)
        score = verify.score_accuracy(self.trace, self.serial.diagnoses, problems)
        self.serial = None  # the fleet passes should not carry it
        _emit({"event": "judged", "accuracy": score.accuracy, "scored": score.scored})


JOBS = {"wire": WireJob, "postmortem": PostmortemJob, "fleet": FleetJob}


def main(argv: List[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    handler = JOBS[job["kind"]](job)
    _emit({"event": "ready"})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "exit":
            break
        getattr(handler, "op_" + cmd["op"])(cmd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
