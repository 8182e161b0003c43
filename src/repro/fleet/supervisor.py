"""Fleet supervisor: N concurrent diagnosis pipelines, one service plane.

:class:`FleetSupervisor` runs one :class:`~repro.service.DiagnosisService`
per :class:`PipelineSpec` (one per NF chain / site / tenant), each in its
own thread, all sharing

* one persistent :class:`~repro.fleet.pool.WorkerPool` — each chunk is
  one task on one warm worker process, so pipelines overlap: while
  pipeline A's chunk computes in a pool process, pipeline B's thread
  journals/fsyncs its previous chunk and seals ingest for the next one.
  Trace segments are registered with the pool once and reused across
  chunks (mutation-keyed), not re-shared per call.  The pool's FIFO
  checkout serves waiting pipelines in arrival order, so a heavy
  pipeline cannot starve the rest while the pool is saturated;
* one :class:`InflightCounter` — telemetry only: chunks admitted, peak
  chunks in flight, and chunks whose pool checkout had to wait.  Under
  *oversubscription* (more pipelines than pool workers) an optional
  fleet-wide victim budget caps each chunk through the service's
  existing deterministic shed path — load shedding stays journalled and
  replayable, never timing-dependent.

Crash-only, one level up: each pipeline keeps its own journal +
checkpoint directory and its own kill-point injector; the supervisor
adds :data:`~repro.service.crashsim.FLEET_KILL_POINTS` around launch,
drain and rollup.  When any pipeline crashes (or a fleet kill-point
fires), the supervisor sets the shared stop event — sibling pipelines
raise :class:`~repro.errors.ServiceStopped` at their *next chunk
boundary*, i.e. between commits — joins everything, and re-raises the
original crash.  A restarted fleet resumes every pipeline from its
checkpoints, so per-pipeline journals converge to the same bytes as a
never-crashed run (pinned by ``benchmarks/test_fleet_soak.py``).

The final :class:`FleetReport` carries per-pipeline reports plus the
cross-pipeline :class:`~repro.fleet.rollup.FleetRollup` ("NAT slow path,
14 sites") merged deterministically in sorted pipeline order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.records import DiagTrace
from repro.errors import FleetError, ServiceStopped
from repro.fleet.pool import WorkerPool
from repro.fleet.rollup import FleetRollup
from repro.service.runner import DiagnosisService, ServiceConfig, ServiceReport


@dataclass
class PipelineSpec:
    """One pipeline: a name, a telemetry source, optional overrides.

    ``source`` is a :class:`DiagTrace`, a TelemetrySource, or a zero-arg
    factory returning either — a factory is called once per supervisor
    run, which is what live sources need across crash-restarts (each run
    re-ingests its transport from the beginning).  ``config`` overrides
    the fleet-derived :class:`ServiceConfig`; ``faults``/``flaky`` are
    this pipeline's own injectors (crash harness / transient failures).
    """

    name: str
    source: object
    config: Optional[ServiceConfig] = None
    faults: object = None
    flaky: object = None


@dataclass
class FleetConfig:
    """Fleet-wide operating parameters.

    Per-pipeline :class:`ServiceConfig` values not overridden by a spec
    are derived from here, with ``state_dir`` fixed to
    ``<state_dir>/pipelines/<name>`` so every pipeline journals and
    checkpoints in its own directory under one fleet root.
    """

    state_dir: Union[str, Path]
    #: Warm worker processes shared by every pipeline (0 = no pool:
    #: pipelines diagnose inline in their threads, still concurrent for
    #: the journal/fsync and ingest portions).
    pool_workers: int = 2
    #: Per-task watchdog for a chunk's pooled diagnosis.
    task_timeout_s: Optional[float] = None
    #: Victim budget per chunk applied to every pipeline when the fleet
    #: is *oversubscribed* (more pipelines than pool workers).  A pure
    #: function of this config — never of runtime timing — so the shed
    #: decisions it causes are deterministic and replay identically
    #: after a crash.
    overload_victim_budget: Optional[int] = None
    #: ServiceConfig passthroughs.
    chunk_ns: int = 50_000_000
    margin_ns: int = 100_000_000
    victim_pct: float = 99.0
    victim_threshold_ns: Optional[int] = None
    max_victims_per_chunk: Optional[int] = None
    tally_compact_every: int = 8
    durable: bool = True
    #: Endurance passthroughs (see :class:`ServiceConfig`): bounded-memory
    #: tally budget, journal rotation/compaction thresholds, ingest
    #: snapshot cadence and retention, poison-chunk dead-lettering.
    tally_budget: Optional[int] = None
    journal_rotate_bytes: int = 0
    journal_compact_bytes: int = 0
    ingest_checkpoint_every: int = 0
    replay_retain_chunks: Optional[int] = None
    dead_letter_chunks: bool = False

    def __post_init__(self) -> None:
        if self.pool_workers < 0:
            raise FleetError(f"pool_workers must be >= 0: {self.pool_workers}")


class InflightCounter:
    """Fleet-wide chunk telemetry; never blocks a chunk.

    Each pipeline thread runs its chunks one at a time inside
    :meth:`chunk`, so the counter only observes: ``admitted`` chunks,
    ``peak_inflight`` chunks at once, and ``waited`` — chunks whose pool
    checkout found no free worker (the pool's FIFO checkout is the one
    place a chunk can wait; 0 without a pool).
    """

    def __init__(self, pool: Optional[WorkerPool] = None) -> None:
        self._pool = pool
        # An injected pool may have served earlier runs: count this
        # run's waits only.
        self._waits_before = self._pool_waits()
        self._lock = threading.Lock()
        self._inflight = 0
        self.admitted = 0
        self.peak_inflight = 0

    def _pool_waits(self) -> int:
        return self._pool.stats.checkout_waits if self._pool is not None else 0

    @contextmanager
    def chunk(self) -> Iterator[None]:
        with self._lock:
            self.admitted += 1
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "waited": self._pool_waits() - self._waits_before,
            "peak_inflight": self.peak_inflight,
        }


@dataclass
class FleetReport:
    """Final output of :meth:`FleetSupervisor.run`."""

    #: Per-pipeline service reports, keyed by pipeline name.
    pipelines: Dict[str, ServiceReport]
    #: Cross-pipeline causal-pattern rollup (sorted-name merge order).
    rollup: FleetRollup
    pool_stats: dict
    scheduler_stats: dict


class FleetSupervisor:
    """Run every pipeline to completion over one shared execution plane."""

    def __init__(
        self,
        pipelines: Sequence[PipelineSpec],
        config: FleetConfig,
        faults=None,
        executor: Optional[WorkerPool] = None,
    ) -> None:
        if not pipelines:
            raise FleetError("a fleet needs at least one pipeline")
        names = [spec.name for spec in pipelines]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate pipeline names: {names}")
        self.pipelines = list(pipelines)
        self.config = config
        #: Fleet-level crash injector (FLEET_KILL_POINTS).
        self.faults = faults
        #: Injected shared pool (kept warm across supervisor runs, e.g.
        #: by the benchmarks); when None the supervisor owns one per run.
        self._executor = executor
        state_dirs = [str(self._pipeline_config(s).state_dir) for s in pipelines]
        if len(set(state_dirs)) != len(state_dirs):
            raise FleetError(f"pipelines share a state_dir: {state_dirs}")

    # -- per-pipeline wiring ----------------------------------------------------

    def _pipeline_config(self, spec: PipelineSpec) -> ServiceConfig:
        """The spec's config, or one derived from the fleet defaults —
        either way with the overload budget applied."""
        cfg = self.config
        if spec.config is not None:
            service_cfg = spec.config
        else:
            service_cfg = ServiceConfig(
                state_dir=Path(cfg.state_dir) / "pipelines" / spec.name,
                chunk_ns=cfg.chunk_ns,
                margin_ns=cfg.margin_ns,
                victim_pct=cfg.victim_pct,
                victim_threshold_ns=cfg.victim_threshold_ns,
                tally_compact_every=cfg.tally_compact_every,
                task_timeout_s=cfg.task_timeout_s,
                max_victims_per_chunk=cfg.max_victims_per_chunk,
                durable=cfg.durable,
                tally_budget=cfg.tally_budget,
                journal_rotate_bytes=cfg.journal_rotate_bytes,
                journal_compact_bytes=cfg.journal_compact_bytes,
                ingest_checkpoint_every=cfg.ingest_checkpoint_every,
                replay_retain_chunks=cfg.replay_retain_chunks,
                dead_letter_chunks=cfg.dead_letter_chunks,
            )
        budget = self._overload_budget()
        if budget is not None and (
            service_cfg.max_victims_per_chunk is None
            or service_cfg.max_victims_per_chunk > budget
        ):
            return replace(service_cfg, max_victims_per_chunk=budget)
        return service_cfg

    def _overload_budget(self) -> Optional[int]:
        """Victim budget under oversubscription — config-derived only, so
        the resulting sheds are deterministic and crash-replayable."""
        cfg = self.config
        if cfg.overload_victim_budget is None:
            return None
        if cfg.pool_workers and len(self.pipelines) <= cfg.pool_workers:
            return None
        return cfg.overload_victim_budget

    @staticmethod
    def _resolve_source(spec: PipelineSpec):
        source = spec.source
        if callable(source) and not isinstance(source, DiagTrace):
            return source()
        return source

    # -- run --------------------------------------------------------------------

    def _run_pipeline(
        self,
        index: int,
        service: DiagnosisService,
        outcomes: Dict[str, ServiceReport],
        stopped: Dict[str, ServiceStopped],
        errors: List[Tuple[int, str, BaseException]],
        stop: threading.Event,
        lock: threading.Lock,
    ) -> None:
        name = service.pipeline
        try:
            report = service.run()
        except ServiceStopped as exc:
            # Cooperative wind-down after a sibling's crash: not a failure
            # of *this* pipeline — its journal ends at a clean boundary.
            with lock:
                stopped[name] = exc
        except BaseException as exc:
            with lock:
                errors.append((index, name, exc))
            stop.set()
        else:
            with lock:
                outcomes[name] = report

    def run(self) -> FleetReport:
        """Run every pipeline; resume each from its checkpoints first.

        Raises the first (by launch order) pipeline crash after winding
        the rest down at their chunk boundaries; fleet kill-points can
        additionally crash the supervisor itself around launch, drain and
        rollup.  Whatever unwinds, the owned pool is closed — no worker
        process or ``/dev/shm`` segment outlives this call.
        """
        faults = self.faults
        cfg = self.config
        if faults is not None:
            faults.kill("fleet-start", 0)
        pool = self._executor
        owns_pool = False
        if pool is None and cfg.pool_workers > 0:
            pool = WorkerPool(cfg.pool_workers)
            owns_pool = True
        inflight = InflightCounter(pool)
        stop = threading.Event()
        lock = threading.Lock()
        outcomes: Dict[str, ServiceReport] = {}
        stopped: Dict[str, ServiceStopped] = {}
        errors: List[Tuple[int, str, BaseException]] = []
        threads: List[threading.Thread] = []
        try:
            for index, spec in enumerate(self.pipelines):
                if faults is not None:
                    faults.kill("pipeline-launch", index)
                service = DiagnosisService(
                    self._resolve_source(spec),
                    self._pipeline_config(spec),
                    faults=spec.faults,
                    flaky=spec.flaky,
                    executor=pool,
                    stop_check=stop.is_set,
                    pipeline=spec.name,
                    inflight=inflight,
                )
                thread = threading.Thread(
                    target=self._run_pipeline,
                    args=(index, service, outcomes, stopped, errors, stop, lock),
                    name=f"pipeline-{spec.name}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            if faults is not None:
                faults.kill("fleet-drain", 0)
            if errors:
                errors.sort(key=lambda item: item[0])
                raise errors[0][2]
            if stopped:  # pragma: no cover - stop without a recorded error
                raise FleetError(
                    f"pipelines stopped without a crash: {sorted(stopped)}"
                )
            rollup = FleetRollup.from_tallies(
                {name: report.tally for name, report in outcomes.items()}
            )
            report = FleetReport(
                pipelines=outcomes,
                rollup=rollup,
                pool_stats=(
                    pool.stats.to_payload() if pool is not None else {}
                ),
                scheduler_stats=inflight.stats(),
            )
            if faults is not None:
                faults.kill("fleet-rollup", 0)
            return report
        finally:
            # A supervisor crash (fleet kill-point) lands here with
            # pipelines still running: order them stopped, wait for their
            # chunk boundaries, then tear down the pool.  BaseException-
            # safe: this is the path that keeps /dev/shm clean and worker
            # processes reaped no matter where the unwind started.
            stop.set()
            for thread in threads:
                thread.join()
            if owns_pool and pool is not None:
                pool.close()
