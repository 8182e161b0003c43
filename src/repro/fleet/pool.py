"""The one way out of the process: a pool of warm diagnosis workers.

:class:`WorkerPool` is the only code in the repository that starts
processes for diagnosis.  :meth:`WorkerPool.diagnose` ships a victim
batch to one worker as one task and returns results in victim order,
byte-identical to the serial engine; ``MicroscopeEngine.diagnose_all``
hands itself to it when a caller passes the pool as ``executor=`` (the
fleet plane: one pool shared by every pipeline for the life of the run).
What a long-lived pool amortizes:

* **warm workers** — processes are forked once at pool construction and
  serve tasks over duplex pipes until :meth:`close`.  A worker keeps a
  small cache of ``(trace segment, engine)`` pairs keyed by segment name,
  so successive chunks of the same pipeline reuse an already-attached
  trace *and* an already-warmed engine (memo layers carried across
  chunks of one call never change results — memoization is
  result-invariant);
* **registered traces** — :meth:`register_trace` shares a trace's columns
  into ``/dev/shm`` once and reuses the segment across calls, keyed on
  the trace's mutation counter (:class:`~repro.core.columnar.SharedTraceCache`).
  A mutated trace (live ingest grew it) retires the old segment and
  registers a fresh generation; workers notice the new name and attach
  fresh.  Every live segment is unlinked by :meth:`close`, which owners
  run in ``try/finally`` (or ``with``) so the no-``/dev/shm``-leak
  guarantee survives :class:`BaseException` unwinds (``SimulatedCrash``
  included);
* **checkout fairness** — free workers live in a FIFO queue; concurrent
  pipeline threads block on checkout and are served in arrival order, so
  no pipeline can starve another while the pool is saturated.  A caller
  checks out one worker per call and holds none while it waits, so
  pipelines sharing a small pool cannot hold-and-wait each other.
  ``PoolStats.checkout_waits`` counts checkouts that found no free
  worker — the only place a chunk waits on the pool.

Who shares, who unlinks: the pool creates and unlinks trace segments
(``register_trace`` … ``close``); :meth:`diagnose` creates the small
per-call victim block and unlinks it in its own ``finally``; workers only
ever attach by name and close their mapping.

Failure accounting: a worker that dies or misses its deadline is killed
and a replacement spawned (``respawns`` in :class:`PoolStats`); the lost
task is diagnosed serially in the caller, counted in the engine's
``cache_stats.worker_failures``/``worker_timeouts``.  A call whose victim
block cannot be shared at all (no shared memory on the platform,
``/dev/shm`` exhausted) submits nothing and takes that same serial path;
``last_dispatch["mode"]`` says so.
Replacements use the ``spawn`` start method: a mid-run respawn happens
from an already-multithreaded parent (pipeline threads, possibly holding
locks), where ``fork`` could deadlock the child — only the initial
workers, forked before any pipeline thread exists, inherit the parent's
state.
Workers resolve ``_parallel_worker_init``/``_parallel_worker_diagnose``
through :mod:`repro.core.diagnosis` module globals at call time, so a
fork-inherited monkeypatch of either is how the watchdog tests wedge a
worker.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

import repro.core.diagnosis as diagnosis_mod
from repro.core import columnar
from repro.errors import FleetError

#: Trace registrations the pool retains (LRU); each holds one /dev/shm
#: segment plus a strong reference to its trace.
DEFAULT_MAX_TRACES = 16

#: Attached (segment, engine) pairs one worker caches before evicting the
#: least recently used — bounds worker-side memory across many pipelines.
WORKER_CACHE_SLOTS = 4


@dataclass
class PoolStats:
    """Dispatch telemetry for one pool lifetime (pure ints)."""

    workers: int = 0
    tasks: int = 0
    failures: int = 0
    timeouts: int = 0
    respawns: int = 0
    #: Trace registry: segments built vs. calls served by a live segment.
    trace_shares: int = 0
    trace_reuses: int = 0
    #: Checkouts that found no free worker and blocked for one.
    checkout_waits: int = 0

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Worker:
    """One warm worker process and the parent end of its pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class PendingTask:
    """Handle for one submitted task; :meth:`result` returns the worker."""

    def __init__(
        self,
        pool: "WorkerPool",
        worker: _Worker,
        segment: Optional[str] = None,
    ) -> None:
        self._pool = pool
        self._worker = worker
        self._segment = segment
        self._done = False

    def result(self, timeout_s: Optional[float] = None):
        """``(status, payload)``: ``("ok", wires)``, ``("error", msg)`` or
        ``("timeout", None)``.

        ``timeout_s`` is this task's watchdog, counted from now.  A missed
        deadline kills this worker (a wedged process never honours a soft
        shutdown) and spawns a replacement.
        """
        if self._done:
            raise FleetError("pool task result consumed twice")
        self._done = True
        worker, pool = self._worker, self._pool
        try:
            try:
                if timeout_s is not None:
                    if not worker.conn.poll(timeout_s):
                        pool._retire(worker)
                        pool._bump(timeouts=1, failures=1)
                        return ("timeout", None)
                status, payload = worker.conn.recv()
            except (EOFError, OSError):
                # The worker died before reporting (crash, os._exit, kill).
                pool._retire(worker)
                pool._bump(failures=1)
                return ("error", "worker died before reporting")
            pool._release(worker)
            if status != "ok":
                pool._bump(failures=1)
            return (status, payload)
        finally:
            # This task no longer references its trace segment — an
            # evicted generation waiting on it may now be unlinked.
            pool._decref_segment(self._segment)


class WorkerPool:
    """Fleet-wide persistent process pool (see module docstring)."""

    def __init__(
        self, workers: int = 2, max_traces: int = DEFAULT_MAX_TRACES
    ) -> None:
        if workers < 1:
            raise FleetError(f"pool needs at least one worker, got {workers}")
        self.size = workers
        self.max_traces = max_traces
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        # Mid-run respawns happen from a multithreaded parent (pipeline
        # threads may hold the pool lock or be mid-import), where fork is
        # unsafe — the forked child can deadlock on an inherited lock.
        # Initial workers are still forked: __init__ runs before any
        # pipeline thread exists, and fork inheritance is what lets the
        # watchdog tests wedge a worker via monkeypatch.
        self._respawn_context = (
            multiprocessing.get_context("spawn")
            if "spawn" in methods
            else self._context
        )
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._free: "queue.Queue[_Worker]" = queue.Queue()
        self._workers: list = []
        #: id(trace) -> (trace, SharedTraceCache); the strong trace
        #: reference both keeps the cache's mutation key meaningful and
        #: prevents id() reuse from aliasing two traces.
        self._traces: "OrderedDict[int, tuple]" = OrderedDict()
        #: segment name -> in-flight shm tasks referencing it.  A segment
        #: evicted (or generation-retired) while referenced is parked in
        #: ``_retired_caches`` and unlinked on the last decref, never out
        #: from under a worker that will attach it by name.
        self._seg_refs: Dict[str, int] = {}
        self._retired_caches: Dict[str, object] = {}
        #: shares/reuses of caches dropped from the registry, folded into
        #: ``trace_shares``/``trace_reuses`` so eviction never rolls the
        #: telemetry backwards.
        self._evicted_shares = 0
        self._evicted_reuses = 0
        self.closed = False
        self.stats = PoolStats(workers=workers)
        # Start the multiprocessing resource tracker *before* forking
        # workers: shm attaches register with the tracker (gh-82300), and
        # only a child that inherited the parent's tracker fd collapses
        # its registrations into the parent's set — a child that lazily
        # starts its own tracker would warn about every segment the
        # parent later unlinks.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker API unavailable
            pass
        try:
            for _ in range(workers):
                self._free.put(self._spawn())
        except BaseException:
            self.close()
            raise

    # -- worker lifecycle -------------------------------------------------------

    def _spawn(self, context=None) -> _Worker:
        context = context if context is not None else self._context
        parent_conn, child_conn = context.Pipe(duplex=True)
        proc = context.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        with self._lock:
            self._workers.append(worker)
        return worker

    def _bump(self, **deltas: int) -> None:
        """Increment stats counters atomically (pipeline threads race)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _release(self, worker: _Worker) -> None:
        if self.closed:
            return
        self._free.put(worker)

    def _retire(self, worker: _Worker) -> None:
        """Kill a dead/wedged worker and start its replacement.

        The replacement comes from the ``spawn`` context — by the time a
        worker dies mid-run the parent has pipeline threads, and forking
        a multithreaded process can deadlock the child on an inherited
        lock (Python 3.12+ warns outright).
        """
        try:
            worker.proc.terminate()
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck terminate
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        if not self.closed:
            self._bump(respawns=1)
            self._free.put(self._spawn(self._respawn_context))

    # -- trace registry ---------------------------------------------------------

    def register_trace(self, trace) -> str:
        """Name of the live shared segment for ``trace``'s current contents.

        Shares once, then reuses until the trace mutates (the cache is
        keyed on ``trace._mutations``); retired generations and LRU
        evictions (``max_traces``) are unlinked immediately *unless* an
        in-flight task still references the segment by name — a segment a
        worker has yet to attach is parked and unlinked on the last
        :meth:`PendingTask.result`, so eviction under a deep registry
        never yanks a sibling pipeline's dispatch out from under it.
        Already-attached workers keep their mapping alive across an
        unlink regardless, which POSIX permits.
        """
        if self.closed:
            raise FleetError("register_trace on a closed pool")
        to_close = []
        try:
            with self._lock:
                entry = self._traces.get(id(trace))
                if entry is None or entry[0] is not trace:
                    entry = (trace, columnar.SharedTraceCache(trace))
                    self._traces[id(trace)] = entry
                else:
                    # The cache would retire its generation inside
                    # segment() below; if in-flight tasks still name the
                    # old segment, park the whole cache and start fresh.
                    cache = entry[1]
                    old_name = cache.name
                    if (
                        old_name is not None
                        and cache._mutations != trace._mutations
                        and self._seg_refs.get(old_name, 0) > 0
                    ):
                        self._park_cache(old_name, cache)
                        entry = (trace, columnar.SharedTraceCache(trace))
                        self._traces[id(trace)] = entry
                self._traces.move_to_end(id(trace))
                while len(self._traces) > self.max_traces:
                    _key, (_t, old_cache) = self._traces.popitem(last=False)
                    old_name = old_cache.name
                    if (
                        old_name is not None
                        and self._seg_refs.get(old_name, 0) > 0
                    ):
                        self._park_cache(old_name, old_cache)
                    else:
                        self._evicted_shares += old_cache.shares
                        self._evicted_reuses += old_cache.reuses
                        to_close.append(old_cache)
                cache = entry[1]
                name = cache.segment().name
                with self._stats_lock:
                    self.stats.trace_shares = self._evicted_shares + sum(
                        c.shares for _t, c in self._traces.values()
                    )
                    self.stats.trace_reuses = self._evicted_reuses + sum(
                        c.reuses for _t, c in self._traces.values()
                    )
                return name
        finally:
            # Unlinks are syscalls — do them outside the pool lock.
            for old_cache in to_close:
                old_cache.close()

    def _park_cache(self, name: str, cache) -> None:
        """Defer a still-referenced cache's unlink to the last decref.

        Caller holds ``self._lock``.  The cache's telemetry is folded
        into the evicted accumulators here, so parking is invisible in
        ``trace_shares``/``trace_reuses``.
        """
        self._evicted_shares += cache.shares
        self._evicted_reuses += cache.reuses
        self._retired_caches[name] = cache

    def _incref_segment(self, name: Optional[str]) -> None:
        if name is None:
            return
        with self._lock:
            self._seg_refs[name] = self._seg_refs.get(name, 0) + 1

    def _decref_segment(self, name: Optional[str]) -> None:
        if name is None:
            return
        to_close = None
        with self._lock:
            held = self._seg_refs.get(name, 0)
            if held <= 1:
                self._seg_refs.pop(name, None)
                to_close = self._retired_caches.pop(name, None)
            else:
                self._seg_refs[name] = held - 1
        if to_close is not None:
            to_close.close()

    # -- dispatch ---------------------------------------------------------------

    def submit(self, task: tuple) -> PendingTask:
        """Check out a free worker (FIFO, blocking) and send ``task``.

        Blocking is safe because a caller holds no other worker while it
        waits.  The task is a ``("shm", trace_name, victims_name,
        params)`` tuple.
        """
        if self.closed:
            raise FleetError("submit on a closed pool")
        worker = self._checkout()
        self._bump(tasks=1)
        try:
            worker.conn.send(task)
        except (OSError, ValueError):
            # Send failed (worker died between tasks): retire and retry
            # once on a fresh worker; _retire queued a replacement.
            self._retire(worker)
            worker = self._checkout()
            try:
                worker.conn.send(task)
            except (OSError, ValueError):
                # Second worker also dead: retire it too (never leak a
                # checked-out worker — the pool must not shrink) and give
                # up; the caller's serial fallback covers the batch.
                self._retire(worker)
                raise
        segment = task[1]
        self._incref_segment(segment)
        return PendingTask(self, worker, segment)

    def diagnose(
        self,
        engine,
        victims: Sequence,
        task_timeout_s: Optional[float] = None,
    ) -> List:
        """Diagnose ``victims`` for ``engine`` as one task on one worker.

        The trace is *registered* with the pool and the victims cross as
        one small shared block created and unlinked here, so the task is
        two names plus the engine parameters.  Results come back in
        victim order, identical to the serial output; an empty batch
        returns ``[]`` without submitting anything.

        ``task_timeout_s`` is the task's watchdog, started once the task
        is sent: an expired task's worker is killed.  A batch without a
        result — timed out, crashed or errored, failures counted via
        ``engine.record_worker_failure`` — or whose block cannot be
        shared at all (no shared memory on this platform, ``/dev/shm``
        exhausted; ``last_dispatch["mode"]`` reads ``"serial"``) is
        diagnosed serially by ``engine`` in this thread.
        """
        if not victims:
            return []
        trace_name = None
        victims_shm = None
        if columnar.shm_available():
            try:
                trace_name = self.register_trace(engine.trace)
                victims_shm = columnar.share_victims(
                    victims, engine.trace.columns()
                )
            except OSError:  # e.g. /dev/shm exhausted
                pass  # nothing to hand a worker: the batch runs serially below
        wires = None
        try:
            task = None
            if victims_shm is not None:
                params = engine.worker_init_args()[1:]
                task = ("shm", trace_name, victims_shm.name, params)
            engine.last_dispatch = {
                "mode": "serial" if task is None else "shm",
                "payload_bytes_per_task": (
                    None if task is None else len(pickle.dumps(task))
                ),
            }
            if task is not None:
                status, payload = self.submit(task).result(task_timeout_s)
                if status == "ok":
                    wires = payload
                else:
                    engine.record_worker_failure(timed_out=status == "timeout")
        finally:
            # The trace segment stays with the pool (unlinked by close());
            # the per-call victim block must not outlive this call on any
            # path, BaseException included.
            if victims_shm is not None:
                columnar.unlink_block(victims_shm)
        if wires is None:
            return engine.diagnose_all(victims)
        # Workers ship compact wire tuples, not pickled dataclass trees;
        # reconstruction on this side is deterministic.
        return list(map(diagnosis_mod.diagnosis_from_wire, victims, wires))

    def _checkout(self) -> _Worker:
        try:
            return self._free.get_nowait()
        except queue.Empty:
            self._bump(checkout_waits=1)
            return self._free.get()

    # -- shutdown ---------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and unlink every registered segment.

        Idempotent and BaseException-safe: owners call it in ``finally``
        so no worker process or ``/dev/shm`` segment outlives the owning
        scope, however it unwound.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            self._workers.clear()
            traces = list(self._traces.values())
            self._traces.clear()
            retired = list(self._retired_caches.values())
            self._retired_caches.clear()
            self._seg_refs.clear()
        for worker in workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck terminate
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        for _trace, cache in traces:
            cache.close()
        for cache in retired:
            cache.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False


# -- worker side ---------------------------------------------------------------


def _pool_worker_main(conn) -> None:
    """Warm-worker loop: attach, diagnose, answer, repeat until shutdown.

    Engines are cached per ``(trace segment name, engine params)`` so a
    pipeline's successive chunks skip both the attach and the engine
    rebuild.  Diagnosis itself goes through the module-global
    ``_parallel_worker_init``/``_parallel_worker_diagnose`` entry points
    in :mod:`repro.core.diagnosis`.
    """
    engines: "OrderedDict[tuple, object]" = OrderedDict()
    segments: Dict[tuple, object] = {}

    def _drop_engine(key: tuple) -> None:
        engines.pop(key, None)
        shm = segments.pop(key, None)
        if shm is not None:
            try:
                shm.close()
            except Exception:  # pragma: no cover - views still alive
                pass

    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            try:
                if task[0] == "shm":
                    _kind, trace_name, victims_name, params = task
                    key = (trace_name, params)
                    engine = engines.get(key)
                    if engine is None:
                        trace, shm = columnar.attach_trace(trace_name)
                        segments[key] = shm
                        diagnosis_mod._parallel_worker_init(trace, *params)
                        engine = diagnosis_mod._WORKER_ENGINE
                        engines[key] = engine
                        while len(engines) > WORKER_CACHE_SLOTS:
                            _drop_engine(next(iter(engines)))
                    else:
                        diagnosis_mod._WORKER_ENGINE = engine
                    engines.move_to_end(key)
                    victims = columnar.attach_victims(
                        victims_name, engine.trace.columns().nf_names
                    )
                    conn.send(("ok", diagnosis_mod._parallel_worker_diagnose(victims)))
                else:
                    conn.send(("error", f"unknown task kind {task[0]!r}"))
            except BaseException as exc:
                try:
                    conn.send(("error", repr(exc)))
                except Exception:  # pragma: no cover - parent gone
                    pass
    finally:
        diagnosis_mod._WORKER_ENGINE = None
        engines.clear()
        for shm in segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - views still alive
                pass
        try:
            conn.close()
        except Exception:
            pass
