"""In-memory spans around calls into each layer, recorded from outside.

The benchmark wraps public methods of the instances *it* constructs
(``journal.append = recorder.wrap(...)`` on the instance, never on the
class), so the program under test is not edited and an untraced run
executes the original bound methods.  Spans are kept in memory and
written out once at exit; a layer's *self* time is its spans' duration
minus the part their child spans cover.

Only the recording thread is traced: the pipelines this benchmark
instruments are single-threaded on their hot path, and a wrapped method
called from any other thread (the socket reader, a fleet pipeline) runs
straight through.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


_ABSENT = object()


class SpanRecorder:
    """Records ``(name, start, end, parent, request)`` tuples."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: Parallel arrays (cheaper than one object per span at ~10^5 spans).
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        #: The request id stamped on every span opened from now on — the
        #: chunk index the pipeline is working towards.
        self.request = 0
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        #: (target, attribute, value to put back or _ABSENT) per wrap.
        self._wrapped: List[tuple] = []

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(-1)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        # Unwind to the closed span: an exception may have skipped the
        # close of spans opened inside it by hand (wrappers never do).
        while self._stack and self._stack.pop() != index:
            pass

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span("layer.step"):`` for harness-level calls."""
        return _SpanContext(self, name)

    def wrap(
        self,
        target: Any,
        method: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``target.method`` (on the instance, or a function on
        the module that looks it up) with a traced call.

        Transparent: same arguments, same return value, same exception —
        ``try/finally`` closes the span for ``BaseException`` too, so a
        ``SimulatedCrash`` or ``KeyboardInterrupt`` passes through.
        ``after(span_index, result, args, kwargs)`` runs on normal return
        only, once the span is closed (it is harness bookkeeping, not
        layer time).
        """
        original = getattr(target, method)
        self._wrapped.append((target, method, vars(target).get(method, _ABSENT)))
        recorder = self

        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return original(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(index, result, args, kwargs)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(target, method, traced)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back as it was (instance attributes
        that shadowed a class method are deleted again)."""
        while self._wrapped:
            target, method, previous = self._wrapped.pop()
            if previous is _ABSENT:
                delattr(target, method)
            else:
                setattr(target, method, previous)

    # -- analysis ---------------------------------------------------------------

    def durations(self) -> List[int]:
        return [max(0, end - start) for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[int]:
        """Per-span duration minus what its direct children cover.

        Children of one span never overlap (one thread), so the covered
        part is the sum of their durations.
        """
        own = self.durations()
        durations = list(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return [max(0, value) for value in own]

    def self_time_by_name(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        totals: Dict[str, int] = {}
        for name, own in zip(self.names, self.self_times()):
            totals[name] = totals.get(name, 0) + own
        return {name: ns / 1e9 for name, ns in totals.items()}

    def total_time_by_name(self) -> Dict[str, float]:
        """Seconds of inclusive time per span name."""
        totals: Dict[str, int] = {}
        for name, duration in zip(self.names, self.durations()):
            totals[name] = totals.get(name, 0) + duration
        return {name: ns / 1e9 for name, ns in totals.items()}

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for name in self.names:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def to_payload(self) -> dict:
        """Compact JSON form: span names interned, one row per span."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": table,
            "spans": [
                [code[name], start, end, parent, request]
                for name, start, end, parent, request in zip(
                    self.names, self.starts, self.ends, self.parents, self.requests
                )
            ],
        }

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        payload = self.to_payload()
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.close(self.index)


def unattributed_share(recorder: SpanRecorder, root: str) -> float:
    """Share of the root span's wall no child span accounts for.

    The harness opens exactly one ``root`` span around the traced run, so
    its self time is the recording thread's wall that fell between the
    wrapped calls: loop glue, plus anything the wrappers missed.
    """
    totals = recorder.total_time_by_name()
    own = recorder.self_time_by_name()
    wall = totals.get(root, 0.0)
    if wall <= 0.0:
        return 1.0
    return own.get(root, 0.0) / wall
