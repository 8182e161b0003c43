"""Queuing-period extraction (paper section 4.1, Figure 5).

A queuing period runs from the moment an NF's input queue starts building
(queue length leaves zero) to the arrival of the packet under diagnosis.
The analyzer scans each NF's merged arrival/read streams once, remembering
for every arrival the period it belongs to; queries are then O(log n).

Two start rules are supported (paper section 7): the default zero-queue
rule, and a non-zero ``threshold`` for deployments whose queues never fully
drain.  ``periods_from_batches`` additionally implements the paper's
deployable heuristic: a batch read smaller than the maximum burst size
means the queue was just drained.

The event index is built by one vectorized numpy pass (merge via
``lexsort``, cumulative arrival/read counters, run-start detection for
period boundaries).  The event-by-event Python loop it replaced is the
test oracle (``tests/oracles/queuing.py``): both produce the same seven
parallel per-event/per-arrival sequences, so every query answers
identically from either.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.records import NFView
from repro.errors import DiagnosisError


@dataclass(frozen=True)
class QueuingPeriod:
    """The queuing period behind one victim arrival at one NF."""

    nf: str
    start_ns: int
    end_ns: int
    #: Arrivals during [start, end): slice bounds into NFView.arrivals.
    first_arrival_idx: int
    last_arrival_idx: int  # exclusive; the victim's own arrival is not in it
    n_input: int
    n_processed: int

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def queue_len(self) -> int:
        """Queue occupancy seen by the victim on arrival."""
        return self.n_input - self.n_processed

    @property
    def key(self) -> Tuple[str, int, int]:
        """Cache key identifying this period's arrival slice.

        Victims of the same queue buildup share ``first_arrival_idx``;
        ``last_arrival_idx`` distinguishes how deep into the buildup each
        victim arrived.  The diagnosis fast path keys its memo tables on
        this (see ``MicroscopeEngine``).
        """
        return (self.nf, self.first_arrival_idx, self.last_arrival_idx)


class QueuingAnalyzer:
    """Per-NF queuing-period index over one :class:`NFView`.

    The index is seven parallel int64 arrays — per merged event: time,
    queue length after the event, current period's first-arrival index
    (-1 when the queue is at or below the threshold), cumulative arrival
    and read counts; and per arrival: the pre-arrival period index and
    read count.
    """

    def __init__(
        self,
        view: NFView,
        threshold: int = 0,
        cache_presets: bool = True,
    ) -> None:
        if threshold < 0:
            raise DiagnosisError(f"queue threshold must be >= 0, got {threshold}")
        self.view = view
        self.threshold = threshold
        self.cache_presets = cache_presets
        self._preset_cache: Dict[Tuple[int, int], List[int]] = {}
        self.preset_hits = 0
        self.preset_misses = 0
        # Cross-chunk bookkeeping (see MicroscopeEngine.advance_chunk): the
        # generation stamps when a preset entry was created; hits on entries
        # from an earlier generation are cross-chunk reuse.
        self.generation = 0
        self.preset_cross_hits = 0
        self._preset_gen: Dict[Tuple[int, int], int] = {}
        # Batched period resolutions (periods_for_arrivals) park their
        # results here; period_for_arrival consumes a hint before falling
        # back to the per-arrival lookup.  Values may be None (no period).
        self._period_hints: Dict[Tuple[int, int], Optional[QueuingPeriod]] = {}
        self._build_index()

    # -- index construction ------------------------------------------------------

    def _build_index(self) -> None:
        """Vectorized index build; output matches the event-by-event loop
        (``tests/oracles/queuing.py``) exactly.

        The per-event scan state reduces to cumulative sums: queue length
        is ``cumsum(+1/-1)``, and ``period_first != -1`` exactly when the
        queue sits above the threshold (a period opens on the arrival that
        crosses the threshold and closes on the read that returns to it,
        and only arrivals raise the queue).  The opening arrival of each
        above-threshold run is therefore a boolean edge, and a running
        maximum over the edge positions recovers ``period_first``.
        """
        view = self.view
        n_arr, n_read = len(view.arrivals), len(view.reads)
        n = n_arr + n_read
        if n == 0:
            self._times = _np.empty(0, dtype=_np.int64)
            self._ev_qlen = self._times
            self._ev_first = self._times
            self._ev_arrivals = self._times
            self._ev_reads = self._times
            self._arr_pre_first = self._times
            self._arr_reads_before = self._times
            return
        times = _np.empty(n, dtype=_np.int64)
        times[:n_arr] = view.arrival_times()
        times[n_arr:] = view.read_times()
        kinds = _np.empty(n, dtype=_np.int8)
        kinds[:n_arr] = 0
        kinds[n_arr:] = 1
        # Stable sort by (time, kind): each stream is already time-sorted,
        # so ties keep stream order — identical to sorting the event tuples.
        order = _np.lexsort((kinds, times))
        times = times[order]
        is_arrival = order < n_arr
        ev_arrivals = _np.cumsum(is_arrival)
        ev_reads = _np.arange(1, n + 1, dtype=_np.int64) - ev_arrivals
        ev_qlen = ev_arrivals - ev_reads
        above = ev_qlen > self.threshold
        opens = above.copy()
        opens[1:] &= ~above[:-1]
        # Arrival-stream index of each event's arrival (valid where
        # is_arrival; an opening event is always an arrival).
        arr_idx = ev_arrivals - 1
        ev_first = _np.maximum.accumulate(_np.where(opens, arr_idx, -1))
        ev_first = _np.where(above, ev_first, -1)
        # Per-arrival pre-state: the state after the previous merged event.
        positions = _np.nonzero(is_arrival)[0]
        arr_pre_first = _np.where(
            positions > 0, ev_first[_np.maximum(positions - 1, 0)], -1
        )
        arr_reads_before = ev_reads[positions]  # arrivals leave reads unchanged
        self._times = times
        self._ev_qlen = ev_qlen
        self._ev_first = ev_first
        self._ev_arrivals = ev_arrivals
        self._ev_reads = ev_reads
        self._arr_pre_first = arr_pre_first
        self._arr_reads_before = arr_reads_before

    # -- queries ----------------------------------------------------------------

    def period_for_arrival(self, pid: int, t_ns: int) -> Optional[QueuingPeriod]:
        """Queuing period seen by packet ``pid`` arriving at ``t_ns``.

        Returns None when the victim found the queue at or below the
        threshold (no queue-based cause at this NF).
        """
        if self._period_hints:
            try:
                return self._period_hints.pop((pid, t_ns))
            except KeyError:
                pass
        arrival_idx = self.view.arrival_index(pid, t_ns)
        period_first = int(self._arr_pre_first[arrival_idx])
        if period_first == -1:
            return None
        reads_before = int(self._arr_reads_before[arrival_idx])
        return self._build(period_first, arrival_idx, t_ns, reads_before)

    def period_at(self, t_ns: int) -> Optional[QueuingPeriod]:
        """Queuing period active at time ``t_ns`` (for drop victims).

        State is taken after all events at or before ``t_ns``.
        """
        idx = bisect.bisect_right(self._times, t_ns) - 1
        if idx < 0:
            return None
        period_first = int(self._ev_first[idx])
        if period_first == -1:
            return None
        return self._build(
            period_first, int(self._ev_arrivals[idx]), t_ns, int(self._ev_reads[idx])
        )

    def periods_for_arrivals(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> None:
        """Resolve many ``(pid, t_ns)`` arrivals in one vectorized pass.

        Results (including None for no-period arrivals) are parked in the
        hint table that :meth:`period_for_arrival` consumes, so batch
        callers — ``diagnose_all``'s recursion-frontier prefill — keep the
        per-victim call sites and the memo accounting unchanged.  Each
        constructed period is integer-identical to the per-arrival path:
        both gather the same index entries.
        """
        if not pairs:
            return
        n = len(pairs)
        idxs = _np.fromiter(
            (self.view.arrival_index(pid, t) for pid, t in pairs),
            dtype=_np.int64,
            count=n,
        )
        firsts = self._arr_pre_first[idxs]
        reads_seen = self._arr_reads_before[idxs]
        starts = _np.where(firsts >= 0, self.view.arrival_times()[
            _np.maximum(firsts, 0)
        ], 0)
        reads_before_start = _np.searchsorted(
            self.view.read_times(), starts, side="left"
        )
        n_input = idxs - firsts
        n_processed = reads_seen - reads_before_start
        name = self.view.name
        hints = self._period_hints
        for i, (pid, t_ns) in enumerate(pairs):
            if firsts[i] < 0:
                hints[(pid, t_ns)] = None
                continue
            processed = int(n_processed[i])
            if processed < 0:
                raise DiagnosisError(
                    f"negative processed count at {name}: {processed}"
                )
            hints[(pid, t_ns)] = QueuingPeriod(
                nf=name,
                start_ns=int(starts[i]),
                end_ns=t_ns,
                first_arrival_idx=int(firsts[i]),
                last_arrival_idx=int(idxs[i]),
                n_input=int(n_input[i]),
                n_processed=processed,
            )

    def _build(
        self, period_first: int, arrival_end: int, end_ns: int, reads_seen: int
    ) -> QueuingPeriod:
        start_ns = self.view.arrival_time_at(period_first)
        # Reads completed before the period started:
        reads_before_start = self.view.reads_before(start_ns)
        n_input = arrival_end - period_first
        n_processed = reads_seen - reads_before_start
        if n_processed < 0:
            raise DiagnosisError(
                f"negative processed count at {self.view.name}: {n_processed}"
            )
        return QueuingPeriod(
            nf=self.view.name,
            start_ns=start_ns,
            end_ns=end_ns,
            first_arrival_idx=period_first,
            last_arrival_idx=arrival_end,
            n_input=n_input,
            n_processed=n_processed,
        )

    def preset_pids(self, period: QueuingPeriod) -> List[int]:
        """The PreSet(p): pids of arrivals during the queuing period.

        With ``cache_presets`` the slice is materialized once per
        ``(first, last)`` pair and the cached list is returned directly —
        callers must treat it as read-only (all engine callers do).
        """
        key = (period.first_arrival_idx, period.last_arrival_idx)
        if self.cache_presets:
            cached = self._preset_cache.get(key)
            if cached is not None:
                self.preset_hits += 1
                if self._preset_gen.get(key, self.generation) != self.generation:
                    self.preset_cross_hits += 1
                return cached
            self.preset_misses += 1
        preset = self.view.arrival_pids()[
            period.first_arrival_idx : period.last_arrival_idx
        ].tolist()
        if self.cache_presets:
            self._preset_cache[key] = preset
            self._preset_gen[key] = self.generation
        return preset

    def evict_presets_before(self, t_ns: int) -> Tuple[int, int]:
        """Drop cached PreSets whose last arrival precedes ``t_ns``.

        Returns ``(carried, evicted)`` entry counts.  Eviction only frees
        memory — an evicted entry that is referenced again is recomputed
        from the arrival stream with an identical result.
        """
        view = self.view
        stale = [
            key
            for key in self._preset_cache
            if view.arrival_time_at(key[1] - 1) < t_ns
        ]
        for key in stale:
            del self._preset_cache[key]
            self._preset_gen.pop(key, None)
        return len(self._preset_cache), len(stale)


def periods_from_batches(
    rx_batches: Sequence[Tuple[int, int]], max_batch: int
) -> List[int]:
    """Queue-drain boundaries from (timestamp, batch size) pairs.

    Implements the deployable rule from section 5: a batch smaller than the
    maximum burst size means the queue was emptied by that read.  Returns
    the timestamps after which a new queuing period may start.
    """
    if max_batch <= 0:
        raise DiagnosisError(f"max_batch must be positive, got {max_batch}")
    return [t for t, size in rx_batches if size < max_batch]
