"""Percentiles, lag arithmetic and run-to-run spread.

Pure functions over plain lists, so the self-tests can pin the rules the
README states: which percentile a sample supports, how open-loop lag is
taken from due times, and how steadiness is judged.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A tail percentile is only reported with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the sample at or below it (no interpolation, so the result
    is always a value that was measured)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int) -> Optional[float]:
    """Highest percentile with :data:`MIN_TAIL_SAMPLES` samples beyond it.

    ``None`` when even the median does not have ten samples above it —
    the sample then supports a median only.
    """
    if n < 2 * MIN_TAIL_SAMPLES:
        return None
    return 100.0 * (n - MIN_TAIL_SAMPLES) / n


def supported(n: int, pct: float) -> float:
    """``pct`` if a sample of ``n`` has ten values beyond it, else the
    highest percentile it does support (the median when it supports no
    tail at all).  Report timings with this and state ``n``."""
    tail = highest_supported_percentile(n)
    return 50.0 if tail is None else min(pct, tail)


# -- open-loop lag ---------------------------------------------------------------


def seal_barriers(
    times_by_stream: Dict[str, Sequence[int]],
    positions_by_stream: Dict[str, Sequence[int]],
    chunk_ns: int,
    margin_ns: int,
) -> List[int]:
    """Send-order position of the record that seals each chunk.

    Chunk ``k`` seals once *every* stream has delivered a record stamped
    at or past ``(k + 1) * chunk_ns + margin_ns`` (the ingest layer's
    min-watermark barrier), so its sealing record is the last of the
    per-stream first-crossers.  ``times_by_stream[s]`` are stream ``s``'s
    record times in send order, ``positions_by_stream[s]`` their indices
    in the global send order.  Chunks no record set ever crosses (sealed
    by end-of-stream only) are not returned: the list ends at the first
    such chunk.
    """
    import bisect

    sealing: List[int] = []
    k = 0
    while True:
        barrier = (k + 1) * chunk_ns + margin_ns
        last = -1
        for stream, times in times_by_stream.items():
            at = bisect.bisect_left(times, barrier)
            if at >= len(times):
                return sealing
            last = max(last, positions_by_stream[stream][at])
        sealing.append(last)
        k += 1


def due_time_lags_ms(
    verdict_ns: Dict[int, int], due_ns: Sequence[int], sealing: Sequence[int]
) -> List[float]:
    """Per-chunk lag: verdict wall time minus the wall time the chunk's
    sealing record was *due* to be sent.

    Timing from the due time (not the actual send) charges a generator
    stall to the lag of every chunk it delayed, which is what a real
    sender's users would see.  ``verdict_ns[k]`` is when chunk ``k``'s
    journal append returned; chunks without a sealing record (EOS-sealed)
    or without a verdict are skipped.
    """
    lags: List[float] = []
    for k, position in enumerate(sealing):
        stamp = verdict_ns.get(k)
        if stamp is not None:
            lags.append((stamp - due_ns[position]) / 1e6)
    return lags


def drift_ratio(lags: Sequence[float]) -> float:
    """Median lag of the last third over the first third (in arrival
    order).  Well above 1 means the backlog grew for as long as the run
    lasted: the offered rate is not sustainable."""
    third = len(lags) // 3
    if third == 0:
        return 1.0
    first = statistics.median(lags[:third])
    last = statistics.median(lags[-third:])
    if first <= 0:
        return 1.0 if last <= 0 else math.inf
    return last / first


# -- steadiness -------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return math.inf
    return abs(q3 - q1) / abs(median)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if first == 0:
        return math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
