"""Reference queuing index: one Python pass over the merged events.

``build_index_reference`` is the loop ``QueuingAnalyzer._build_index``
vectorized, moved here unedited in logic.  It returns the analyzer's seven
index sequences (``INDEX_SEQUENCES`` order) as plain lists; every analyzer
query reads single elements, so an analyzer whose index is swapped for
these lists (``reference_analyzer``) answers per-arrival and per-time
queries exactly as the production one must.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.queuing import QueuingAnalyzer
from repro.core.records import NFView

#: The index attributes of a :class:`QueuingAnalyzer`, in the order
#: ``build_index_reference`` returns them.
INDEX_SEQUENCES = (
    "_times",
    "_ev_qlen",
    "_ev_first",
    "_ev_arrivals",
    "_ev_reads",
    "_arr_pre_first",
    "_arr_reads_before",
)


def build_index_reference(view: NFView, threshold: int) -> Tuple[List[int], ...]:
    """Reference implementation: one Python pass over the merged events."""
    # Merged events: (time, kind, stream index); arrivals (kind 0) sort
    # before reads (kind 1) at equal timestamps, matching the simulator's
    # enqueue-then-read ordering within one nanosecond.
    events: List[Tuple[int, int, int]] = [
        (t, 0, i) for i, (t, _pid) in enumerate(view.arrivals)
    ] + [(t, 1, i) for i, (t, _pid) in enumerate(view.reads)]
    events.sort()
    times: List[int] = []
    ev_qlen: List[int] = []
    ev_first: List[int] = []
    ev_arrivals: List[int] = []
    ev_reads: List[int] = []
    arr_pre_first: List[int] = [-1] * len(view.arrivals)
    arr_reads_before: List[int] = [0] * len(view.arrivals)
    qlen = 0
    period_first = -1
    arrivals_seen = 0
    reads_seen = 0
    for time_ns, kind, idx in events:
        if kind == 0:
            # Pre-arrival state: the victim's own arrival is not part of
            # the period it observes.
            arr_pre_first[idx] = period_first
            arr_reads_before[idx] = reads_seen
            qlen += 1
            arrivals_seen += 1
            if qlen == threshold + 1 and period_first == -1:
                period_first = idx
        else:
            qlen -= 1
            reads_seen += 1
            if qlen <= threshold:
                period_first = -1
        times.append(time_ns)
        ev_qlen.append(qlen)
        ev_first.append(period_first)
        ev_arrivals.append(arrivals_seen)
        ev_reads.append(reads_seen)
    return (
        times,
        ev_qlen,
        ev_first,
        ev_arrivals,
        ev_reads,
        arr_pre_first,
        arr_reads_before,
    )


def use_reference_index(analyzer: QueuingAnalyzer) -> QueuingAnalyzer:
    """Swap ``analyzer``'s index for the reference lists (in place).

    ``periods_for_arrivals`` fancy-indexes the arrays and so does not work
    on the result; per-arrival and per-time queries do.
    """
    index = build_index_reference(analyzer.view, analyzer.threshold)
    for name, sequence in zip(INDEX_SEQUENCES, index):
        setattr(analyzer, name, sequence)
    return analyzer


def reference_analyzer(view: NFView, threshold: int = 0) -> QueuingAnalyzer:
    """A :class:`QueuingAnalyzer` answering from the reference index."""
    return use_reference_index(QueuingAnalyzer(view, threshold=threshold))
