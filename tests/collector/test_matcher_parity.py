"""The indexed reconstruction matcher against the scan oracle.

``_StreamMatcher`` answers each merged item's per-stream candidate with
bisection over an ``ipid -> positions`` index (streams whose times never
decrease) or a scan (the rest), with or without a ``max_skip`` bound.
It must return what the scan matcher in ``tests/oracles/reconstruct.py``
returns — assignment and both counters — on every input, and whole
reconstructions must agree on the Fig. 9 and Fig. 10/14-chain fixtures.
A wall-clock-free guard pins the cost: stream elements read per merged
item grow with ``log n``, not with the window.
"""

import math
from itertools import accumulate

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from benchmarks.test_fig09_reconstruction import run_and_reconstruct
from repro.collector.reconstruct import (
    DEFAULT_MAX_WAIT_NS,
    EdgeSpec,
    TraceReconstructor,
    _StreamMatcher,
)
from repro.experiments.harness import run_injected_experiment
from repro.util.rng import generator
from repro.util.timebase import MSEC
from tests.oracles.reconstruct import OracleStreamMatcher, matching_through


def run_both(merged, streams, lo, hi, lookahead, max_skip):
    ours = _StreamMatcher(merged, streams, lo, hi, lookahead, max_skip)
    theirs = OracleStreamMatcher(merged, streams, lo, hi, lookahead, max_skip)
    return (ours, ours.run()), (theirs, theirs.run())


@st.composite
def matcher_inputs(draw):
    """1–4 streams over a tiny ipid alphabet (collisions force the
    lookahead), equal timestamps, gaps wider than the window, drop runs
    longer than ``max_skip`` (or no bound), and optionally disordered
    streams (strict mode over damaged input)."""
    max_wait = draw(st.sampled_from([0, 3, 10]))
    lo, hi = draw(st.sampled_from([(-max_wait, 0), (0, max_wait)]))
    alphabet = draw(st.integers(1, 4))
    ipid = st.integers(0, alphabet - 1)
    step = st.sampled_from([0, 0, 1, 2, 5, 3 * max_wait + 7])
    streams = {}
    merged = []
    for s in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 30))
        times = list(accumulate(draw(st.lists(step, min_size=n, max_size=n))))
        ipids = draw(st.lists(ipid, min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, n - 2), max_size=4)):
                times[i], times[i + 1] = times[i + 1], times[i] + 1
        # Items that reach the merged stream, each read somewhere inside
        # the window; the rest are losses (a long drop run when the draw
        # keeps nothing for a while).
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        for t, i, k in zip(times, ipids, keep):
            if k:
                merged.append((t - draw(st.integers(lo, hi)), i))
        streams[f"s{s}"] = (times, ipids)
    noise = draw(st.lists(st.tuples(st.integers(-5, 200), ipid), max_size=8))
    merged.extend(noise)
    if draw(st.booleans()):
        merged.sort(key=lambda item: item[0])
    merged_times = [t for t, _i in merged]
    merged_ipids = [i for _t, i in merged]
    lookahead = draw(st.sampled_from([0, 1, 4]))
    max_skip = draw(st.sampled_from([None, 0, 1, 3, 64]))
    return (merged_times, merged_ipids), streams, lo, hi, lookahead, max_skip


class TestMatcherParity:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(matcher_inputs())
    @example(
        # Two streams whose heads tie on (skips, time): order lookahead.
        (([10, 11], [1, 2]), {"a": ([10, 11], [1, 1]), "b": ([10, 11], [1, 2])},
         -5, 0, 4, 64)
    )
    @example(
        # A same-ipid item behind a too-old prefix longer than max_skip.
        (([100], [7]), {"a": ([0, 1, 2, 3, 100], [7, 7, 7, 7, 7])}, -3, 0, 4, 2)
    )
    @example(
        # Strict mode over a disordered stream: the scan branch.
        (([5, 6], [1, 1]), {"a": ([9, 5, 6], [1, 1, 1])}, 0, 3, 4, 64)
    )
    def test_same_assignment_and_counters(self, inputs):
        (ours, assignment), (theirs, expected) = run_both(*inputs)
        assert assignment == expected
        assert ours.stats_ambiguous == theirs.stats_ambiguous
        assert ours.stats_unmatched == theirs.stats_unmatched
        assert ours.pointers == theirs.pointers

    def test_tied_heads_take_the_lookahead(self):
        merged = ([10, 11], [1, 2])
        streams = {"a": ([10, 11], [1, 1]), "b": ([10, 11], [1, 2])}
        (ours, assignment), (theirs, expected) = run_both(
            merged, streams, -5, 0, 4, 64
        )
        assert assignment == expected == [("a", 0), ("b", 1)]
        assert ours.stats_ambiguous == theirs.stats_ambiguous == 1


class TestLongDropRuns:
    def test_queue_matching_reaches_past_any_drop_run(self):
        """500 writer items dropped at a full queue, then two reads: with
        no bound (queue matching) both match; the search still stops at
        the read time.  A bound of 64 — once applied to queue matching
        too — leaves them unmatched."""
        drops = 500
        writer = (list(range(drops + 3)), list(range(drops + 3)))
        merged = ([drops + 1, drops + 2], [drops, drops + 1])
        (ours, assignment), (theirs, expected) = run_both(
            merged, {"w": writer}, -1_000, 0, 4, None
        )
        assert assignment == expected == [("w", drops), ("w", drops + 1)]
        assert ours.stats_unmatched == theirs.stats_unmatched == 0
        (bounded, assignment), _ = run_both(merged, {"w": writer}, -1_000, 0, 4, 64)
        assert assignment == [None, None]
        assert bounded.stats_unmatched == 2


def reconstruction_state(reconstructor, packets):
    return (
        [
            (
                p.flow,
                p.source,
                p.emitted_ns,
                p.exited_ns,
                p.dropped_at,
                [(h.nf, h.arrival_ns, h.read_ns, h.depart_ns) for h in p.hops],
            )
            for p in packets
        ],
        reconstructor.stats,
        reconstructor._queue_match,
        reconstructor._demux_match,
    )


def assert_same_reconstruction(data, edges, **kwargs):
    ours = TraceReconstructor(data, edges, **kwargs)
    ours_state = reconstruction_state(ours, ours.reconstruct())
    with matching_through():
        theirs = TraceReconstructor(data, edges, **kwargs)
        theirs_state = reconstruction_state(theirs, theirs.reconstruct())
    assert ours_state == theirs_state
    return ours


class TestReconstructionParity:
    def test_fig09_ipid_collisions(self):
        _result, reconstructor, _packets = run_and_reconstruct()
        assert_same_reconstruction(reconstructor.data, reconstructor.edges)

    def test_fig10_chain_with_injected_problems(self):
        run = run_injected_experiment(
            rate_pps=600_000.0,
            duration_ns=8 * MSEC,
            seed=3,
            with_collector=True,
            plan_kwargs=dict(
                n_bursts=1,
                n_interrupts=1,
                n_bug_triggers=1,
                horizon_ns=2 * MSEC,
                warmup_ns=2 * MSEC,
            ),
        )
        topology = run.chain.topology
        edges = [
            EdgeSpec(src, dst, topology.delay_ns(src, dst))
            for src in sorted(topology.nodes())
            for dst in sorted(topology.successors(src))
        ]
        assert_same_reconstruction(run.collector.data, edges)
        assert_same_reconstruction(run.collector.data, edges, tolerant=True)


class CountingList(list):
    """A list that counts the elements read from it."""

    reads = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            CountingList.reads += len(range(*index.indices(len(self))))
        else:
            CountingList.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        CountingList.reads += len(self)
        return super().__iter__()


class TestMatcherCost:
    def test_demux_reads_grow_with_log_n(self):
        """4-way demux of 20k reads: every read goes to one next hop, so
        each merged item has three streams it does not match, and the
        default window holds far more than ``max_skip`` of their items.
        The scan walked ``max_skip + 1`` = 65 items of each; the indexed
        matcher reads a few elements per stream and merged item."""
        n, streams_n, max_wait = 20_000, 4, DEFAULT_MAX_WAIT_NS
        rng = generator(7)
        rx_times, rx_ipids = CountingList(), CountingList()
        tx = {f"hop{k}": (CountingList(), CountingList()) for k in range(streams_n)}
        for i in range(n):
            time_ns = 1_000 * i
            ipid = int(rng.integers(0, 1 << 16))
            rx_times.append(time_ns)
            rx_ipids.append(ipid)
            times, ipids = tx[f"hop{int(rng.integers(0, streams_n))}"]
            times.append(time_ns + int(rng.integers(0, 900)))
            ipids.append(ipid)
        CountingList.reads = 0
        matcher = _StreamMatcher((rx_times, rx_ipids), tx, 0, max_wait)
        assignment = matcher.run()
        assert all(match is not None for match in assignment)
        per_item = CountingList.reads / n
        assert per_item <= 2 * streams_n * math.log2(n), per_item
