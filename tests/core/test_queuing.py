import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queuing import (
    QueuingAnalyzer,
    QueuingPeriod,
    periods_from_batches,
)
from repro.core.records import NFView
from repro.errors import DiagnosisError
from tests.oracles.queuing import (
    INDEX_SEQUENCES,
    build_index_reference,
    reference_analyzer,
)

#: Index builders the behavioural tests run against: the production numpy
#: pass and the reference Python loop (so the oracle is itself held to the
#: hand-computed expectations below).
ANALYZERS = {"python": reference_analyzer, "numpy": QueuingAnalyzer}
BACKENDS = list(ANALYZERS)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Every behavioural test runs against both index builders."""
    return request.param


def view_from_events(arrivals, reads, name="nf", peak=1e6):
    return NFView(
        name=name,
        peak_rate_pps=peak,
        arrivals=sorted(arrivals),
        reads=sorted(reads),
    )


class TestBackendSelection:
    """There is none: one index representation, no way to ask for another."""

    def test_default_backend_is_valid(self):
        view = view_from_events([(100, 0), (110, 1)], [(150, 0), (160, 1)])
        analyzer = QueuingAnalyzer(view)
        for name in INDEX_SEQUENCES:
            sequence = getattr(analyzer, name)
            assert isinstance(sequence, np.ndarray) and sequence.dtype == np.int64

    def test_unknown_backend_rejected(self):
        view = view_from_events([], [])
        with pytest.raises(TypeError):
            QueuingAnalyzer(view, backend="python")

    def test_resolved_backend_exposed(self, backend):
        """The two arms the behavioural tests run on really differ: the
        reference loop's plain lists vs the production arrays."""
        view = view_from_events([(100, 0)], [(150, 0)])
        expected = {"python": list, "numpy": np.ndarray}[backend]
        analyzer = ANALYZERS[backend](view)
        assert all(type(getattr(analyzer, n)) is expected for n in INDEX_SEQUENCES)


class TestBasicPeriods:
    def test_empty_queue_gives_none(self, backend):
        # Single packet arrives into an empty queue: no period behind it.
        view = view_from_events([(100, 0)], [(150, 0)])
        analyzer = ANALYZERS[backend](view)
        assert analyzer.period_for_arrival(0, 100) is None

    def test_builds_simple_period(self, backend):
        # Three arrivals before any read; the third sees queue length 2.
        view = view_from_events(
            [(100, 0), (110, 1), (120, 2)], [(130, 0), (140, 1), (150, 2)]
        )
        analyzer = ANALYZERS[backend](view)
        period = analyzer.period_for_arrival(2, 120)
        assert period is not None
        assert period.start_ns == 100
        assert period.end_ns == 120
        assert period.n_input == 2
        assert period.n_processed == 0
        assert period.queue_len == 2

    def test_period_resets_after_drain(self, backend):
        # Queue drains fully at t=115, then rebuilds.
        view = view_from_events(
            [(100, 0), (110, 1), (200, 2), (210, 3)],
            [(105, 0), (115, 1), (220, 2), (230, 3)],
        )
        analyzer = ANALYZERS[backend](view)
        period = analyzer.period_for_arrival(3, 210)
        assert period is not None
        assert period.start_ns == 200  # not 100
        assert period.queue_len == 1

    def test_preset_pids(self, backend):
        view = view_from_events(
            [(100, 7), (110, 8), (120, 9)], [(130, 7), (140, 8), (150, 9)]
        )
        analyzer = ANALYZERS[backend](view)
        period = analyzer.period_for_arrival(9, 120)
        assert analyzer.preset_pids(period) == [7, 8]

    def test_same_timestamp_arrival_before_read(self, backend):
        # Arrival and read at the same ns: arrival is processed first.
        view = view_from_events(
            [(100, 0), (105, 1), (110, 2)], [(110, 0), (120, 1), (130, 2)]
        )
        analyzer = ANALYZERS[backend](view)
        period = analyzer.period_for_arrival(2, 110)
        assert period is not None
        assert period.n_input == 2
        assert period.n_processed == 0  # the read at 110 is not before pid 2

    def test_period_fields_are_builtin_ints(self, backend):
        # np.int64 leaking into periods would break json serialization in
        # reports/benchmarks; periods must carry plain ints.
        view = view_from_events(
            [(100, 0), (110, 1), (120, 2)], [(130, 0), (140, 1), (150, 2)]
        )
        period = ANALYZERS[backend](view).period_for_arrival(2, 120)
        for value in (
            period.start_ns,
            period.end_ns,
            period.first_arrival_idx,
            period.last_arrival_idx,
            period.n_input,
            period.n_processed,
        ):
            assert type(value) is int


class TestPeriodAt:
    def test_matches_arrival_query(self, backend):
        view = view_from_events(
            [(100, 0), (110, 1), (120, 2)], [(130, 0), (140, 1), (150, 2)]
        )
        analyzer = ANALYZERS[backend](view)
        by_time = analyzer.period_at(125)
        assert by_time is not None
        assert by_time.start_ns == 100
        assert by_time.n_input == 3  # all three arrivals are <= 125

    def test_before_any_event(self, backend):
        view = view_from_events([(100, 0)], [(150, 0)])
        analyzer = ANALYZERS[backend](view)
        assert analyzer.period_at(50) is None


class TestThreshold:
    def test_nonzero_threshold_ignores_shallow_queues(self, backend):
        view = view_from_events(
            [(100, 0), (110, 1), (120, 2)], [(130, 0), (140, 1), (150, 2)]
        )
        analyzer = ANALYZERS[backend](view, threshold=2)
        # pid 2 saw queue length 2, which is not above the threshold.
        assert analyzer.period_for_arrival(2, 120) is None

    def test_threshold_validation(self):
        view = view_from_events([], [])
        with pytest.raises(DiagnosisError):
            QueuingAnalyzer(view, threshold=-1)


@st.composite
def event_streams(draw):
    """Random arrival stream with reads that never overtake arrivals."""
    n = draw(st.integers(1, 60))
    arrival_times = sorted(
        draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    )
    arrivals = [(t, i) for i, t in enumerate(arrival_times)]
    reads = []
    for i, (t, pid) in enumerate(arrivals):
        delay = draw(st.integers(1, 2_000))
        reads.append((t + delay, pid))
    # Enforce FIFO read order by sorting read times and re-pairing in
    # arrival order (reads can't overtake each other).
    read_times = sorted(t for t, _ in reads)
    reads = [(read_times[i], pid) for i, (_, pid) in enumerate(arrivals)]
    return arrivals, reads


@pytest.mark.parametrize("backend", BACKENDS)
class TestInvariants:
    # `backend` comes from parametrize, not the fixture: hypothesis
    # forbids function-scoped fixtures under @given.
    @settings(max_examples=60, deadline=None)
    @given(streams=event_streams())
    def test_queue_len_matches_naive_count(self, backend, streams):
        arrivals, reads = streams
        view = view_from_events(arrivals, reads)
        analyzer = ANALYZERS[backend](view)
        for t, pid in arrivals:
            period = analyzer.period_for_arrival(pid, t)
            # Naive queue occupancy just before this arrival: arrivals
            # strictly earlier in stream order minus reads strictly
            # earlier (arrivals at equal t with smaller index count).
            # Reads at exactly t sort after arrivals, so strictly-less is
            # the right comparison.
            idx = view.arrival_index(pid, t)
            naive = idx - sum(1 for rt, _ in reads if rt < t)
            if period is None:
                assert naive <= 0
            else:
                assert period.queue_len == naive
                assert period.n_input - period.n_processed == naive
                assert period.start_ns <= t

    @settings(max_examples=60, deadline=None)
    @given(streams=event_streams())
    def test_preset_size_equals_n_input(self, backend, streams):
        arrivals, reads = streams
        view = view_from_events(arrivals, reads)
        analyzer = ANALYZERS[backend](view)
        for t, pid in arrivals:
            period = analyzer.period_for_arrival(pid, t)
            if period is not None:
                assert len(analyzer.preset_pids(period)) == period.n_input


class TestBackendEquivalence:
    """The vectorized index must be bit-identical to the reference loop."""

    @settings(max_examples=80, deadline=None)
    @given(event_streams(), st.integers(0, 3))
    def test_periods_identical(self, streams, threshold):
        arrivals, reads = streams
        view = view_from_events(arrivals, reads)
        py = reference_analyzer(view, threshold=threshold)
        np_ = QueuingAnalyzer(view, threshold=threshold)
        for name, reference in zip(
            INDEX_SEQUENCES, build_index_reference(view, threshold)
        ):
            assert np.array_equal(getattr(np_, name), reference), name
        for t, pid in arrivals:
            p_py = py.period_for_arrival(pid, t)
            p_np = np_.period_for_arrival(pid, t)
            assert p_py == p_np
            if p_py is not None:
                assert py.preset_pids(p_py) == np_.preset_pids(p_np)
        probe_times = sorted({t for t, _ in arrivals} | {t for t, _ in reads})
        for t in probe_times:
            assert py.period_at(t) == np_.period_at(t)
            assert py.period_at(t - 1) == np_.period_at(t - 1)


class TestPeriodsFromBatches:
    def test_small_batches_mark_drains(self):
        batches = [(100, 32), (200, 32), (300, 10), (400, 32)]
        assert periods_from_batches(batches, max_batch=32) == [300]

    def test_all_full(self):
        assert periods_from_batches([(1, 32), (2, 32)], 32) == []

    def test_validation(self):
        with pytest.raises(DiagnosisError):
            periods_from_batches([], 0)
