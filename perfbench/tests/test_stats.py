"""The reporting rules the README states, pinned on synthetic data."""

import math

import pytest

from perfbench import stats


class TestPercentileRule:
    def test_nearest_rank_returns_measured_values(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 90) == 5.0
        assert stats.percentile(values, 0) == 1.0
        assert stats.percentile([7.0], 90) == 7.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)

    def test_tail_needs_ten_samples_beyond_it(self):
        # 19 samples: even the median has only 9 above it.
        assert stats.highest_supported_percentile(19) is None
        assert stats.highest_supported_percentile(20) == 50.0
        assert stats.highest_supported_percentile(100) == 90.0
        assert stats.highest_supported_percentile(1000) == 99.0

    def test_unsupported_tails_fall_back_to_what_the_sample_supports(self):
        assert stats.supported(100, 90.0) == 90.0
        assert stats.supported(1000, 90.0) == 90.0
        # 40 samples support p75 at most; 8 samples only a median.
        assert stats.supported(40, 90.0) == 75.0
        assert stats.supported(8, 90.0) == 50.0
        values = [float(i) for i in range(1, 201)]
        tail = stats.supported(len(values), 99.0)
        assert tail == 95.0
        # Exactly ten samples lie beyond the reported tail.
        assert sum(1 for v in values if v > stats.percentile(values, tail)) == 10


class TestDueTimeLag:
    CHUNK, MARGIN = 10, 5

    def schedule(self):
        """Two streams, one record per time unit each, ``b`` one unit
        behind ``a`` in send order: a0 b0 a1 b1 ..."""
        times = {"a": list(range(0, 40)), "b": list(range(0, 40))}
        positions = {"a": [2 * i for i in range(40)], "b": [2 * i + 1 for i in range(40)]}
        return times, positions

    def test_sealing_record_is_the_last_stream_to_cross(self):
        times, positions = self.schedule()
        sealing = stats.seal_barriers(times, positions, self.CHUNK, self.MARGIN)
        # Chunk 0 seals at time 15: a's record 15 is position 30, b's 31.
        assert sealing[0] == 31
        assert sealing[1] == 51
        # Barriers 15, 25, 35 are crossed; 45 never is (EOS seals it).
        assert len(sealing) == 3

    def test_eos_sealed_chunks_are_excluded(self):
        times = {"a": [0, 20, 40], "b": [0, 20]}
        positions = {"a": [0, 2, 4], "b": [1, 3]}
        # Chunk 0 (barrier 15) seals at b's record 20; chunk 1's barrier
        # 25 is crossed by a alone, so chunk 1 only seals at EOS.
        assert stats.seal_barriers(times, positions, 10, 5) == [3]

    def test_lag_counts_from_due_time_not_send_time(self):
        times, positions = self.schedule()
        sealing = stats.seal_barriers(times, positions, self.CHUNK, self.MARGIN)
        due = [1_000_000 * i for i in range(80)]  # one record per ms
        verdicts = {0: due[31] + 2_000_000, 1: due[51] + 9_000_000}
        # The generator stalled and sent record 51 4 ms late: the verdict
        # for chunk 1 is still timed from when the record was *due*.
        lags = stats.due_time_lags_ms(verdicts, due, sealing)
        assert lags == [2.0, 9.0]

    def test_chunks_without_a_verdict_are_skipped(self):
        lags = stats.due_time_lags_ms({1: 50}, [0, 10, 20], [1, 2])
        assert lags == [(50 - 20) / 1e6]

    def test_drift_ratio_flags_a_growing_backlog(self):
        flat = [20.0 + (i % 3) for i in range(90)]
        assert stats.drift_ratio(flat) == pytest.approx(1.0, abs=0.1)
        growing = [20.0 + i for i in range(90)]
        assert stats.drift_ratio(growing) > 2.0
        assert stats.drift_ratio([1.0, 2.0]) == 1.0  # too few to judge


class TestSteadiness:
    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles(n=4) on 1..10 gives 2.75 / 5.5 / 8.25.
        assert stats.spread(values) == pytest.approx(5.5 / 5.5)
        assert stats.spread([5.0] * 10) == 0.0
        assert math.isinf(stats.spread([0.0] * 10))

    def test_worse_by_respects_direction(self):
        assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
        assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
