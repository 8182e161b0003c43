"""Array helpers against the loops they stand for.

``first_codes`` numbers rows as a dict's insertion order does.
``segment_sums`` and ``add_in_order`` must equal the builtin ``sum`` of
the same floats in the same order: on the running interpreter, and under
each of the builtin's two rules (plain before CPython 3.12, compensated
from it), transcribed in ``tests/oracles/sums.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import arrays
from repro.util.arrays import add_in_order, first_codes, running_sums, segment_sums
from tests.oracles.sums import neumaier_sum, plain_sum, summing_as

values = st.floats(-1e100, 1e100) | st.sampled_from([1e16, -1e16, 1.0, 0.1, 1 / 3, -0.0])
segments = st.lists(st.lists(values, max_size=12), max_size=8)


def both_ways(segs):
    """Per segment: ``segment_sums`` and the ``add_in_order`` rounds."""
    sizes = np.array([len(s) for s in segs], dtype=np.int64)
    flat = np.array([v for s in segs for v in s], dtype=np.float64)
    total, error = np.zeros(len(segs)), np.zeros(len(segs))
    for k in range(max(sizes, default=0)):
        where = sizes > k
        add_in_order(total, error, where, np.array([s[k] for s in segs if len(s) > k]))
    return segment_sums(flat, sizes).tolist(), running_sums(total, error).tolist()


def hexes(xs):
    return [float(x).hex() for x in xs]


@given(segs=segments)
@settings(max_examples=300, deadline=None)
def test_sums_equal_the_builtin(segs):
    expected = hexes(sum(s) for s in segs)
    by_segments, by_rounds = both_ways(segs)
    assert hexes(by_segments) == expected
    assert hexes(by_rounds) == expected


@pytest.mark.parametrize("compensated", [False, True])
@given(segs=segments)
@settings(max_examples=200, deadline=None)
def test_sums_follow_either_rule(compensated, segs):
    rule = neumaier_sum if compensated else plain_sum
    expected = hexes(rule(s) for s in segs)
    with summing_as(compensated):
        by_segments, by_rounds = both_ways(segs)
    assert hexes(by_segments) == expected
    assert hexes(by_rounds) == expected


@given(xs=st.lists(values, max_size=20))
def test_transcript_of_this_interpreter(xs):
    rule = neumaier_sum if arrays.COMPENSATED_SUM else plain_sum
    assert float(rule(xs)).hex() == float(sum(xs)).hex()


def test_the_rules_differ():
    assert plain_sum([1e16, 1.0, -1e16]) == 0.0
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0


big = st.integers(0, 1 << 40) | st.sampled_from([0, 1 << 40])


@given(rows=st.lists(st.tuples(st.integers(-3, 3), big, big), max_size=30))
def test_first_codes_are_insertion_order(rows):
    """Three columns whose spans multiply past 2**62 densify midway."""
    codes = {}
    expected = [codes.setdefault(row, len(codes)) for row in rows]
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    columns = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [np.zeros(0, np.int64)] * 3
    code, first_row = first_codes(*columns)
    assert code.tolist() == expected
    assert first_row.tolist() == list(first.values())
