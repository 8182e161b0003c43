"""Array helpers against the loops they stand for.

``first_codes`` numbers rows as a dict's insertion order does.  The two
float rules of the builtin ``sum`` (plain before CPython 3.12,
compensated from it) are transcribed in ``tests/oracles/sums.py``, and
``summing_as`` emulates either; the transcript of the running
interpreter's rule must be faithful, and the rules must differ.
``sum_in_order`` is the plain rule under either.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.arrays import first_codes, sum_in_order
from tests.oracles.sums import neumaier_sum, plain_sum, summing_as

values = st.floats(-1e100, 1e100) | st.sampled_from([1e16, -1e16, 1.0, 0.1, 1 / 3, -0.0])


@given(xs=st.lists(values, max_size=20))
def test_transcript_of_this_interpreter(xs):
    rule = neumaier_sum if sum([1e16, 1.0, -1e16]) == 1.0 else plain_sum
    assert float(rule(xs)).hex() == float(sum(xs)).hex()


def test_the_rules_differ():
    assert plain_sum([1e16, 1.0, -1e16]) == 0.0
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0


@pytest.mark.parametrize("compensated", [False, True])
@given(xs=st.lists(values, max_size=20))
def test_sum_in_order_is_plain_under_either_rule(compensated, xs):
    with summing_as(compensated):
        assert sum_in_order(xs).hex() == float(plain_sum(xs)).hex()
        assert sum_in_order(iter(xs)).hex() == float(plain_sum(xs)).hex()


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
