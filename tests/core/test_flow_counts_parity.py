"""Coded ``flow_counts`` against the tuple loop it replaced.

``TraceColumns.flow_counts`` counts culprit flows over a per-row flow
code (``np.unique`` of ``pkt_flow`` rows, built once per columns object)
and emits them in first-occurrence order.  It must return the dict of
``tests/oracles/trace.py::flow_counts_reference`` — same keys, counts and
key order — for any pid list: absent pids, duplicates, empty lists,
unsorted pid columns.  The code cache is a lookup cache: not pickled, not
in the shared-memory arrays, rebuilt after ``from_arrays``.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import TraceColumns
from tests.oracles.trace import flow_counts_reference

flow_keys = st.tuples(
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.integers(0, 255),
)


def packet_columns(pids, flows):
    """Columns holding only a packet table (no hops, no NFs)."""
    n = len(pids)
    zeros = np.zeros(n, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    return TraceColumns(
        [], [], [],
        np.asarray(pids, dtype=np.int64), zeros, zeros,
        np.full(n, -1, np.int64), np.full(n, -1, np.int32),
        np.zeros(n, dtype=np.int32),
        np.asarray(flows, dtype=np.int64).reshape(n, 5),
        np.zeros(n + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int32), empty, empty, empty,
        [],
    )


@st.composite
def traces_and_queries(draw):
    pids = draw(st.lists(st.integers(0, 500), unique=True, max_size=60))
    pool = draw(st.lists(flow_keys, min_size=1, max_size=6))
    flows = [draw(st.sampled_from(pool)) for _ in pids]
    present = st.sampled_from(pids) if pids else st.nothing()
    query = st.one_of(present, st.integers(-5, 600)) if pids else st.integers(-5, 600)
    queries = draw(st.lists(st.lists(query, max_size=80), min_size=1, max_size=4))
    return pids, flows, queries


def assert_same_counts(cols, pids):
    ours = cols.flow_counts(pids)
    theirs = flow_counts_reference(cols, pids)
    assert list(ours.items()) == list(theirs.items())


class TestFlowCountsParity:
    @given(traces_and_queries())
    @settings(max_examples=300, deadline=None)
    def test_same_dict_in_same_order(self, case):
        pids, flows, queries = case
        cols = packet_columns(pids, flows)
        for query in queries:
            assert_same_counts(cols, query)
        assert_same_counts(cols, [])
        assert_same_counts(cols, pids[::-1] + pids)

    @given(traces_and_queries())
    @settings(max_examples=50, deadline=None)
    def test_cache_is_rebuilt_not_shipped(self, case):
        pids, flows, queries = case
        cols = packet_columns(pids, flows)
        before = {key: array.copy() for key, array in cols._arrays().items()}
        for query in queries:
            cols.flow_counts(query)
        after = cols._arrays()
        assert before.keys() == after.keys()
        assert all(np.array_equal(before[key], after[key]) for key in before)
        clone = pickle.loads(pickle.dumps(cols))
        assert clone._flow_code is None
        for query in queries:
            assert list(clone.flow_counts(query).items()) == list(
                cols.flow_counts(query).items()
            )
