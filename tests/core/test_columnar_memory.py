"""Memory ceiling: the columnar build must not allocate per-hop objects.

``TraceColumns.from_trace`` fills every column with C-level ``fromiter``
passes over generator expressions — the whole point is that a trace with
N hops costs O(N) *array bytes*, never N Python objects (a ``PacketHop``
alone is ~200 bytes of header, fields, and boxed ints).  This microbench
pins that with ``tracemalloc``: the peak allocation delta of a cold build
stays within the final array footprint plus a small constant, a budget
any per-hop materialization would blow several times over.

CI runs this as the dedicated memory-ceiling job (see ci.yml).
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.records import DiagTrace
from tests.conftest import run_interrupt_chain

#: Fixed overhead allowance: name tables, the CSR index, sort scratch,
#: and interpreter noise.  Deliberately far below what per-hop Python
#: objects would cost on this trace (~200 bytes x 11k hops).
SLACK_BYTES = 256 * 1024


@pytest.fixture(scope="module")
def chain_trace():
    return DiagTrace.from_sim_result(run_interrupt_chain())


def cold_build_footprint(trace):
    """(peak delta, steady delta, cols) for a from-scratch columns build."""
    trace.columns()  # warm numpy / lazy imports so they don't bill the build
    trace._columns_cache = None
    trace._columns_built_at = -1
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        cols = trace.columns()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, current - before, cols


class TestColumnarBuildMemoryCeiling:
    def test_peak_bounded_by_array_footprint(self, chain_trace):
        peak, steady, cols = cold_build_footprint(chain_trace)
        n_hops = len(cols.hop_arrival)
        assert n_hops > 5_000  # the budget only means something at scale
        budget = cols.nbytes + 16 * n_hops + SLACK_BYTES
        assert peak <= budget, (
            f"columnar build peaked at {peak} bytes "
            f"(budget {budget}; per-hop objects would cost "
            f"~{200 * n_hops} extra)"
        )
        # Steady state is the arrays themselves, nothing retained beyond.
        assert steady <= cols.nbytes + SLACK_BYTES

    def test_rebuild_does_not_accumulate(self, chain_trace):
        first, _steady, _cols = cold_build_footprint(chain_trace)
        second, _steady, _cols = cold_build_footprint(chain_trace)
        # Rebuilding (the live-ingest invalidation path) costs the same
        # peak every time; nothing leaks across builds.
        assert second <= first + SLACK_BYTES

    def test_no_packet_hop_objects_allocated(self, chain_trace):
        # Belt and braces for the tracemalloc budget: count live PacketHop
        # objects before and after a cold build.
        import gc

        from repro.core.records import PacketHop

        chain_trace._columns_cache = None
        chain_trace._columns_built_at = -1
        gc.collect()
        before = sum(1 for o in gc.get_objects() if type(o) is PacketHop)
        chain_trace.columns()
        gc.collect()
        after = sum(1 for o in gc.get_objects() if type(o) is PacketHop)
        assert after == before
