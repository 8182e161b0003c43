"""Fleet fixtures: a shared scenario trace (the no-leak invariant every
fleet test runs under lives in ``tests/conftest.py``)."""

from __future__ import annotations

import pytest

from repro.core.records import DiagTrace
from repro.core.victims import VictimSelector
from tests.conftest import run_interrupt_chain
from tests.conftest import shm_segments  # noqa: F401 - test_pool imports it from here


@pytest.fixture(scope="module")
def chain():
    trace = DiagTrace.from_sim_result(run_interrupt_chain())
    victims = VictimSelector(trace).hop_latency_victims(pct=98.0)
    assert victims
    return trace, victims
