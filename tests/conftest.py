"""Shared fixtures: small topologies, workloads and traces."""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.records import DiagTrace
from repro.nfv import (
    FiveTuple,
    InterruptInjector,
    InterruptSpec,
    Nat,
    Simulator,
    Topology,
    TrafficSource,
    Vpn,
    constant_target,
)
from repro.traffic import IpidSpace, PidAllocator, constant_rate_flow
from repro.util import MSEC, USEC, substream


def shm_segments():
    """Names of live POSIX shared-memory segments (Linux: /dev/shm)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


#: Tests that leave the process (worker pools, shared memory), as paths
#: relative to ``tests/``; the leak guard below applies to exactly these.
LEAK_GUARDED = (
    "core/test_shm_parallel.py",
    "core/test_diagnosis_timeout.py",
    "fleet/",
    "service/test_service.py",
)


@pytest.fixture(autouse=True)
def no_leaked_segments_or_workers(request):
    """A guarded test leaves ``/dev/shm`` as it found it and no child
    process alive — a pool, scoped or injected, unlinks its segments and
    reaps its workers on every exit path, timeouts and crashes included."""
    relative = Path(request.node.path).relative_to(Path(__file__).parent)
    if not relative.as_posix().startswith(LEAK_GUARDED):
        yield
        return
    segments = shm_segments()
    children = set(multiprocessing.active_children())
    yield
    assert shm_segments() == segments
    assert set(multiprocessing.active_children()) <= children


def make_chain_topology() -> Topology:
    """src-main -> nat1 -> vpn1 <- src-probe (exit after vpn1)."""
    topo = Topology()
    topo.add_nf(Nat("nat1", router=lambda p: "vpn1"))
    topo.add_nf(Vpn("vpn1", router=lambda p: None))
    topo.add_source("src-main")
    topo.add_source("src-probe")
    topo.connect("src-main", "nat1")
    topo.connect("nat1", "vpn1")
    topo.connect("src-probe", "vpn1")
    return topo


MAIN_FLOW = FiveTuple.of("10.1.0.1", "20.1.0.1", 1111, 80)
PROBE_FLOW = FiveTuple.of("50.0.0.1", "60.0.0.1", 5555, 443)


def run_interrupt_chain(
    seed: int = 0,
    main_rate: float = 1_000_000.0,
    probe_rate: float = 200_000.0,
    duration_ns: int = 5 * MSEC,
    interrupt_at: int = 500 * USEC,
    interrupt_ns: int = 800 * USEC,
    extra_hooks=(),
):
    """The quickstart scenario: NAT interrupt propagating to the VPN."""
    topo = make_chain_topology()
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "conftest"))
    main = constant_rate_flow(MAIN_FLOW, main_rate, duration_ns, pids, ipids)
    probe = constant_rate_flow(PROBE_FLOW, probe_rate, duration_ns, pids, ipids)
    return Simulator(
        topo,
        [
            TrafficSource("src-main", main, constant_target("nat1")),
            TrafficSource("src-probe", probe, constant_target("vpn1")),
        ],
        injectors=[
            InterruptInjector([InterruptSpec("nat1", interrupt_at, interrupt_ns)])
        ],
        extra_hooks=extra_hooks,
    ).run()


def run_recurring_stall_chain(
    seed: int = 0,
    duration_ns: int = 24 * MSEC,
    interrupt_every_ns: int = 3 * MSEC,
    interrupt_ns: int = 800 * USEC,
    main_rate: float = 1_000_000.0,
    probe_rate: float = 200_000.0,
    extra_hooks=(),
):
    """Long-running chain with recurring NAT stalls.

    The single-interrupt workload concentrates every victim in a handful
    of chunks; recurring stalls spread victims across the whole run — the
    regime streaming mode and the always-on service target.  Shared with
    ``benchmarks/record_bench.py`` (60 ms variant) so tests and benchmarks
    exercise the same generator.
    """
    topo = make_chain_topology()
    pids = PidAllocator()
    ipids = IpidSpace(substream(seed, "bench-periodic"))
    main = constant_rate_flow(MAIN_FLOW, main_rate, duration_ns, pids, ipids)
    probe = constant_rate_flow(PROBE_FLOW, probe_rate, duration_ns, pids, ipids)
    specs = [
        InterruptSpec("nat1", t, interrupt_ns)
        for t in range(500_000, duration_ns, interrupt_every_ns)
    ]
    return Simulator(
        topo,
        [
            TrafficSource("src-main", main, constant_target("nat1")),
            TrafficSource("src-probe", probe, constant_target("vpn1")),
        ],
        injectors=[InterruptInjector(specs)],
        extra_hooks=extra_hooks,
    ).run()


@pytest.fixture(scope="session")
def interrupt_chain_result():
    return run_interrupt_chain()


@pytest.fixture(scope="session")
def interrupt_chain_trace(interrupt_chain_result) -> DiagTrace:
    return DiagTrace.from_sim_result(interrupt_chain_result)


@pytest.fixture(scope="session")
def recurring_stall_trace() -> DiagTrace:
    """24 ms recurring-stall trace: ~9 chunks at the 3 ms service chunk."""
    return DiagTrace.from_sim_result(run_recurring_stall_chain())
