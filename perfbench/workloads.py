"""The workload registry: name -> driver, frozen parameters, rationale.

``--seed`` is the only input knob.  Everything else that shapes a
workload — topology, rates, stall train, service configuration, event
span — is frozen here, next to the one line saying why the workload
exists.  README.md explains each choice at length, including where the
sizes differ from the issue's targets and why (the driver's total-time
cap).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict

from repro.util.timebase import MSEC, USEC

from perfbench import harness

#: The always-on service as a deployment would run it: every commit
#: fsynced, 1 ms chunks behind a 5 ms seal margin, absolute victim
#: threshold (live mode requires one), bounded tally, journal rotation and
#: compaction, ingest snapshots every 6 chunks.
LIVE_SERVICE = dict(
    chunk_ns=1 * MSEC,
    margin_ns=5 * MSEC,
    victim_threshold_ns=300 * USEC,
    durable=True,
    tally_budget=64,
    journal_rotate_bytes=64 * 1024,
    journal_compact_bytes=256 * 1024,
    ingest_checkpoint_every=6,
)

#: The recurring-stall train every chain workload shares.
STALLS = dict(stall_every_ns=3 * MSEC, stall_ns=800 * USEC)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what this workload stresses that the others do not.
    why: str
    driver: harness.Driver
    params: Dict[str, object] = field(default_factory=dict)
    #: Parameter overrides for the ~1/20-size smoke run.
    smoke: Dict[str, object] = field(default_factory=dict)

    def run(self, seed: int, seconds: float, traced: bool, workdir,
            smoke: bool = False) -> harness.Outcome:
        params = copy.deepcopy(self.params)
        if smoke:
            params.update(copy.deepcopy(self.smoke))
            params["smoke"] = True
        return self.driver(self.name, params, seed, seconds, traced, workdir)


WORKLOADS: Dict[str, Workload] = {}


def _register(workload: Workload) -> None:
    WORKLOADS[workload.name] = workload


_register(
    Workload(
        name="wire-saturate",
        why="closed loop at full packet rate: per-record net/ingest/clock "
            "cost and the per-chunk columns rebuild set records/s; "
            "diagnosis is idle",
        driver=harness.run_wire,
        params=dict(
            mode="saturate",
            poisson=True,
            main_pps=250_000.0,
            probe_pps=50_000.0,
            duration_ns=36 * MSEC,
            service=LIVE_SERVICE,
            **STALLS,
        ),
        smoke=dict(duration_ns=9 * MSEC),
    )
)

_register(
    Workload(
        name="wire-paced",
        why="open loop at ~45% of saturation: small batches, so per-chunk "
            "fixed costs and poll waits set verdict lag; batching that "
            "wins wire-saturate by waiting loses here",
        driver=harness.run_wire,
        params=dict(
            mode="paced",
            poisson=True,
            main_pps=100_000.0,
            probe_pps=20_000.0,
            duration_ns=108 * MSEC,
            # Calibrated once: ~45 % of what this same input sustains in
            # the closed loop on the reference host in its usual (slower)
            # state, ~10.2k records/s; rounded to 100 and frozen.
            offered_per_s=4_600,
            service=LIVE_SERVICE,
            # This commit's median lag; ``service.late_verdicts`` counts
            # verdicts more than 4x later.
            frozen_lag_p50_ms=23.0,
            **STALLS,
        ),
        smoke=dict(duration_ns=9 * MSEC),
    )
)

_register(
    Workload(
        name="offline-postmortem",
        why="the paper's product: collector load + IPID reconstruction, one "
            "cold columnar diagnosis over the 16-NF DAG, pattern "
            "aggregation; carries the accuracy gate",
        driver=harness.run_postmortem,
        params=dict(
            rate_pps=600_000.0,
            duration_ns=28 * MSEC,
            warmup_ns=10 * MSEC,
            horizon_ns=6 * MSEC,
            n_each=1,
            plan_ranges=dict(
                burst_packets=(700, 900),
                interrupt_us=(700, 800),
                bug_flow_packets=(90, 110),
            ),
            victim_pct=99.0,
            pattern_threshold=0.01,
            min_exact_share=0.999,
        ),
        smoke=dict(
            rate_pps=300_000.0,
            duration_ns=12 * MSEC,
            warmup_ns=3 * MSEC,
            horizon_ns=3 * MSEC,
        ),
    )
)

_register(
    Workload(
        name="replay-dense",
        why="dense victims through repro.fleet: diagnosis, journal encode "
            "and pooled dispatch dominate; no net/ingest/time; decides "
            "dispatch collapse and the workers=auto crossover",
        driver=harness.run_fleet,
        params=dict(
            main_pps=1_000_000.0,
            probe_pps=200_000.0,
            poisson=False,
            duration_ns=10 * MSEC,
            pipelines=2,
            pool_workers=2,
            fleet=dict(
                chunk_ns=3 * MSEC,
                margin_ns=10 * MSEC,
                victim_threshold_ns=400 * USEC,
                durable=True,
            ),
            **STALLS,
        ),
        smoke=dict(main_pps=400_000.0, probe_pps=80_000.0, duration_ns=5 * MSEC),
    )
)
