"""How fast is the host right now?  A yardstick run beside every measurement.

The reference host is a small guest on a shared machine whose speed
shifts by a third for minutes at a time (README, *Steadiness*): the same
code read 1,900 victims/s at seven o'clock and 1,420 at eight.  No
estimator inside one run can see through a level that outlasts the run,
so every run also times a fixed **yardstick** — a kernel that never
changes and never touches ``repro`` — in the gaps between its timed
passes, and reports its wall-clock results scaled to the speed the
yardstick had when the baseline was recorded:

    host_speed        = REFERENCE_PASS_S / mean yardstick pass in this run
    time at reference = measured time * host_speed
    rate at reference = measured rate / host_speed

A host running 30 % slow (``host_speed`` 0.77) stretches the program and
the yardstick alike; the quotient stays put.  Measured over blocks of
ten passes through a slow spell, that took the run-to-run scatter of an
in-process wire pipeline from 8.9 % to 3.5 % (max/min 1.41 to 1.15) and
of a serial replay service from 7.0 % to 4.3 % (1.40 to 1.17).  It is a
correction, not a cure: memory-bound stages slow more under a noisy
neighbour than the yardstick's mix does.

The yardstick is one third interpreter (dict and tuple churn), one third
JSON encode + decode, one third numpy sort / cumsum / searchsorted —
roughly what the layers under test are made of.  It runs with the
cyclic collector off, so its time does not depend on how many objects
the harness happens to hold.  Raw, unscaled numbers are printed next to
the scaled ones and recorded by ``--record``.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Dict, List, Optional

import numpy as np

#: One yardstick pass on the reference host when the README's baseline
#: table was measured.  Frozen: changing it (or the kernel) rescales every
#: wall-clock metric and needs a fresh baseline.
REFERENCE_PASS_S = 0.130

#: Units the host's speed scales: times are multiplied by it, rates
#: divided.
TIMES = ("s", "ms")
RATES = ("1/s",)

_JSON_DOC = [
    {
        "pid": i,
        "nf": f"nf{i % 16}",
        "culprits": [[i, 2 * i, i / 3.0, [i, i + 1, i + 2]] for _ in range(4)],
    }
    for i in range(3000)
]
_SORT_INPUT = np.random.default_rng(1).integers(0, 1 << 40, size=400_000)


def yardstick() -> int:
    """One pass of the fixed kernel (the return value only keeps the work
    from being optimised away)."""
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(120_000):
        item = (i, 3 * i, str(i & 255))
        table[i & 4095] = item
        total += table.get((7 * i) & 4095, item)[1]
    total += len(json.loads(json.dumps(_JSON_DOC)))
    ordered = np.sort(_SORT_INPUT)
    total += int(np.cumsum(ordered)[-1] & 0xFFFF)
    total += int(np.searchsorted(ordered, _SORT_INPUT[:100_000]).sum() & 0xFFFF)
    return total


class Meter:
    """Yardstick passes taken over one run, grouped by sampling point."""

    def __init__(self, passes_cap: Optional[int] = None) -> None:
        #: One list of pass durations per sampling point, in time order.
        self.points: List[List[float]] = []
        #: Most passes one sampling point takes (smoke runs: one).
        self.passes_cap = passes_cap

    def sample(self, passes: int) -> None:
        """Time ``passes`` yardstick passes now."""
        if self.passes_cap is not None:
            passes = min(passes, self.passes_cap)
        point: List[float] = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(passes):
                started = time.perf_counter()
                yardstick()
                point.append(time.perf_counter() - started)
        finally:
            if was_enabled:
                gc.enable()
        self.points.append(point)

    def sample_for(self, seconds: float, at_least: int = 2) -> None:
        """Passes worth about ``seconds`` at the reference speed."""
        self.sample(max(at_least, round(seconds / REFERENCE_PASS_S)))

    @property
    def speed(self) -> float:
        """1.0: as fast as when the baseline was recorded; below: slower."""
        passes = [duration for point in self.points for duration in point]
        if not passes:
            return 1.0
        return REFERENCE_PASS_S * len(passes) / sum(passes)


def at_reference_speed(
    values: Dict[str, float], units: Dict[str, str], speed: float
) -> Dict[str, float]:
    """``values`` as the reference host would have read them: times
    scaled by ``speed``, rates divided by it, everything else untouched."""
    scaled = {}
    for name, value in values.items():
        if units[name] in TIMES:
            value *= speed
        elif units[name] in RATES:
            value /= speed
        scaled[name] = value
    return scaled
