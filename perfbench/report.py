"""What a run prints: the human-readable table and the driver's line."""

from __future__ import annotations

import json

from perfbench import metrics
from perfbench.harness import Outcome


def _format(value: float) -> str:
    if abs(value) < 1e15 and value == int(value):  # inf and nan fall through
        return f"{int(value)}"
    return f"{value:.6g}"


def report(outcome: Outcome) -> str:
    """Every metric by name with its unit, plus what backs it."""
    catalogue = metrics.by_name()
    lines = [
        f"== {outcome.workload}  seed={outcome.seed}  "
        f"{'traced' if outcome.traced else 'untraced'} =="
    ]
    for key, value in sorted(outcome.info.items()):
        lines.append(f"  ({key} = {_format(float(value))})")
    lines.append(
        f"  -- end-to-end, at reference host speed "
        f"(host_speed = {outcome.host_speed:.4f}; as measured in brackets) --"
    )
    measured = metrics.fill(outcome.measured, metrics.END_TO_END)
    for name, value in metrics.fill(outcome.end_to_end, metrics.END_TO_END).items():
        lines.append(
            f"  {name:<40} {_format(value):>14} {catalogue[name].unit:<6}"
            f" [{_format(measured[name])}]"
        )
    if outcome.traced:
        lines.append("  -- per-layer, as measured --")
        for name, value in metrics.fill(outcome.per_layer, metrics.PER_LAYER).items():
            lines.append(f"  {name:<40} {_format(value):>14} {catalogue[name].unit}")
    lines.append(
        f"  attempted={outcome.attempted} failed={outcome.failed} "
        f"failed_share={outcome.failed / max(1, outcome.attempted):.6f} "
        f"output_digest={outcome.digest:08x}"
    )
    for mismatch in outcome.mismatches:
        lines.append(f"  MISMATCH: {mismatch}")
    for condition in outcome.invalid:
        lines.append(f"  INVALID: {condition}")
    lines.append(f"  verified: {'yes' if outcome.correct else 'NO'}")
    return "\n".join(lines)


def result_line(outcome: Outcome) -> str:
    """The driver's contract: the last line of stdout."""
    if outcome.traced:
        values = metrics.fill(outcome.per_layer, metrics.PER_LAYER)
    else:
        values = metrics.fill(outcome.end_to_end, metrics.END_TO_END)
    catalogue = metrics.by_name()
    return json.dumps(
        {
            "correct": outcome.correct and outcome.failed == 0,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": catalogue[name].unit}
                for name, value in values.items()
            },
        }
    )
