"""Host-stamped result lines: the start of a trajectory.

``--record PATH`` appends one JSON line per invocation carrying the git
SHA, seed, host facts and every metric of every run, so a later change
can grow ``BENCH_history.jsonl`` out of it.  Numbers from hosts with
different CPU counts are not comparable (the fleet workload's whole
point is how work spreads over cores), so :func:`compare` refuses them.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence

from perfbench import ROOT, metrics, stats


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_stamp() -> dict:
    return {
        "git_sha": _git_sha(),
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def entry(seed: int, outcomes: Sequence) -> dict:
    runs: Dict[str, dict] = {}
    for outcome in outcomes:
        run = runs.setdefault(outcome.workload, {})
        run["correct"] = run.get("correct", True) and outcome.correct
        run["output_digest"] = f"{outcome.digest:08x}"
        run.setdefault("invalid", []).extend(outcome.invalid)
        if outcome.traced:
            run["per_layer"] = metrics.fill(outcome.per_layer, metrics.PER_LAYER)
        else:
            run["attempted"] = outcome.attempted
            run["failed"] = outcome.failed
            run["end_to_end"] = metrics.fill(outcome.end_to_end, metrics.END_TO_END)
            run["measured"] = metrics.fill(outcome.measured, metrics.END_TO_END)
            run["host_speed"] = outcome.host_speed
            run["yardstick_s"] = outcome.yardstick_s
            run["walls_s"] = outcome.walls_s
    return {**host_stamp(), "seed": seed, "workloads": runs}


def append(path: Path, seed: int, outcomes: Sequence) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry(seed, outcomes), sort_keys=True) + "\n")


def compare(old: dict, new: dict) -> str:
    """End-to-end medians of ``new`` against ``old``, per workload, with
    each metric's bound; raises when the hosts are not comparable."""
    if old["cpus"] != new["cpus"]:
        raise ValueError(
            f"entries were recorded on hosts with {old['cpus']} and "
            f"{new['cpus']} CPUs: not comparable"
        )
    catalogue = metrics.by_name()
    lines: List[str] = [f"{old['git_sha'][:12]} -> {new['git_sha'][:12]}"]
    for name, run in sorted(new["workloads"].items()):
        before = old["workloads"].get(name, {}).get("end_to_end")
        after = run.get("end_to_end")
        if not before or not after:
            continue
        lines.append(f"{name}:")
        for metric, value in after.items():
            spec = catalogue[metric]
            worse = stats.worse_by(before[metric], value, spec.better)
            verdict = "REGRESSED" if worse > spec.bound else "ok"
            lines.append(
                f"  {metric:<26} {before[metric]:>12.6g} -> {value:>12.6g} "
                f"{spec.unit:<6} worse by {worse:+.1%} (bound {spec.bound:.0%}) {verdict}"
            )
    return "\n".join(lines)


def compare_last_two(path: Path) -> str:
    entries = [json.loads(line) for line in path.read_text().splitlines() if line]
    if len(entries) < 2:
        raise ValueError(f"{path} holds {len(entries)} entries; need two")
    return compare(entries[-2], entries[-1])
