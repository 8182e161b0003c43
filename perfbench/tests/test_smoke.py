"""All four workloads end to end at ~1/20 size, through the real CLI.

Plumbing, not measurement: every pipeline runs in a child process, its
output is verified against its reference, and the result line obeys the
driver's contract in both modes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import OUT, metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout.strip().splitlines()


def check_result(line, catalogue):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for metric in catalogue:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke(name):
    lines = run_cli("--workload", name, "--seed", "5", "--seconds", "0",
                    "--trace", "1", "--smoke")
    values = check_result(lines[-1], metrics.PER_LAYER)
    assert 0.0 <= values["run.unattributed_share"] <= metrics.MAX_UNATTRIBUTED
    assert values["run.wall_s"] > 0 and values["core.victims"] > 0
    assert values["time.faults"] == 0 and values["service.retries"] == 0
    # Every metric is printed by name with its unit.
    text = "\n".join(lines)
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert f"  {metric.name} " in text

    trace = json.loads((OUT / f"{name}.trace.json").read_text())
    names, spans = trace["names"], trace["spans"]
    assert "run" in names and len(spans) > 5
    root = [s for s in spans if s[3] == -1]
    assert [names[s[0]] for s in root] == ["run"]
    for index, (_name, start, end, parent, request) in enumerate(spans):
        assert end >= start and -1 <= parent < index and request >= 0
        if parent >= 0:
            # A child lies inside its parent.
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_untraced_smoke_records_history(tmp_path):
    history = tmp_path / "history.jsonl"
    lines = run_cli("--workload", "wire-paced", "--seed", "5", "--seconds", "0",
                    "--trace", "0", "--smoke", "--record", str(history))
    values = check_result(lines[-1], metrics.END_TO_END)
    assert all(value > 0 for value in values.values()), values
    assert "output_digest=" in "\n".join(lines)
    (entry,) = [json.loads(line) for line in history.read_text().splitlines()]
    assert {"git_sha", "seed", "cpus", "python", "platform"} <= set(entry)
    assert entry["seed"] == 5
    assert entry["workloads"]["wire-paced"]["end_to_end"] == values
