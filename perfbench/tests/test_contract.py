"""``BENCHMARK.json`` and the code must describe the same benchmark."""

import json
import re
from pathlib import Path

import pytest

from perfbench import history, metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_command_and_paths(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert contract["paths"] == ["perfbench"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60


def test_workloads_match_the_registry(contract):
    listed = {w["name"]: w["why"] for w in contract["workloads"]}
    assert listed == {w.name: w.why for w in WORKLOADS.values()}
    assert 2 <= len(listed) <= 8
    for name, why in listed.items():
        assert NAME.match(name)
        assert "\n" not in why and 0 < len(why) <= 200


def test_metrics_match_the_catalogue(contract):
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_catalogue_is_within_the_contract_limits():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    for metric in metrics.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = metrics.by_name()["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_fill_reports_every_metric_and_rejects_strangers():
    filled = metrics.fill({"net.pull_wait_s": 1.5}, metrics.PER_LAYER)
    assert list(filled) == [m.name for m in metrics.PER_LAYER]
    assert filled["net.pull_wait_s"] == 1.5 and filled["fleet.pool_tasks"] == 0.0
    with pytest.raises(KeyError):
        metrics.fill({"net.typo": 1.0}, metrics.PER_LAYER)


def test_history_refuses_hosts_with_different_cpu_counts():
    e2e = {m.name: 1.0 for m in metrics.END_TO_END}
    old = {"cpus": 2, "git_sha": "a" * 40, "workloads": {"w": {"end_to_end": e2e}}}
    new = {"cpus": 2, "git_sha": "b" * 40,
           "workloads": {"w": {"end_to_end": {**e2e, "records_per_s": 0.5}}}}
    text = history.compare(old, new)
    assert "records_per_s" in text and "REGRESSED" in text
    with pytest.raises(ValueError, match="not comparable"):
        history.compare(old, {**new, "cpus": 4})
