"""``run.py`` starts a run that died over once — and only once."""

import pytest

from perfbench import run, workloads


class Stub:
    """A workload whose first ``deaths`` runs die like a killed child."""

    def __init__(self, deaths):
        self.deaths = deaths
        self.workdirs = []

    def run(self, seed, seconds, traced, workdir, smoke=False):
        assert workdir.is_dir() and not any(workdir.iterdir())  # fresh every time
        self.workdirs.append(workdir)
        (workdir / "left-behind").write_text("state of a dead attempt")
        if len(self.workdirs) <= self.deaths:
            raise RuntimeError("program under test exited (code -9)")
        return "outcome"


def test_a_run_that_died_is_started_over_once(monkeypatch, capsys):
    stub = Stub(deaths=1)
    monkeypatch.setitem(workloads.WORKLOADS, "stub", stub)
    assert run.run_one("stub", 2, 1.0, False, False) == "outcome"
    assert len(stub.workdirs) == 2
    assert not stub.workdirs[-1].exists()  # scratch is removed either way
    err = capsys.readouterr().err
    assert "exited (code -9)" in err and "starting it over" in err


def test_a_second_death_is_the_benchmarks(monkeypatch):
    stub = Stub(deaths=2)
    monkeypatch.setitem(workloads.WORKLOADS, "stub", stub)
    with pytest.raises(RuntimeError, match="exited"):
        run.run_one("stub", 2, 1.0, False, False)
    assert len(stub.workdirs) == run.ATTEMPTS
