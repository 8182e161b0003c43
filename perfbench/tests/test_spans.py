"""Span arithmetic and wrapper transparency."""

import json
import threading

import pytest

from perfbench.spans import SpanRecorder, unattributed_share
from repro.service import SimulatedCrash


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def record(recorder, clock, name, duration, children=()):
    index = recorder.open(name)
    for child in children:
        record(recorder, clock, *child)
    clock.now += duration
    recorder.close(index)


class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        # run(10 own) > [pump(5 own) > [pull(20), pull(30)], diagnose(40)]
        record(
            recorder, clock, "run", 10,
            children=[
                ("pump", 5, [("pull", 20), ("pull", 30)]),
                ("diagnose", 40),
            ],
        )
        own = recorder.self_time_by_name()
        assert own == {
            "run": pytest.approx(10e-9),
            "pump": pytest.approx(5e-9),
            "pull": pytest.approx(50e-9),
            "diagnose": pytest.approx(40e-9),
        }
        total = recorder.total_time_by_name()
        assert total["run"] == pytest.approx(105e-9)
        assert total["pump"] == pytest.approx(55e-9)
        # Self times partition the root's wall.
        assert sum(own.values()) == pytest.approx(total["run"])
        assert recorder.counts() == {"run": 1, "pump": 1, "pull": 2, "diagnose": 1}
        assert unattributed_share(recorder, "run") == pytest.approx(10 / 105)

    def test_parents_and_request_ids(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        recorder.request = 7
        record(recorder, clock, "run", 1, children=[("a", 1, [("b", 1)])])
        assert recorder.parents == [-1, 0, 1]
        assert recorder.requests == [7, 7, 7]

    def test_payload_round_trips_through_json(self, tmp_path):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        record(recorder, clock, "run", 3, children=[("x", 2)])
        path = tmp_path / "out" / "w.trace.json"
        recorder.write(path, {"note": "hi"})
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["name", "start_ns", "end_ns", "parent", "request"]
        names = payload["names"]
        rows = [(names[r[0]], r[1], r[2], r[3]) for r in payload["spans"]]
        assert rows == [("run", 0, 5, -1), ("x", 0, 2, 0)]
        assert payload["note"] == "hi"


class Layer:
    def __init__(self):
        self.calls = []

    def work(self, a, b=2):
        self.calls.append((a, b))
        return a * b

    def fail(self):
        raise KeyError("boom")

    def crash(self):
        raise SimulatedCrash("after-journal", 3)


class TestWrapperTransparency:
    def test_returns_identically(self):
        layer, recorder = Layer(), SpanRecorder()
        recorder.wrap(layer, "work", "layer.work")
        assert layer.work(3, b=4) == 12
        assert layer.work(5) == 10
        assert layer.calls == [(3, 4), (5, 2)]
        assert recorder.names == ["layer.work", "layer.work"]
        assert all(end >= start for start, end in zip(recorder.starts, recorder.ends))

    def test_raises_identically_and_closes_the_span(self):
        layer, recorder = Layer(), SpanRecorder()
        recorder.wrap(layer, "fail", "layer.fail")
        with pytest.raises(KeyError, match="boom"):
            layer.fail()
        assert recorder.ends[0] >= recorder.starts[0]
        assert recorder._stack == []

    def test_base_exceptions_pass_through(self):
        # SimulatedCrash is a BaseException on purpose: nothing between
        # the kill point and the process boundary may swallow it.
        assert not issubclass(SimulatedCrash, Exception)
        layer, recorder = Layer(), SpanRecorder()
        recorder.wrap(layer, "crash", "layer.crash")
        with recorder.span("run"):
            with pytest.raises(SimulatedCrash):
                layer.crash()
        assert recorder.names == ["run", "layer.crash"]
        assert -1 not in recorder.ends
        assert recorder._stack == []

    def test_after_hook_sees_span_result_and_arguments(self):
        layer, recorder = Layer(), SpanRecorder()
        seen = []
        recorder.wrap(
            layer, "work", "layer.work",
            after=lambda span, result, args, kwargs: seen.append(
                (recorder.names[span], result, args, kwargs)
            ),
        )
        layer.work(2, b=5)
        assert seen == [("layer.work", 10, (2,), {"b": 5})]

    def test_only_the_instance_is_wrapped_and_unwrap_restores(self):
        layer, other, recorder = Layer(), Layer(), SpanRecorder()
        recorder.wrap(layer, "work", "layer.work")
        other.work(1)
        assert recorder.names == []
        assert "work" in vars(layer)
        recorder.unwrap_all()
        assert "work" not in vars(layer)
        layer.work(1)
        assert recorder.names == []

    def test_other_threads_run_untraced(self):
        layer, recorder = Layer(), SpanRecorder()
        recorder.wrap(layer, "work", "layer.work")
        results = []
        thread = threading.Thread(target=lambda: results.append(layer.work(6, 7)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results == [42]
        assert recorder.names == []
