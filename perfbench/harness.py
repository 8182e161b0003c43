"""Parent-side drivers: generate, spawn the program under test, drive it,
verify, and turn what came back into named metrics.

One driver per pipeline shape (``wire``, ``postmortem``, ``fleet``); the
registry in :mod:`perfbench.workloads` binds each workload name to a
driver and its frozen parameters.  Every driver follows the same script:

1. generate inputs from the seed (timed: part of ``setup_s``);
2. persist what the child reads (timed: part of ``setup_s``);
3. start the child and wait until it has loaded — several times, median
   taken (the rest of ``setup_s``);
4. run timed iterations until ``--seconds`` of measuring is reached (a
   traced run is one untraced iteration, for the overhead base, plus one
   traced iteration);
5. verify outputs, untimed.

After every step and every iteration the parent times a few passes of a
fixed yardstick kernel (:mod:`perfbench.hostspeed`); the run's wall-clock
results are reported scaled to the reference host's speed, next to the
numbers as measured.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.collector import save_collected
from repro.core import DiagTrace

from perfbench import OUT, ROOT, SRC, hostspeed, inputs, loadgen, probes, stats, verify
from perfbench.metrics import END_TO_END, MAX_UNATTRIBUTED

T = TypeVar("T")

#: ``setup_s`` sums the medians of its steps: the inputs are generated up
#: to this many times per run ...
GENERATE_REPEATS = 3
#: ... but only while that takes less than this in total (the Fig. 10
#: simulation alone takes longer) ...
GENERATE_BUDGET_S = 3.5
#: ... and the child is started this many times (the noisiest step: a
#: process spawn plus the import of ``repro`` and numpy).
CHILD_STARTS = 3
#: A further iteration starts only while it is expected to end within
#: this multiple of ``--seconds``.
OVERRUN = 1.25
#: Yardstick passes before each set-up step ...
SETUP_PASSES = 1
#: ... before the first timed iteration (the open loop sets its pace by
#: what the yardstick has read up to then) ...
FIRST_PASSES = 6
#: ... and after each timed iteration, this share of the iteration's wall
#: (the host's speed wanders within seconds, so the yardstick has to be
#: spread over the run as finely as the iterations allow).
YARDSTICK_SHARE = 0.18


@dataclass
class Outcome:
    """Everything one benchmark run established."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: Wall-clock metrics scaled to the reference host's speed ...
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: ... the same metrics exactly as measured ...
    measured: Dict[str, float] = field(default_factory=dict)
    #: ... and the speed the yardstick read during this run (1.0 = reference),
    #: with the pass durations behind it, one list per sampling point.
    host_speed: float = 1.0
    yardstick_s: List[List[float]] = field(default_factory=list)
    #: Wall of every timed iteration, in order (the rates use their mean).
    walls_s: List[float] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Output digest: must repeat exactly for a given seed.
    digest: int = 0
    #: Sample counts and sizes for the human-readable report.
    info: Dict[str, object] = field(default_factory=dict)
    #: Verification failures.  Any entry makes the run incorrect.
    mismatches: List[str] = field(default_factory=list)
    #: Measurement conditions that did not hold (the open loop was late,
    #: the offered rate was not sustained).  The outputs are still right,
    #: so the run stays a sample — on a shared host one noisy second
    #: would otherwise fail a run in thirty — but it is flagged wherever
    #: it is reported.
    invalid: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.mismatches


class Child:
    """The program under test as a JSON-lines subprocess."""

    def __init__(self, job: dict, workdir: Path) -> None:
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
        env["PYTHONHASHSEED"] = "0"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.sut", str(job_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
        )
        self._partial = b""
        self._events: List[dict] = []
        self.expect("ready")
        self.load_s = time.perf_counter() - started

    def send(self, op: str, **fields) -> None:
        self.proc.stdin.write((json.dumps({"op": op, **fields}) + "\n").encode())
        self.proc.stdin.flush()

    def _read(self, wait_s: float) -> None:
        """Move whatever the child wrote within ``wait_s`` into the
        event queue (raw reads: a buffered reader would hide data from
        ``select``)."""
        stdout = self.proc.stdout
        ready, _, _ = select.select([stdout], [], [], wait_s)
        if not ready:
            return
        data = os.read(stdout.fileno(), 65536)
        if not data:
            raise RuntimeError(
                f"program under test exited (code {self.proc.wait()}) "
                "while the harness was waiting for it"
            )
        *lines, self._partial = (self._partial + data).split(b"\n")
        for line in lines:
            try:
                message = json.loads(line)
            except ValueError:
                continue  # stray print from the program: not protocol
            if isinstance(message, dict) and "event" in message:
                self._events.append(message)

    def poll(self, wait_s: float = 0.0) -> List[dict]:
        """Events that arrived, waiting at most ``wait_s`` for the first."""
        if not self._events:
            self._read(wait_s)
        events, self._events = self._events, []
        return events

    def expect(self, event: str) -> dict:
        """The next ``event``; earlier events of other kinds are dropped."""
        while True:
            while self._events:
                message = self._events.pop(0)
                if message["event"] == event:
                    return message
            self._read(1.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("exit")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def _meter(p: dict) -> hostspeed.Meter:
    """The run's yardstick; smoke runs take one pass per sampling point."""
    return hostspeed.Meter(passes_cap=1 if p.get("smoke") else None)


def generate(
    build: Callable[[], T], p: dict, meter: hostspeed.Meter
) -> Tuple[T, float]:
    """Build the seeded inputs (the same every time); repeat while that
    is cheap and report the median duration.  Smoke runs set up once."""
    repeats = 1 if p.get("smoke") else GENERATE_REPEATS
    times: List[float] = []
    while True:
        meter.sample(SETUP_PASSES)
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
        if len(times) >= repeats or sum(times) + times[-1] > GENERATE_BUDGET_S:
            return built, statistics.median(times)


def start_child(
    job: dict, workdir: Path, p: dict, meter: hostspeed.Meter
) -> Tuple[Child, float]:
    """Start the child several times; keep the last, report the median
    time from spawn to loaded-and-ready.  Smoke runs start it once."""
    loads: List[float] = []
    child: Optional[Child] = None
    for _ in range(1 if p.get("smoke") else CHILD_STARTS):
        if child is not None:
            child.close()
        meter.sample(SETUP_PASSES)
        child = Child(job, workdir)
        loads.append(child.load_s)
    return child, statistics.median(loads)


def _more(elapsed: List[float], seconds: float) -> bool:
    if not elapsed:
        return True
    return sum(elapsed) + statistics.mean(elapsed) <= OVERRUN * seconds


def _plan(seconds: float, traced: bool, meter: hostspeed.Meter):
    """Yield ``traced?`` per iteration — by time untraced, else [off, on]
    — and take the yardstick before the first and after each."""
    meter.sample(FIRST_PASSES)
    elapsed: List[float] = []
    while len(elapsed) < 2 if traced else _more(elapsed, seconds):
        started = time.perf_counter()
        yield traced and len(elapsed) == 1
        elapsed.append(time.perf_counter() - started)
        meter.sample_for(YARDSTICK_SHARE * elapsed[-1])


def _report(out: Outcome, measured: Dict[str, float], meter: hostspeed.Meter,
            pace: Optional[float] = None) -> None:
    """File the end-to-end metrics: as measured, and scaled to the
    reference host's speed.  ``pace`` is the host speed an open loop's
    schedule ran at: its rates are what that schedule delivered, so they
    are scaled by ``pace`` and not by what the yardstick read afterwards
    (in reference seconds the delivered rate is then the offered one,
    exactly as on the wall clock)."""
    out.host_speed = meter.speed
    out.yardstick_s = meter.points
    out.measured = measured
    units = {m.name: m.unit for m in END_TO_END}
    out.end_to_end = hostspeed.at_reference_speed(measured, units, out.host_speed)
    if pace is not None:
        rates = {n: v for n, v in measured.items() if units[n] in hostspeed.RATES}
        out.end_to_end.update(hostspeed.at_reference_speed(rates, units, pace))


def _mean_wall(walls: Sequence[float]) -> float:
    """What one iteration took: all the work over all the time it took.
    The mean, like the yardstick's: whatever slowed an iteration down most
    likely slowed the yardstick passes next to it too, so the quotient is
    steadier than a median's (which, with the two or three iterations
    ``offline-postmortem`` gets, would also throw half the run away)."""
    return statistics.fmean(walls)


def _trace_path(name: str, traced: bool) -> Optional[str]:
    return str(OUT / f"{name}.trace.json") if traced else None


def _lag_metrics(
    lags: Sequence[float], frozen_p50_ms: Optional[float] = None
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end lag percentiles and the per-layer facts behind them.

    ``frozen_p50_ms`` is the open-loop workload's recorded median; only
    there does "later than 4x the usual" mean anything.
    """
    e2e = {"verdict_lag_ms_p50": stats.percentile(lags, 50.0)}
    layer = {
        # p90 where ten samples lie beyond it, else what the sample supports.
        "service.verdict_lag_ms_p90": stats.percentile(
            lags, stats.supported(len(lags), 90.0)
        ),
        "service.verdict_lag_samples": len(lags),
        "service.late_verdicts": 0
        if frozen_p50_ms is None
        else sum(1 for lag in lags if lag > 4 * frozen_p50_ms),
        "service.lag_drift_ratio": stats.drift_ratio(lags),
    }
    return e2e, layer


# -- wire ------------------------------------------------------------------------


def _sealing_positions(records: Sequence, streams: Sequence[str], service: dict) -> List[int]:
    """Send-order position of the record that seals each chunk."""
    times: Dict[str, List[int]] = {s: [] for s in streams}
    positions: Dict[str, List[int]] = {s: [] for s in streams}
    for position, record in enumerate(records):
        times[record.stream].append(record.time_ns)
        positions[record.stream].append(position)
    return stats.seal_barriers(
        times, positions, service["chunk_ns"], service["margin_ns"]
    )


def _wire_iteration(child: Child, p: dict, seed: int, records: Sequence,
                    streams: Sequence[str], sealing: Sequence[int],
                    state_dir: Path, with_spans: bool, host_speed: float) -> dict:
    """One pass of the records through a fresh server + service.

    The open loop's schedule is written in reference-host seconds: on a
    host the yardstick has so far read at ``host_speed`` it offers
    ``offered_per_s * host_speed`` records per wall-clock second.  At a
    rate fixed on the wall clock a host running a fifth slow runs a fifth
    closer to saturation, and lag grows faster than the host slowed
    (medians of 26 to 46 ms within ten runs of one commit); this way the
    utilisation under test is the same in every run.
    """
    child.send("serve", state_dir=str(state_dir), traced=with_spans)
    address = child.expect("listening")["address"]
    if p["mode"] == "paced":
        log = loadgen.paced(
            address, streams, records, seed, p["offered_per_s"] * host_speed
        )
    else:
        newest = -1

        def newest_verdict(wait_s: float) -> int:
            nonlocal newest
            for message in child.poll(wait_s):
                if message["event"] == "verdict":
                    newest = max(newest, message["chunk"])
            return newest

        log = loadgen.saturate(address, streams, records, seed, sealing, newest_verdict)
    done = child.expect("done")
    verdict_ns = {int(k): v for k, v in done["verdict_ns"].items()}
    if p["mode"] == "paced":
        # Open loop: rate over the part of the run the schedule drives —
        # up to the verdict of the last chunk a record (not end-of-stream)
        # sealed — with counts prorated to it.  The EOS drain after the
        # last send is not offered load.
        last = max(k for k in range(len(sealing)) if k in verdict_ns)
        end_ns, covered = verdict_ns[last], (sealing[last] + 1) / len(records)
    else:
        end_ns, covered = max(verdict_ns.values()), 1.0
    run = {
        "log": log,
        "done": done,
        "pace": host_speed,
        "wall_s": (end_ns - log.first_send_ns) / 1e9 / covered,
        "lags": stats.due_time_lags_ms(verdict_ns, log.due_ns or log.sent_ns, sealing),
        "journal": (state_dir / "journal.bin").read_bytes(),
    }
    shutil.rmtree(state_dir, ignore_errors=True)
    return run


def _paced_validity(out: Outcome, offered: float, runs: Sequence[dict],
                    lag_layer: dict) -> None:
    """An open-loop number only counts if the loop really was open and the
    offered rate really was sustained."""
    delivered = out.measured["records_per_s"]
    if abs(delivered / offered - 1.0) > 0.02:
        out.invalid.append(
            f"delivered {delivered:.0f} rec/s is not the offered "
            f"{offered:.0f} rec/s: the rate is not sustained"
        )
    samples = lag_layer["service.verdict_lag_samples"]
    if samples < 100 * len(runs):
        out.invalid.append(f"only {samples} lag samples (need 100 per pass)")
    if lag_layer["service.lag_drift_ratio"] > 2.0:
        out.invalid.append(
            f"lag drifted {lag_layer['service.lag_drift_ratio']:.2f}x over "
            "the run: backlog grew, the offered rate is not sustainable"
        )
    late = [ms for run in runs for ms in run["log"].lateness_ms()]
    if stats.percentile(late, 90.0) > 5.0:
        out.invalid.append(
            "the load generator ran more than 5 ms late at p90: the lag "
            "measured is the generator's, not the program's"
        )


def run_wire(name: str, p: dict, seed: int, seconds: float, traced: bool,
             workdir: Path) -> Outcome:
    out = Outcome(workload=name, seed=seed, traced=traced)
    meter = _meter(p)
    chain, generate_s = generate(
        lambda: inputs.stall_chain(
            seed, p["main_pps"], p["probe_pps"], p["duration_ns"],
            p["stall_every_ns"], p["stall_ns"], p["poisson"],
        ),
        p,
        meter,
    )
    records = chain.records
    streams = sorted({r.stream for r in records})
    service = p["service"]
    sealing = _sealing_positions(records, streams, service)
    child, load_s = start_child(
        {
            "kind": "wire",
            "streams": streams,
            "service": service,
            "trace_path": _trace_path(name, traced),
        },
        workdir,
        p,
        meter,
    )
    try:
        runs = [
            _wire_iteration(child, p, seed, records, streams, sealing,
                            workdir / f"iter-{index}", with_spans, meter.speed)
            for index, with_spans in enumerate(_plan(seconds, traced, meter))
        ]
    finally:
        child.close()

    reference = verify.wire_reference(
        records, chain.problems, service, workdir / "reference"
    )
    pushed = len(records)
    for index, run in enumerate(runs):
        if run["journal"] != reference.journal:
            out.mismatches.append(
                f"iteration {index}: journal differs from the in-process "
                f"reference ({len(run['journal'])} vs {len(reference.journal)} bytes)"
            )
        out.attempted += pushed
        out.failed += pushed - run["done"]["stats"]["ingest_records_applied"]
    if reference.records_applied != pushed:
        out.mismatches.append(
            f"reference applied {reference.records_applied} of {pushed} records"
        )
    _accuracy_gate(out, p, reference.score.accuracy)
    out.digest = zlib.crc32(reference.journal)

    measured = [run for run in runs if "layers" not in run["done"]]
    walls = out.walls_s = [run["wall_s"] for run in measured]
    wall_s = _mean_wall(walls)
    lags = [lag for run in measured for lag in run["lags"]]
    lag_e2e, lag_layer = _lag_metrics(lags, p.get("frozen_lag_p50_ms"))
    pace = None
    if p["mode"] == "paced":
        # The host speed the schedule ran at, over all its passes (each
        # pass offers the same records, so their times add).
        pace = len(measured) / sum(1.0 / run["pace"] for run in measured)
    _report(
        out,
        {
            "setup_s": generate_s + load_s,
            "records_per_s": pushed / wall_s,
            "packet_hops_per_s": reference.packet_hops / wall_s,
            "victims_per_s": reference.victims / wall_s,
            "culprit_top1_accuracy": reference.score.accuracy,
            "peak_rss_mb": runs[-1]["done"]["peak_rss_mb"],
            **lag_e2e,
        },
        meter,
        pace,
    )
    out.info = {
        "records": pushed,
        "chunks": runs[-1]["done"]["n_chunks"],
        "victims": reference.victims,
        "iterations": len(measured),
        "lag_samples": len(lags),
        "accuracy_scored": reference.score.scored,
        "generate_s": generate_s,
        "child_load_s": load_s,
    }
    if p["mode"] == "paced" and not p.get("smoke"):
        _paced_validity(out, p["offered_per_s"] * pace, measured, lag_layer)

    if traced:
        spans_run = runs[-1]
        sender = spans_run["log"].sender_stats
        late = spans_run["log"].lateness_ms() or [0.0]
        _, traced_lag_layer = _lag_metrics(
            spans_run["lags"], p.get("frozen_lag_p50_ms")
        )
        out.per_layer = {
            **spans_run["done"]["layers"],
            **traced_lag_layer,
            "generator.late_ms_p50": stats.percentile(late, 50.0),
            "generator.late_ms_p90": stats.percentile(late, 90.0),
            "generator.records_offered": pushed,
            "net.frames_sent": sender["frames_sent"],
            "net.records_resent": sender["records_resent"],
            "net.acks_received": sender["acks_received"],
            "net.reconnects": sender["reconnects"],
            **probes.codec(records),
            **probes.clock(records, service["chunk_ns"], service["margin_ns"]),
            "run.trace_overhead_share": spans_run["wall_s"] / walls[0] - 1.0,
            "run.host_speed": out.host_speed,
            "run.cpus": os.cpu_count() or 1,
        }
        _check_attribution(out)
    return out


def _accuracy_gate(out: Outcome, p: dict, accuracy: float) -> None:
    """Below the gate the run is wrong, not slow (smoke inputs are too
    small to score)."""
    if not p.get("smoke") and accuracy < verify.MIN_TOP1_ACCURACY:
        out.mismatches.append(
            f"culprit_top1_accuracy {accuracy:.3f} is below "
            f"{verify.MIN_TOP1_ACCURACY}"
        )


def _check_attribution(out: Outcome) -> None:
    share = out.per_layer.get("run.unattributed_share", 0.0)
    if share > MAX_UNATTRIBUTED:
        out.mismatches.append(
            f"spans leave {share:.1%} of the traced wall unattributed "
            f"(limit {MAX_UNATTRIBUTED:.0%})"
        )


# -- post-mortem -----------------------------------------------------------------


def run_postmortem(name: str, p: dict, seed: int, seconds: float, traced: bool,
                   workdir: Path) -> Outcome:
    out = Outcome(workload=name, seed=seed, traced=traced)
    meter = _meter(p)
    run, generate_s = generate(
        lambda: inputs.fig10_postmortem(
            seed,
            rate_pps=p["rate_pps"],
            duration_ns=p["duration_ns"],
            warmup_ns=p["warmup_ns"],
            horizon_ns=p["horizon_ns"],
            n_each=p["n_each"],
            plan_ranges=p["plan_ranges"],
        ),
        p,
        meter,
    )

    started = time.perf_counter()
    directory = workdir / "collected"
    save_collected(run.collector.data, directory)
    facts_path = workdir / "facts.pkl"
    facts_path.write_bytes(pickle.dumps(run.facts))
    persist_s = time.perf_counter() - started
    problems_path = workdir / "problems.pkl"
    problems_path.write_bytes(pickle.dumps(run.problems))

    data = run.collector.data
    collector_records = (
        sum(run.collector.record_counts().values())
        + sum(len(v) for v in data.sources.values())
        + len(data.exits)
    )
    child, load_s = start_child(
        {
            "kind": "postmortem",
            "directory": str(directory),
            "facts": str(facts_path),
            "victim_pct": p["victim_pct"],
            "pattern_threshold": p["pattern_threshold"],
            "trace_path": _trace_path(name, traced),
        },
        workdir,
        p,
        meter,
    )
    runs: List[dict] = []
    journeys_path = workdir / "journeys.pkl"
    try:
        for with_spans in _plan(seconds, traced, meter):
            child.send("run", traced=with_spans)
            runs.append(child.expect("done"))
        child.send("judge", journeys=str(journeys_path), problems=str(problems_path))
        judged = child.expect("judged")
    finally:
        child.close()

    with open(journeys_path, "rb") as handle:
        rebuilt = pickle.load(handle)
    exact = verify.exact_share(run.truth, rebuilt)
    if exact < p["min_exact_share"]:
        out.mismatches.append(
            f"reconstruction reproduced {exact:.5f} of ground-truth journeys "
            f"(need {p['min_exact_share']})"
        )
    _accuracy_gate(out, p, judged["accuracy"])
    first = runs[0]
    for index, done in enumerate(runs[1:], start=1):
        for key in ("packets", "packet_hops", "victims", "relations", "patterns"):
            if done[key] != first[key]:
                out.mismatches.append(
                    f"iteration {index}: {key} {done[key]} != {first[key]}"
                )
    out.digest = judged["digest"]
    measured = [r for r in runs if "layers" not in r]
    for done in measured:
        out.attempted += done["victims"]
        out.failed += done["victims"] - done["diagnosed"]
    walls = out.walls_s = [r["wall_s"] for r in measured]
    wall_s = _mean_wall(walls)
    lags = [w * 1e3 for w in walls]
    lag_e2e, lag_layer = _lag_metrics(lags)
    _report(
        out,
        {
            "setup_s": generate_s + persist_s + load_s,
            "records_per_s": collector_records / wall_s,
            "packet_hops_per_s": first["packet_hops"] / wall_s,
            "victims_per_s": first["diagnosed"] / wall_s,
            "culprit_top1_accuracy": judged["accuracy"],
            "peak_rss_mb": runs[-1]["peak_rss_mb"],
            **lag_e2e,
        },
        meter,
    )
    out.info = {
        "packets": first["packets"],
        "packet_hops": first["packet_hops"],
        "collector_records": collector_records,
        "victims": first["victims"],
        "relations": first["relations"],
        "patterns": first["patterns"],
        "iterations": len(measured),
        "lag_samples": len(lags),
        "accuracy_scored": judged["scored"],
        "reconstruct_exact_share": exact,
        "generate_s": generate_s,
        "persist_s": persist_s,
        "child_load_s": load_s,
    }
    if traced:
        spans_run = runs[-1]
        out.per_layer = {
            **spans_run["layers"],
            **lag_layer,
            "collector.records": collector_records,
            "collector.reconstruct_exact_share": exact,
            "run.trace_overhead_share": spans_run["wall_s"] / walls[0] - 1.0,
            "run.host_speed": out.host_speed,
            "run.cpus": os.cpu_count() or 1,
        }
        _check_attribution(out)
    return out


# -- fleet -----------------------------------------------------------------------


def run_fleet(name: str, p: dict, seed: int, seconds: float, traced: bool,
              workdir: Path) -> Outcome:
    out = Outcome(workload=name, seed=seed, traced=traced)
    meter = _meter(p)

    def build():
        chain = inputs.stall_chain(
            seed, p["main_pps"], p["probe_pps"], p["duration_ns"],
            p["stall_every_ns"], p["stall_ns"], p["poisson"],
        )
        return chain, DiagTrace.from_sim_result(chain.result)

    (chain, trace), generate_s = generate(build, p, meter)

    started = time.perf_counter()
    trace_path = workdir / "trace.pkl"
    trace_path.write_bytes(pickle.dumps(trace))
    persist_s = time.perf_counter() - started
    problems_path = workdir / "problems.pkl"
    problems_path.write_bytes(pickle.dumps(chain.problems))
    packet_hops = sum(len(packet.hops) for packet in trace.packets.values())
    n_records = len(chain.records)
    pipelines = p["pipelines"]

    child, load_s = start_child(
        {
            "kind": "fleet",
            "trace": str(trace_path),
            "fleet": p["fleet"],
            "pipelines": pipelines,
            "pool_workers": p["pool_workers"],
            "trace_path": _trace_path(name, traced),
        },
        workdir,
        p,
        meter,
    )
    fleets: List[dict] = []
    serials: List[dict] = []
    try:
        # The standalone serial service first: its journal is what every
        # fleet pipeline must reproduce, so each fleet journal can be
        # compared as it is read instead of being kept.  A traced run
        # needs it twice (untraced as the overhead base, traced for the
        # spans) and one fleet pass for the fleet counters.
        for index, with_spans in enumerate([False, True] if traced else [False]):
            state_dir = workdir / f"serial-{index}"
            child.send("serial", state_dir=str(state_dir), traced=with_spans)
            done = child.expect("done")
            journal = Path(done["journal"]).read_bytes()
            if index == 0:
                reference = journal
            elif journal != reference:
                out.mismatches.append("traced serial journal differs from untraced")
            serials.append(done)
            shutil.rmtree(state_dir, ignore_errors=True)
        # Score now: the child drops the serial report afterwards, so the
        # fleet passes' memory is the fleet's.
        child.send("judge", problems=str(problems_path))
        judged = child.expect("judged")
        # (A traced run makes one fleet pass: a plan of zero seconds.)
        for index, _ in enumerate(_plan(0.0 if traced else seconds, False, meter)):
            state_dir = workdir / f"fleet-{index}"
            child.send("fleet", state_dir=str(state_dir))
            done = child.expect("done")
            for site, info in sorted(done["pipelines"].items()):
                journal = Path(info["journal"]).read_bytes()
                if journal != reference:
                    out.mismatches.append(
                        f"fleet pass {index}: pipeline {site} journal differs "
                        f"from the standalone serial service "
                        f"({len(journal)} vs {len(reference)} bytes)"
                    )
            fleets.append(done)
            shutil.rmtree(state_dir, ignore_errors=True)
    finally:
        child.close()

    _accuracy_gate(out, p, judged["accuracy"])
    out.digest = zlib.crc32(reference)
    per_pipeline = serials[0]["victims_diagnosed"]
    for done in fleets:
        for info in done["pipelines"].values():
            # Shed victims and victims of dead-lettered chunks are the
            # ones the standalone service diagnosed and this pipeline did not.
            out.attempted += per_pipeline
            out.failed += per_pipeline - info["victims_diagnosed"]
    walls = out.walls_s = [done["wall_s"] for done in fleets]
    # Batch arrival: the whole trace is there at t0, so each pipeline's
    # verdicts are complete when its journal is (one sample per pipeline).
    lags = [
        info["finished_ms"] for done in fleets for info in done["pipelines"].values()
    ]
    lag_e2e, lag_layer = _lag_metrics(lags)
    wall_s = _mean_wall(walls)
    fleet_vps = pipelines * per_pipeline / wall_s
    serial_vps = per_pipeline / serials[0]["wall_s"]
    _report(
        out,
        {
            "setup_s": generate_s + persist_s + load_s,
            "records_per_s": pipelines * n_records / wall_s,
            "packet_hops_per_s": pipelines * packet_hops / wall_s,
            "victims_per_s": fleet_vps,
            "culprit_top1_accuracy": judged["accuracy"],
            "peak_rss_mb": fleets[-1]["peak_rss_mb"],
            **lag_e2e,
        },
        meter,
    )
    out.info = {
        "pipelines": pipelines,
        "victims_per_pipeline": per_pipeline,
        "chunks": serials[0]["n_chunks"],
        "packet_hops": packet_hops,
        "iterations": len(fleets),
        "lag_samples": len(lags),
        "accuracy_scored": judged["scored"],
        "serial_victims_per_s": serial_vps,
        "speedup_vs_serial": fleet_vps / serial_vps,
        "cpus": os.cpu_count() or 1,
        "generate_s": generate_s,
        "persist_s": persist_s,
        "child_load_s": load_s,
    }
    if traced:
        done = fleets[-1]
        finished = sorted(info["finished_ms"] for info in done["pipelines"].values())
        out.per_layer = {
            **serials[-1]["layers"],
            **lag_layer,
            "fleet.pool_tasks": done["pool"]["tasks"],
            "fleet.trace_shares": done["pool"]["trace_shares"],
            "fleet.trace_reuses": done["pool"]["trace_reuses"],
            "fleet.respawns": done["pool"]["respawns"],
            "fleet.worker_failures": sum(
                info["worker_failures"] for info in done["pipelines"].values()
            ),
            "fleet.worker_timeouts": sum(
                info["worker_timeouts"] for info in done["pipelines"].values()
            ),
            "fleet.scheduler_waited": done["scheduler"]["waited"],
            "fleet.peak_inflight": done["scheduler"]["peak_inflight"],
            "fleet.pipeline_wall_skew": (finished[-1] - finished[0])
            / 1e3 / done["wall_s"],
            "fleet.serial_baseline_victims_per_s": serial_vps,
            "fleet.speedup_vs_serial": fleet_vps / serial_vps,
            "run.trace_overhead_share": serials[-1]["wall_s"] / serials[0]["wall_s"]
            - 1.0,
            "run.host_speed": out.host_speed,
            "run.cpus": os.cpu_count() or 1,
        }
        _check_attribution(out)
    return out


Driver = Callable[[str, dict, int, float, bool, Path], Outcome]
