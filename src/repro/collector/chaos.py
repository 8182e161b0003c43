"""Telemetry fault injection: the collector-side twin of ``repro.nfv.faults``.

``repro.nfv.faults`` breaks the *data plane* (interrupts, buggy NFs) to
create ground-truth performance problems; this module breaks the
*telemetry plane* to test how diagnosis behaves when collectors misbehave.
Faults are applied to an in-memory :class:`~repro.collector.runtime.
CollectedData` after collection, exactly where a lossy shared-memory ring,
a crashed dumper, or a skewed server clock would corrupt real records:

* **record drops** — individual per-packet records vanish from RX/TX
  batches (per-NF loss rates; the headline knob of the chaos soak),
* **batch truncation** — a batch's tail is cut (partial ring read),
* **duplication** — a whole batch is delivered twice (dumper retry),
* **reordering** — adjacent batches swap timestamps, breaking the
  time-sorted invariant every decoder and matcher assumes,
* **garbage** — IPIDs are replaced with random bytes (memory corruption),
* **clock drift** — an *unmodelled* per-NF linear drift, unlike the
  constant offsets :mod:`repro.collector.clock` knows how to recover,
* **clock schedules** — arbitrary per-NF clock trajectories (NTP steps
  backward or forward, frozen clocks, drift ramps) expressed as
  :class:`~repro.time.chaos.ClockSchedule`, the same pure warp the live
  ingestion chaos uses, so batch-mode and live-mode clock soaks share
  one fault vocabulary.

Everything is driven by seeded substreams (per NF, per fault class), so a
chaos run is exactly reproducible and adding a fault class never perturbs
the draws of another.  ``inject_chaos`` is pure: the input data is not
mutated and the returned :class:`ChaosReport` states precisely what was
injected, so soak tests can correlate injected damage with diagnosis
degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Tuple

from repro.collector.runtime import (
    BatchRecord,
    CollectedData,
    ExitRecord,
    NFRecords,
    SourceRecord,
)
from repro.errors import ConfigurationError
from repro.time.chaos import ClockSchedule
from repro.util.rng import substream

_MAX_IPID = 65_535


@dataclass(frozen=True)
class ChaosConfig:
    """What to break, and how hard.

    Rates are probabilities in [0, 1]: ``drop_rate`` per record,
    ``truncate_rate``/``duplicate_rate``/``reorder_rate`` per batch,
    ``garbage_rate`` per record.  ``drop_rates`` overrides the global drop
    rate for named NFs (a single flaky collector).  ``drift_ppm`` applies
    an unmodelled linear clock drift to named NFs: a record at true time
    ``t`` is stamped ``t + t * ppm / 1e6``.  ``clock_schedules`` warps
    named NFs' batch timestamps through an arbitrary
    :class:`~repro.time.chaos.ClockSchedule` (NTP step, freeze, ramp) —
    applied after ``drift_ppm``, so both can compose.  An exit NF's exit
    records share its clock faults: they are stamped from the same clock
    read as the TX batch they leave in.  ``seed`` fixes every draw.
    """

    drop_rate: float = 0.0
    drop_rates: Mapping[str, float] = field(default_factory=dict)
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    garbage_rate: float = 0.0
    drift_ppm: Mapping[str, float] = field(default_factory=dict)
    clock_schedules: Mapping[str, ClockSchedule] = field(default_factory=dict)
    #: Also drop source emission logs and exit records at ``drop_rate``
    #: (the generator's log and the exit NF's five-tuple records are
    #: telemetry too).
    affect_edges: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        rates = {
            "drop_rate": self.drop_rate,
            "truncate_rate": self.truncate_rate,
            "duplicate_rate": self.duplicate_rate,
            "reorder_rate": self.reorder_rate,
            "garbage_rate": self.garbage_rate,
            **{f"drop_rates[{nf}]": r for nf, r in self.drop_rates.items()},
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")

    def nf_drop_rate(self, nf: str) -> float:
        return self.drop_rates.get(nf, self.drop_rate)

    @property
    def active(self) -> bool:
        return bool(
            self.drop_rate
            or self.drop_rates
            or self.truncate_rate
            or self.duplicate_rate
            or self.reorder_rate
            or self.garbage_rate
            or self.drift_ppm
            or self.clock_schedules
        )


@dataclass
class ChaosReport:
    """Exactly what ``inject_chaos`` did, per NF."""

    records_dropped: Dict[str, int] = field(default_factory=dict)
    batches_truncated: Dict[str, int] = field(default_factory=dict)
    batches_duplicated: Dict[str, int] = field(default_factory=dict)
    batches_reordered: Dict[str, int] = field(default_factory=dict)
    records_garbled: Dict[str, int] = field(default_factory=dict)
    drifted: Dict[str, float] = field(default_factory=dict)
    #: NF -> schedule kind (``step`` / ``freeze`` / ``ramp`` / ``drift``)
    #: for clock-schedule warps that actually changed a timestamp.
    clock_faulted: Dict[str, str] = field(default_factory=dict)
    source_records_dropped: int = 0
    exit_records_dropped: int = 0

    def _bump(self, counter: Dict[str, int], nf: str, by: int) -> None:
        if by:
            counter[nf] = counter.get(nf, 0) + by

    @property
    def total_dropped(self) -> int:
        return (
            sum(self.records_dropped.values())
            + self.source_records_dropped
            + self.exit_records_dropped
        )

    @property
    def touched_nfs(self) -> Tuple[str, ...]:
        names = set()
        for counter in (
            self.records_dropped,
            self.batches_truncated,
            self.batches_duplicated,
            self.batches_reordered,
            self.records_garbled,
        ):
            names.update(counter)
        names.update(self.drifted)
        names.update(self.clock_faulted)
        return tuple(sorted(names))


@dataclass
class ChaosResult:
    """Corrupted telemetry plus the injection ledger."""

    data: CollectedData
    report: ChaosReport


def _chaos_batches(
    batches: List[BatchRecord],
    nf: str,
    config: ChaosConfig,
    rng,
    report: ChaosReport,
) -> List[BatchRecord]:
    """Apply per-batch and per-record faults to one stream, in fault order
    drop -> garbage -> truncate -> duplicate -> reorder -> drift ->
    clock schedule."""
    drop = config.nf_drop_rate(nf)
    out: List[BatchRecord] = []
    for batch in batches:
        ipids = list(batch.ipids)
        if drop and ipids:
            keep = rng.random(len(ipids)) >= drop
            dropped = len(ipids) - int(keep.sum())
            if dropped:
                report._bump(report.records_dropped, nf, dropped)
                ipids = [ipid for ipid, k in zip(ipids, keep) if k]
        if config.garbage_rate and ipids:
            garble = rng.random(len(ipids)) < config.garbage_rate
            garbled = int(garble.sum())
            if garbled:
                report._bump(report.records_garbled, nf, garbled)
                ipids = [
                    int(rng.integers(0, _MAX_IPID + 1)) if g else ipid
                    for ipid, g in zip(ipids, garble)
                ]
        if config.truncate_rate and len(ipids) > 1:
            if rng.random() < config.truncate_rate:
                cut = int(rng.integers(1, len(ipids)))
                report._bump(
                    report.batches_truncated, nf, 1
                )
                report._bump(report.records_dropped, nf, len(ipids) - cut)
                ipids = ipids[:cut]
        record = BatchRecord(time_ns=batch.time_ns, ipids=tuple(ipids))
        out.append(record)
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            report._bump(report.batches_duplicated, nf, 1)
            out.append(record)
    if config.reorder_rate and len(out) > 1:
        for i in range(0, len(out) - 1, 2):
            if rng.random() < config.reorder_rate:
                a, b = out[i], out[i + 1]
                if a.time_ns != b.time_ns:
                    report._bump(report.batches_reordered, nf, 1)
                    out[i] = BatchRecord(time_ns=b.time_ns, ipids=a.ipids)
                    out[i + 1] = BatchRecord(time_ns=a.time_ns, ipids=b.ipids)
    ppm = config.drift_ppm.get(nf, 0.0)
    if ppm:
        report.drifted[nf] = ppm
        out = [
            BatchRecord(
                time_ns=b.time_ns + int(b.time_ns * ppm / 1e6), ipids=b.ipids
            )
            for b in out
        ]
    schedule = config.clock_schedules.get(nf)
    if schedule is not None:
        warped = [
            BatchRecord(time_ns=schedule.warp(b.time_ns), ipids=b.ipids)
            for b in out
        ]
        if any(w.time_ns != b.time_ns for w, b in zip(warped, out)):
            report.clock_faulted[nf] = schedule.kind
        out = warped
    return out


def _exit_on_nf_clock(record: ExitRecord, config: ChaosConfig) -> ExitRecord:
    """``record`` restamped by its exit NF's faulty clock (drift, then
    schedule — the order ``_chaos_batches`` applies them to the NF's TX
    batches)."""
    time_ns = record.time_ns
    ppm = config.drift_ppm.get(record.last_nf, 0.0)
    if ppm:
        time_ns += int(time_ns * ppm / 1e6)
    schedule = config.clock_schedules.get(record.last_nf)
    if schedule is not None:
        time_ns = schedule.warp(time_ns)
    if time_ns == record.time_ns:
        return record
    return replace(record, time_ns=time_ns)


def inject_chaos(data: CollectedData, config: ChaosConfig) -> ChaosResult:
    """Return a corrupted copy of ``data`` plus the injection report.

    The input is never mutated.  Each (NF, stream) gets its own RNG
    substream keyed on the config seed, so per-NF damage is independent
    of collection order and of which other NFs exist.
    """
    report = ChaosReport()
    corrupted = CollectedData(
        nfs={}, sources={}, exits=[], max_batch=data.max_batch
    )
    for name, records in data.nfs.items():
        rng = substream(config.seed, f"chaos:nf:{name}")
        corrupted.nfs[name] = NFRecords(
            rx=_chaos_batches(records.rx, name, config, rng, report),
            tx={
                peer: _chaos_batches(batches, name, config, rng, report)
                for peer, batches in sorted(records.tx.items())
            },
        )
    for name, records in data.sources.items():
        kept: List[SourceRecord] = list(records)
        if config.affect_edges and records:
            rng = substream(config.seed, f"chaos:source:{name}")
            drop = config.nf_drop_rate(name)
            if drop:
                keep = rng.random(len(records)) >= drop
                kept = [r for r, k in zip(records, keep) if k]
                report.source_records_dropped += len(records) - len(kept)
        corrupted.sources[name] = kept
    corrupted.exits = list(data.exits)
    if config.affect_edges and data.exits and config.drop_rate:
        rng = substream(config.seed, "chaos:exits")
        keep = rng.random(len(data.exits)) >= config.drop_rate
        corrupted.exits = [r for r, k in zip(data.exits, keep) if k]
        report.exit_records_dropped += len(data.exits) - len(corrupted.exits)
    if config.drift_ppm or config.clock_schedules:
        corrupted.exits = [
            _exit_on_nf_clock(record, config) for record in corrupted.exits
        ]
    return ChaosResult(data=corrupted, report=report)
