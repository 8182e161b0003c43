"""Telemetry chaos layer: seeded determinism, purity, and accounting."""

import pytest

from repro.collector.chaos import ChaosConfig, inject_chaos
from repro.time import ClockSchedule
from repro.collector.runtime import (
    BatchRecord,
    CollectedData,
    ExitRecord,
    NFRecords,
    SourceRecord,
)
from repro.errors import ConfigurationError
from repro.nfv.packet import FiveTuple
from tests.chaos_env import chaos_from_env

FLOW = FiveTuple.of("10.1.0.1", "20.1.0.1", 1111, 80)


def make_data(n_batches: int = 40, batch: int = 8) -> CollectedData:
    """Two NFs in a chain plus a source log and exit records."""
    nfs = {}
    for name in ("nat1", "vpn1"):
        rx = [
            BatchRecord(
                time_ns=1_000 * (i + 1),
                ipids=tuple((i * batch + j) % 65536 for j in range(batch)),
            )
            for i in range(n_batches)
        ]
        tx = [
            BatchRecord(time_ns=b.time_ns + 200, ipids=b.ipids) for b in rx
        ]
        peer = "vpn1" if name == "nat1" else ""
        nfs[name] = NFRecords(rx=rx, tx={peer: tx})
    sources = {
        "src": [
            SourceRecord(time_ns=500 * i, ipid=i % 65536, flow=FLOW, target="nat1")
            for i in range(n_batches * batch)
        ]
    }
    exits = [
        ExitRecord(time_ns=2_000 * (i + 1), ipid=i % 65536, flow=FLOW, last_nf="vpn1")
        for i in range(n_batches * batch)
    ]
    return CollectedData(nfs=nfs, sources=sources, exits=exits)


def total_records(data: CollectedData) -> int:
    total = 0
    for records in data.nfs.values():
        total += sum(len(b.ipids) for b in records.rx)
        total += sum(
            len(b.ipids) for batches in records.tx.values() for b in batches
        )
    return total


def snapshot(data: CollectedData):
    return (
        {
            name: (
                [(b.time_ns, b.ipids) for b in r.rx],
                {
                    peer: [(b.time_ns, b.ipids) for b in batches]
                    for peer, batches in r.tx.items()
                },
            )
            for name, r in data.nfs.items()
        },
        {
            name: [(r.time_ns, r.ipid) for r in records]
            for name, records in data.sources.items()
        },
        [(r.time_ns, r.ipid) for r in data.exits],
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": 1.5},
            {"drop_rate": -0.1},
            {"truncate_rate": 2.0},
            {"garbage_rate": -1.0},
            {"drop_rates": {"nat1": 1.01}},
        ],
    )
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChaosConfig(**kwargs)

    def test_active_flag(self):
        assert not ChaosConfig().active
        assert ChaosConfig(drop_rate=0.1).active
        assert ChaosConfig(drift_ppm={"nat1": 100.0}).active

    def test_per_nf_override(self):
        config = ChaosConfig(drop_rate=0.1, drop_rates={"nat1": 0.5})
        assert config.nf_drop_rate("nat1") == 0.5
        assert config.nf_drop_rate("vpn1") == 0.1


class TestInjection:
    def test_inactive_config_is_identity(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig())
        assert snapshot(result.data) == snapshot(data)
        assert result.report.total_dropped == 0
        assert result.report.touched_nfs == ()

    def test_input_is_never_mutated(self):
        data = make_data()
        before = snapshot(data)
        inject_chaos(
            data,
            ChaosConfig(
                drop_rate=0.3,
                truncate_rate=0.3,
                duplicate_rate=0.3,
                reorder_rate=0.5,
                garbage_rate=0.2,
                drift_ppm={"nat1": 500.0},
                seed=7,
            ),
        )
        assert snapshot(data) == before

    def test_same_seed_same_damage(self):
        config = ChaosConfig(drop_rate=0.2, garbage_rate=0.05, seed=3)
        a = inject_chaos(make_data(), config)
        b = inject_chaos(make_data(), config)
        assert snapshot(a.data) == snapshot(b.data)
        assert a.report.records_dropped == b.report.records_dropped

    def test_different_seed_different_damage(self):
        a = inject_chaos(make_data(), ChaosConfig(drop_rate=0.2, seed=1))
        b = inject_chaos(make_data(), ChaosConfig(drop_rate=0.2, seed=2))
        assert snapshot(a.data) != snapshot(b.data)

    def test_drop_accounting_matches_record_counts(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(drop_rate=0.25, seed=5))
        lost = total_records(data) - total_records(result.data)
        assert lost == sum(result.report.records_dropped.values()) > 0

    def test_per_nf_rate_spares_other_nfs(self):
        data = make_data()
        result = inject_chaos(
            data,
            ChaosConfig(drop_rates={"nat1": 0.5}, affect_edges=False, seed=0),
        )
        assert "nat1" in result.report.records_dropped
        assert "vpn1" not in result.report.records_dropped
        assert snapshot(result.data)[0]["vpn1"] == snapshot(data)[0]["vpn1"]

    def test_duplication_grows_batch_count(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(duplicate_rate=0.5, seed=1))
        assert len(result.data.nfs["nat1"].rx) > len(data.nfs["nat1"].rx)
        assert sum(result.report.batches_duplicated.values()) > 0

    def test_reorder_breaks_time_sort(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(reorder_rate=1.0, seed=1))
        rx = result.data.nfs["nat1"].rx
        assert any(rx[i + 1].time_ns < rx[i].time_ns for i in range(len(rx) - 1))
        assert sum(result.report.batches_reordered.values()) > 0

    def test_garbage_replaces_ipids_in_place(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(garbage_rate=0.3, seed=2))
        assert sum(result.report.records_garbled.values()) > 0
        # Garbling never changes batch sizes, only contents.
        for name, records in result.data.nfs.items():
            for ours, theirs in zip(records.rx, data.nfs[name].rx):
                assert len(ours.ipids) == len(theirs.ipids)

    def test_drift_shifts_timestamps(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(drift_ppm={"nat1": 10_000.0}))
        drifted = result.data.nfs["nat1"].rx[-1].time_ns
        original = data.nfs["nat1"].rx[-1].time_ns
        assert drifted == original + int(original * 10_000.0 / 1e6)
        assert result.data.nfs["vpn1"].rx[-1].time_ns == data.nfs["vpn1"].rx[-1].time_ns
        assert result.report.drifted == {"nat1": 10_000.0}

    def test_affect_edges_drops_sources_and_exits(self):
        data = make_data()
        result = inject_chaos(data, ChaosConfig(drop_rate=0.3, seed=4))
        assert result.report.source_records_dropped > 0
        assert result.report.exit_records_dropped > 0
        spared = inject_chaos(
            data, ChaosConfig(drop_rate=0.3, affect_edges=False, seed=4)
        )
        assert spared.report.source_records_dropped == 0
        assert spared.report.exit_records_dropped == 0
        assert len(spared.data.exits) == len(data.exits)


class TestClockSchedules:
    def test_step_shifts_all_batches(self):
        data = make_data()
        sched = ClockSchedule(kind="step", start_ns=0, step_ns=-700)
        result = inject_chaos(data, ChaosConfig(clock_schedules={"nat1": sched}))
        for ours, theirs in zip(result.data.nfs["nat1"].rx, data.nfs["nat1"].rx):
            assert ours.time_ns == theirs.time_ns - 700
        assert result.report.clock_faulted == {"nat1": "step"}
        assert "nat1" in result.report.touched_nfs
        # Unscheduled NFs untouched.
        assert snapshot(result.data)[0]["vpn1"] == snapshot(data)[0]["vpn1"]

    def test_freeze_flattens_timestamps(self):
        data = make_data()
        sched = ClockSchedule(kind="freeze", start_ns=5_000)
        result = inject_chaos(data, ChaosConfig(clock_schedules={"vpn1": sched}))
        frozen = [b.time_ns for b in result.data.nfs["vpn1"].rx if b.time_ns >= 5_000]
        assert frozen and all(t == 5_000 for t in frozen)
        assert result.report.clock_faulted == {"vpn1": "freeze"}

    def test_composes_with_drift_ppm(self):
        """Schedules apply after the legacy constant drift, so both warp."""
        data = make_data()
        sched = ClockSchedule(kind="step", start_ns=0, step_ns=100)
        result = inject_chaos(
            data,
            ChaosConfig(drift_ppm={"nat1": 10_000.0}, clock_schedules={"nat1": sched}),
        )
        original = data.nfs["nat1"].rx[-1].time_ns
        drifted = original + int(original * 10_000.0 / 1e6)
        assert result.data.nfs["nat1"].rx[-1].time_ns == sched.warp(drifted)
        assert result.report.drifted == {"nat1": 10_000.0}
        assert result.report.clock_faulted == {"nat1": "step"}

    def test_ineffective_schedule_not_reported(self):
        """A schedule that never changes a timestamp (starts after the
        capture ends) must not claim the NF was faulted."""
        data = make_data()
        sched = ClockSchedule(kind="step", start_ns=10**12, step_ns=500)
        result = inject_chaos(data, ChaosConfig(clock_schedules={"nat1": sched}))
        assert result.report.clock_faulted == {}


class TestEnvConfig:
    def test_unset_returns_none(self):
        assert chaos_from_env({}) is None

    def test_parses_loss_and_seed(self):
        config = chaos_from_env({"REPRO_CHAOS_LOSS": "0.10", "REPRO_CHAOS_SEED": "7"})
        assert config is not None
        assert config.drop_rate == pytest.approx(0.10)
        assert config.seed == 7

    def test_seed_defaults_to_zero(self):
        config = chaos_from_env({"REPRO_CHAOS_LOSS": "0.05"})
        assert config.seed == 0

    @pytest.mark.parametrize(
        "env",
        [
            {"REPRO_CHAOS_LOSS": "lots"},
            {"REPRO_CHAOS_LOSS": "0.1", "REPRO_CHAOS_SEED": "x"},
            {"REPRO_CHAOS_LOSS": "1.5"},
        ],
    )
    def test_bad_values_rejected(self, env):
        with pytest.raises(ConfigurationError):
            chaos_from_env(env)

    def test_clock_alone_activates(self):
        config = chaos_from_env({"REPRO_CHAOS_CLOCK": "drift:nat1:500"})
        assert config is not None
        assert config.drop_rate == 0.0
        assert config.clock_schedules["nat1"] == ClockSchedule(
            kind="drift", ppm=500.0
        )
        assert config.active

    def test_parses_all_families_with_start(self):
        config = chaos_from_env(
            {
                "REPRO_CHAOS_CLOCK": (
                    "drift:nat1:250,step:vpn1:-1000000@2000000,"
                    "freeze:fw1:500000@3000000"
                ),
                "REPRO_CHAOS_LOSS": "0.05",
            }
        )
        assert config.clock_schedules["nat1"].kind == "drift"
        step = config.clock_schedules["vpn1"]
        assert (step.kind, step.step_ns, step.start_ns) == ("step", -1_000_000, 2_000_000)
        freeze = config.clock_schedules["fw1"]
        assert (freeze.kind, freeze.freeze_ns, freeze.start_ns) == (
            "freeze", 500_000, 3_000_000,
        )
        assert config.drop_rate == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "spec",
        [
            "wobble:nat1:100",  # unknown family
            "drift:nat1",  # missing value
            "drift:nat1:fast",  # non-numeric value
            "step:nat1:500@soon",  # bad start time
        ],
    )
    def test_bad_clock_clauses_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            chaos_from_env({"REPRO_CHAOS_CLOCK": spec})
