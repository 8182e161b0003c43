"""Online per-stream clock models: offset + drift + uncertainty.

This is the streaming upgrade of :mod:`repro.collector.clock`'s static
min-filter estimator.  The offline estimator sees the whole run and takes
one global minimum per edge; here the same Huygens-style observation —
every matched (TX at ``u``, RX at ``v``) pair satisfies

    rx_local - tx_ref = propagation + queueing + offset_v(t)

with queueing >= 0 — is tracked *online* as a lower envelope over time
windows: per window of RX-local time, the minimum observed difference
approaches ``propagation + offset_v(t)``, and a least-squares line
through the retained window minima yields the stream's current offset
*and drift* relative to the reference plane the already-repaired
upstream records define.

Three deliberate asymmetries versus the offline estimator:

* **The first healthy window is the baseline.**  A constant initial
  offset is indistinguishable from propagation delay without the known
  ``edge.delay_ns`` the offline path has, so the online model estimates
  offset *change* since its baseline window — exactly what the clock
  fault families (drift, ramp, NTP step, freeze) produce, and exactly
  what is needed to keep a long-running stream consistent with its own
  start.
* **State is a pure function of the stream's own record prefix.**
  Models mutate only when a record of their stream is admitted, in
  sequence order, and pair observations read (never write) the upstream
  stream's already-repaired times.  Repairs therefore do not depend on
  transport batching, which is what keeps sealed chunks byte-identical
  across crash/restart and across socket-timing variation.
* **Faults are typed events, not exceptions.**  A detected step, freeze
  or out-of-bound drift becomes a :class:`ClockFault`; the ingest
  builder turns it into a ``clock`` telemetry gap plus a multiplicative
  confidence discount, and (for freezes) quarantines the stream through
  the PR-3 machinery.  Degraded clocks degrade *confidence*, never
  silently corrupt attribution.

Everything is pure ints/floats/lists, so a :class:`ClockBank` rides the
watermark-snapshot ladder unchanged (see
:func:`repro.ingest.watermark.capture_builder_state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TraceError

#: Typed clock-fault kinds, mirroring the chaos families that cause them.
FAULT_KINDS = ("step-forward", "step-back", "freeze", "drift")


@dataclass(frozen=True)
class ClockConfig:
    """Operating parameters of the per-stream clock models."""

    #: Lower-envelope window width, in RX-local nanoseconds.  Should span
    #: enough matched pairs that the per-window minimum reaches the
    #: queueing floor (empty-queue forwardings are common, so a few
    #: hundred pairs per window suffices).
    window_ns: int = 5_000_000
    #: Retained window minima the offset/drift line is fitted over.
    windows: int = 8
    #: A window with fewer matched pairs than this is discarded — its
    #: minimum never reached the queueing floor and would bias the fit.
    min_window_samples: int = 3
    #: Estimated offsets below this magnitude repair to zero, so a
    #: healthy stream's envelope jitter never perturbs timestamps (the
    #: clean-clock byte-identity invariant).
    deadband_ns: int = 50_000
    #: Fitted drift beyond this magnitude raises a ``drift`` fault (the
    #: stream keeps flowing, repaired, at discounted confidence).
    drift_tolerance_ppm: float = 200.0
    #: An envelope jump beyond ``step_tolerance_ns`` past the fit's own
    #: residual raises a step fault and rebases the envelope; a raw
    #: per-record time regression of the same magnitude raises
    #: ``step-back`` directly.
    step_tolerance_ns: int = 2_000_000
    #: Consecutive identical raw timestamps (with advancing sequence
    #: numbers) before the stream's clock counts as frozen.  Clean traces
    #: legitimately repeat a timestamp across a queue-drain or drop burst
    #: (runs of tens of records), so the threshold must sit well above
    #: burst scale; a truly frozen clock stamps *everything* identically
    #: and crosses any threshold within milliseconds of traffic.
    freeze_records: int = 512
    #: Quarantine a frozen stream through the telemetry-health machinery
    #: (its timestamps carry no information; holding the barrier for it
    #: would stall sealing forever).
    freeze_quarantines: bool = True
    #: Multiplicative per-fault confidence discounts: drift is repairable
    #: so it discounts mildly; steps and freezes discount hard.
    drift_discount: float = 0.9
    fault_discount: float = 0.5

    def __post_init__(self) -> None:
        if self.window_ns <= 0:
            raise ConfigurationError(f"window_ns must be positive: {self.window_ns}")
        if self.windows < 2:
            raise ConfigurationError(f"windows must be >= 2: {self.windows}")
        if self.min_window_samples < 1:
            raise ConfigurationError(
                f"min_window_samples must be >= 1: {self.min_window_samples}"
            )
        if self.deadband_ns < 0:
            raise ConfigurationError(f"deadband_ns must be >= 0: {self.deadband_ns}")
        if self.step_tolerance_ns <= 0:
            raise ConfigurationError(
                f"step_tolerance_ns must be positive: {self.step_tolerance_ns}"
            )
        if self.freeze_records < 2:
            raise ConfigurationError(
                f"freeze_records must be >= 2: {self.freeze_records}"
            )
        for name, value in (
            ("drift_discount", self.drift_discount),
            ("fault_discount", self.fault_discount),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    def to_payload(self) -> dict:
        return {
            "window_ns": self.window_ns,
            "windows": self.windows,
            "min_window_samples": self.min_window_samples,
            "deadband_ns": self.deadband_ns,
            "drift_tolerance_ppm": self.drift_tolerance_ppm,
            "step_tolerance_ns": self.step_tolerance_ns,
            "freeze_records": self.freeze_records,
            "freeze_quarantines": self.freeze_quarantines,
            "drift_discount": self.drift_discount,
            "fault_discount": self.fault_discount,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClockConfig":
        return cls(**payload)


@dataclass(frozen=True)
class ClockFault:
    """One detected clock anomaly on one stream.

    ``magnitude`` is kind-specific: the step size in nanoseconds for
    steps, the fitted drift in ppm for ``drift``, and the identical-
    timestamp run length for ``freeze``.  ``at_ns`` is the stream-local
    timestamp of the record that triggered detection.
    """

    stream: str
    kind: str
    at_ns: int
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise TraceError(f"unknown clock fault kind {self.kind!r}")

    def to_payload(self) -> list:
        return [self.stream, self.kind, self.at_ns, self.magnitude]

    @classmethod
    def from_payload(cls, payload) -> "ClockFault":
        stream, kind, at_ns, magnitude = payload
        return cls(
            stream=stream, kind=kind, at_ns=int(at_ns), magnitude=float(magnitude)
        )


def fit_lower_envelope(
    points: List[Tuple[int, float]],
) -> Tuple[int, float, float, float]:
    """Least-squares line through envelope minima.

    ``points`` is a non-empty list of ``(t_ns, min_diff)`` window minima.
    Returns ``(t_ref_ns, offset_at_ref, drift_ppm, residual_ns)`` where
    ``t_ref_ns`` is the newest point's time (so extrapolation error stays
    small at the live edge) and ``residual_ns`` is the largest absolute
    deviation of any point from the fitted line — the data-driven half of
    the stream's uncertainty bound.

    Pure Python floats in a fixed summation order: deterministic, and the
    values round-trip exactly through JSON snapshots.
    """
    if not points:
        raise TraceError("cannot fit an empty envelope")
    t_ref = points[-1][0]
    if len(points) == 1:
        return (t_ref, float(points[0][1]), 0.0, 0.0)
    xs = [float(t - t_ref) for t, _ in points]
    ys = [float(y) for _, y in points]
    n = float(len(points))
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom == 0.0:
        slope = 0.0
        intercept = sy / n
    else:
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return (t_ref, intercept, slope * 1e6, residual)


class StreamClockModel:
    """One stream's clock relative to the reference plane.

    Mutated only from the stream's own admitted records, in sequence
    order: :meth:`observe_local` on every record (freeze and raw-step
    detection), :meth:`observe_pair` on every matched edge pair (envelope
    + fit).  :meth:`offset_at` and :attr:`uncertainty_ns` are read-only
    queries used for repair and for widening the sealing barrier.
    """

    def __init__(self, stream: str, config: ClockConfig) -> None:
        self.stream = stream
        self.config = config
        # Raw-timestamp bookkeeping (freeze / backward-step detection).
        self.last_raw = -1
        self.raw_max = -1
        self.freeze_run = 1
        self.frozen = False
        self.in_back_step = False
        #: Most recent positive raw inter-record gap — the stream's
        #: cadence, used to de-bias the backward-step estimator (see
        #: :meth:`observe_local`).
        self.last_gap = 0
        # Lower envelope over RX-local windows.
        self.pairs = 0
        self.baseline: Optional[int] = None
        self.cur_window: Optional[int] = None
        self.cur_min = 0
        self.cur_count = 0
        #: Retained ``(window_center_ns, min_diff - baseline)`` points.
        self.minima: List[Tuple[int, float]] = []
        # Fit state (valid once ``have_fit``).
        self.have_fit = False
        self.fit_t = 0
        self.fit_offset = 0.0
        self.fit_drift_ppm = 0.0
        self.fit_residual = 0.0
        self.drift_faulted = False
        #: Provisional offset applied between a raw backward-step
        #: detection and the envelope's own rebase.  The step magnitude
        #: is directly observable at detection (``raw_max - raw``), so
        #: repair engages immediately instead of clamping a whole step's
        #: worth of records flat; once the envelope rebases onto the
        #: post-step level its fit owns the full offset and this resets.
        self.step_offset_ns = 0
        #: Extra uncertainty carried after a step fault, halved on every
        #: clean window so the barrier relaxes as the envelope restabilises.
        self.step_cover_ns = 0
        self.updates = 0
        self.faults = 0

    # -- observation ------------------------------------------------------------

    def observe_local(self, raw_ns: int) -> List[Tuple[str, float]]:
        """Per-record raw-timestamp observation; returns (kind, magnitude)."""
        faults: List[Tuple[str, float]] = []
        if self.last_raw < 0:
            self.last_raw = raw_ns
            self.raw_max = raw_ns
            return faults
        if raw_ns == self.last_raw:
            self.freeze_run += 1
            if not self.frozen and self.freeze_run >= self.config.freeze_records:
                self.frozen = True
                self.faults += 1
                faults.append(("freeze", float(self.freeze_run)))
        else:
            self.freeze_run = 1
        if raw_ns >= self.raw_max:
            if raw_ns > self.last_raw and not self.in_back_step:
                self.last_gap = raw_ns - self.last_raw
            self.raw_max = raw_ns
            self.in_back_step = False
        elif (
            self.raw_max - raw_ns >= self.config.step_tolerance_ns
            and not self.in_back_step
        ):
            # The local clock regressed past jitter scale: an NTP-style
            # backward step.  Latched until the clock re-passes its old
            # maximum, so one step fires one fault, not one per record.
            # ``raw_max - raw`` under-measures the step by exactly the
            # true-time gap between the last pre-step record and this
            # one; the stream's own cadence (``last_gap``) de-biases it.
            # Without the de-bias every repaired timestamp sits one
            # cadence early, which systematically collides repaired hops
            # into their packets' source emits in the global merge.
            self.in_back_step = True
            self.faults += 1
            magnitude = float(self.raw_max - raw_ns + self.last_gap)
            self.step_offset_ns -= int(magnitude)
            self.step_cover_ns = max(
                self.step_cover_ns, self.config.step_tolerance_ns
            )
            faults.append(("step-back", magnitude))
        self.last_raw = raw_ns
        return faults

    def observe_pair(self, tx_ref_ns: int, rx_raw_ns: int) -> List[Tuple[str, float]]:
        """One matched edge pair: RX-local time vs the (repaired) TX time."""
        self.pairs += 1
        diff = rx_raw_ns - tx_ref_ns
        window = rx_raw_ns // self.config.window_ns
        if self.cur_window is None:
            self.cur_window, self.cur_min, self.cur_count = window, diff, 1
            return []
        if window <= self.cur_window:
            regression = self.cur_window * self.config.window_ns - rx_raw_ns
            if regression <= self.config.step_tolerance_ns:
                # Same window, or mild regression (arrivals are observed
                # in depart order, so queueing reorders them by up to the
                # queueing delay): fold into the open window — a lower
                # envelope only cares about the minimum.
                if diff < self.cur_min:
                    self.cur_min = diff
                self.cur_count += 1
                return []
            # Deep regression: the RX clock stepped backward.  Close the
            # pre-step window and restart at the regressed index so the
            # post-step level finalizes (and rebases the fit) within one
            # window instead of festering in a never-advancing fold.
        faults = self._finalize_window()
        self.cur_window, self.cur_min, self.cur_count = window, diff, 1
        return faults

    def _finalize_window(self) -> List[Tuple[str, float]]:
        faults: List[Tuple[str, float]] = []
        if self.cur_count < self.config.min_window_samples:
            return faults  # too thin to have reached the queueing floor
        center = self.cur_window * self.config.window_ns + self.config.window_ns // 2
        if self.baseline is None:
            # First healthy window: absorbs propagation + initial offset.
            self.baseline = self.cur_min
            self.minima = [(center, 0.0)]
        else:
            rel = float(self.cur_min - self.baseline)
            if self.have_fit:
                predicted = self._predict(center)
                jump = rel - predicted
                if abs(jump) > self.config.step_tolerance_ns + self.fit_residual:
                    kind = "step-forward" if jump > 0 else "step-back"
                    if not (kind == "step-back" and self.step_offset_ns != 0):
                        # A pending provisional offset means the local
                        # raw-regression detector already reported this
                        # step; the envelope is confirming, not finding.
                        self.faults += 1
                        faults.append((kind, jump))
                    # Rebase: the new level is the stream's new offset, and
                    # the jump magnitude rides the uncertainty bound until
                    # the envelope restabilises.  The rebased fit measures
                    # the *total* raw-clock offset, step included, so any
                    # provisional step offset must not double-count.
                    self.minima = [(center, rel)]
                    self.step_offset_ns = 0
                    self.step_cover_ns = int(abs(jump)) + self.config.step_tolerance_ns
                else:
                    self.minima.append((center, rel))
                    if len(self.minima) > self.config.windows:
                        self.minima = self.minima[-self.config.windows :]
                    self.step_cover_ns //= 2
            else:
                self.minima.append((center, rel))
        (
            self.fit_t,
            self.fit_offset,
            self.fit_drift_ppm,
            self.fit_residual,
        ) = fit_lower_envelope(self.minima)
        self.have_fit = True
        self.updates += 1
        if (
            not self.drift_faulted
            and abs(self.fit_drift_ppm) > self.config.drift_tolerance_ppm
            and len(self.minima) >= 2
        ):
            self.drift_faulted = True
            self.faults += 1
            faults.append(("drift", self.fit_drift_ppm))
        return faults

    # -- queries ----------------------------------------------------------------

    def _predict(self, raw_ns: int) -> float:
        return self.fit_offset + self.fit_drift_ppm * (raw_ns - self.fit_t) / 1e6

    def offset_at(self, raw_ns: int) -> int:
        """Estimated local-minus-reference offset at ``raw_ns`` (0 in the
        deadband, so clean clocks repair to identity)."""
        estimate = float(self.step_offset_ns)
        if self.have_fit:
            estimate += self._predict(raw_ns)
        if abs(estimate) <= self.config.deadband_ns and self.step_cover_ns == 0:
            return 0
        return int(round(estimate))

    @property
    def uncertainty_ns(self) -> int:
        """How far the true offset may sit from the estimate.

        Zero until a repair is actually engaged — an idle model must not
        move the sealing barrier — then the fit residual plus the
        deadband, plus any post-step cover.
        """
        residual = int(round(self.fit_residual)) if self.have_fit else 0
        if self.step_cover_ns or self.step_offset_ns:
            return residual + self.config.deadband_ns + self.step_cover_ns
        if not self.have_fit:
            return 0
        if (
            abs(self._predict(self.fit_t)) <= self.config.deadband_ns
            and abs(self.fit_drift_ppm) <= self.config.drift_tolerance_ppm
        ):
            return 0
        return residual + self.config.deadband_ns

    # -- snapshot ---------------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "stream": self.stream,
            "last_raw": self.last_raw,
            "raw_max": self.raw_max,
            "freeze_run": self.freeze_run,
            "frozen": self.frozen,
            "in_back_step": self.in_back_step,
            "last_gap": self.last_gap,
            "pairs": self.pairs,
            "baseline": self.baseline,
            "cur_window": self.cur_window,
            "cur_min": self.cur_min,
            "cur_count": self.cur_count,
            "minima": [[t, y] for t, y in self.minima],
            "have_fit": self.have_fit,
            "fit_t": self.fit_t,
            "fit_offset": self.fit_offset,
            "fit_drift_ppm": self.fit_drift_ppm,
            "fit_residual": self.fit_residual,
            "drift_faulted": self.drift_faulted,
            "step_offset_ns": self.step_offset_ns,
            "step_cover_ns": self.step_cover_ns,
            "updates": self.updates,
            "faults": self.faults,
        }

    @classmethod
    def from_payload(cls, payload: dict, config: ClockConfig) -> "StreamClockModel":
        model = cls(payload["stream"], config)
        model.last_raw = int(payload["last_raw"])
        model.raw_max = int(payload["raw_max"])
        model.freeze_run = int(payload["freeze_run"])
        model.frozen = bool(payload["frozen"])
        model.in_back_step = bool(payload["in_back_step"])
        model.last_gap = int(payload["last_gap"])
        model.pairs = int(payload["pairs"])
        baseline = payload["baseline"]
        model.baseline = None if baseline is None else int(baseline)
        cur_window = payload["cur_window"]
        model.cur_window = None if cur_window is None else int(cur_window)
        model.cur_min = int(payload["cur_min"])
        model.cur_count = int(payload["cur_count"])
        model.minima = [(int(t), float(y)) for t, y in payload["minima"]]
        model.have_fit = bool(payload["have_fit"])
        model.fit_t = int(payload["fit_t"])
        model.fit_offset = float(payload["fit_offset"])
        model.fit_drift_ppm = float(payload["fit_drift_ppm"])
        model.fit_residual = float(payload["fit_residual"])
        model.drift_faulted = bool(payload["drift_faulted"])
        model.step_offset_ns = int(payload["step_offset_ns"])
        model.step_cover_ns = int(payload["step_cover_ns"])
        model.updates = int(payload["updates"])
        model.faults = int(payload["faults"])
        return model


class ClockBank:
    """Per-stream clock models plus the fault ledger, for one builder."""

    def __init__(self, config: Optional[ClockConfig] = None) -> None:
        self.config = config or ClockConfig()
        self.models: Dict[str, StreamClockModel] = {}
        self.faults: List[ClockFault] = []
        self.repairs = 0

    def model(self, stream: str) -> StreamClockModel:
        model = self.models.get(stream)
        if model is None:
            model = StreamClockModel(stream, self.config)
            self.models[stream] = model
        return model

    @property
    def updates(self) -> int:
        return sum(model.updates for model in self.models.values())

    def observe_local(self, stream: str, raw_ns: int) -> List[ClockFault]:
        return self._wrap(stream, raw_ns, self.model(stream).observe_local(raw_ns))

    def observe_pair(
        self, stream: str, tx_ref_ns: int, rx_raw_ns: int
    ) -> List[ClockFault]:
        return self._wrap(
            stream, rx_raw_ns, self.model(stream).observe_pair(tx_ref_ns, rx_raw_ns)
        )

    def _wrap(
        self, stream: str, at_ns: int, raw_faults: List[Tuple[str, float]]
    ) -> List[ClockFault]:
        if not raw_faults:
            return []
        faults = [
            ClockFault(stream=stream, kind=kind, at_ns=at_ns, magnitude=magnitude)
            for kind, magnitude in raw_faults
        ]
        self.faults.extend(faults)
        return faults

    def offset_at(self, stream: str, raw_ns: int) -> int:
        model = self.models.get(stream)
        return 0 if model is None else model.offset_at(raw_ns)

    def uncertainty(self, stream: str) -> int:
        model = self.models.get(stream)
        return 0 if model is None else model.uncertainty_ns

    def effective_watermark(self, stream: str, watermark_ns: int) -> int:
        """The stream's watermark in repaired time, widened by uncertainty.

        This is how the sealing barrier "widens ``seal_margin_ns`` by the
        stream's clock uncertainty": the horizon is the min over these,
        so every stream's margin grows by exactly its own bound.
        """
        model = self.models.get(stream)
        if model is None:
            return watermark_ns
        return (
            watermark_ns - model.offset_at(watermark_ns) - model.uncertainty_ns
        )

    def max_uncertainty_ns(self) -> int:
        if not self.models:
            return 0
        return max(model.uncertainty_ns for model in self.models.values())

    def stats(self) -> Dict[str, int]:
        """Pure-int counters merged into the builder's ``ingest_stats``."""
        return {
            "clock_faults": len(self.faults),
            "clock_repairs": self.repairs,
            "clock_updates": self.updates,
            "clock_uncertainty_ns": self.max_uncertainty_ns(),
        }

    def stream_stats(self) -> Dict[str, dict]:
        """Per-stream rows for the ``clock`` health report."""
        rows: Dict[str, dict] = {}
        by_stream: Dict[str, List[ClockFault]] = {}
        for fault in self.faults:
            by_stream.setdefault(fault.stream, []).append(fault)
        for stream in sorted(self.models):
            model = self.models[stream]
            faults = by_stream.get(stream, [])
            rows[stream] = {
                "offset_ns": model.offset_at(model.last_raw) if model.have_fit else 0,
                "drift_ppm": model.fit_drift_ppm if model.have_fit else 0.0,
                "uncertainty_ns": model.uncertainty_ns,
                "faults": len(faults),
                "fault_kinds": ",".join(
                    sorted({fault.kind for fault in faults})
                ),
                "frozen": model.frozen,
            }
        return rows

    # -- snapshot ---------------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "config": self.config.to_payload(),
            "models": {
                stream: model.to_payload()
                for stream, model in sorted(self.models.items())
            },
            "faults": [fault.to_payload() for fault in self.faults],
            "repairs": self.repairs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ClockBank":
        bank = cls(ClockConfig.from_payload(payload["config"]))
        for stream, model_payload in payload["models"].items():
            bank.models[stream] = StreamClockModel.from_payload(
                model_payload, bank.config
            )
        bank.faults = [ClockFault.from_payload(f) for f in payload["faults"]]
        bank.repairs = int(payload["repairs"])
        return bank
