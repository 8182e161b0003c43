"""``REPRO_CHAOS_*`` environment variables → collector chaos config.

The degraded-telemetry suite reads its loss rate and seed from the
environment so CI can run it under a fixed 10 % loss
(``REPRO_CHAOS_SEED=0 REPRO_CHAOS_LOSS=0.10``); the library itself reads
no environment variables, so the parser lives with the tests.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

from repro.collector.chaos import ChaosConfig
from repro.errors import ConfigurationError
from repro.time.chaos import ClockSchedule


def _parse_clock_spec(spec: str) -> Tuple[str, ClockSchedule]:
    """One ``family:nf:value[@at_ns]`` clause of ``REPRO_CHAOS_CLOCK``.

    * ``drift:<nf>:<ppm>`` — constant rate error from t=0;
    * ``step:<nf>:<step_ns>@<at_ns>`` — NTP step (negative = backward);
    * ``freeze:<nf>:<duration_ns>@<at_ns>`` — clock pinned for a while
      (duration 0 = frozen forever).
    """
    try:
        family, nf, value = spec.split(":", 2)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad REPRO_CHAOS_CLOCK clause {spec!r}: want family:nf:value"
        ) from exc
    at_ns = 0
    if "@" in value:
        value, at = value.rsplit("@", 1)
        try:
            at_ns = int(at)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad REPRO_CHAOS_CLOCK start time {at!r} in {spec!r}"
            ) from exc
    try:
        if family == "drift":
            return nf, ClockSchedule(kind="drift", start_ns=at_ns, ppm=float(value))
        if family == "step":
            return nf, ClockSchedule(kind="step", start_ns=at_ns, step_ns=int(value))
        if family == "freeze":
            return nf, ClockSchedule(
                kind="freeze", start_ns=at_ns, freeze_ns=int(value)
            )
    except ValueError as exc:
        raise ConfigurationError(
            f"bad REPRO_CHAOS_CLOCK value {value!r} in {spec!r}"
        ) from exc
    raise ConfigurationError(
        f"unknown REPRO_CHAOS_CLOCK family {family!r} in {spec!r} "
        f"(want drift, step, or freeze)"
    )


def chaos_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[ChaosConfig]:
    """Build a config from ``REPRO_CHAOS_*`` variables, or None when unset.

    ``REPRO_CHAOS_LOSS`` (record drop rate, e.g. ``0.10``) or
    ``REPRO_CHAOS_CLOCK`` (comma-separated ``family:nf:value[@at_ns]``
    clauses, e.g. ``drift:nat1:400,step:vpn1:-1000000@2000000``)
    activates it; ``REPRO_CHAOS_SEED`` (default 0) fixes the draws.  CI
    uses this to run the degraded-telemetry suite under a fixed 10% loss
    and the clock soak under injected skew.
    """
    env = os.environ if environ is None else environ
    loss = env.get("REPRO_CHAOS_LOSS")
    clock = env.get("REPRO_CHAOS_CLOCK")
    if loss is None and clock is None:
        return None
    rate = 0.0
    if loss is not None:
        try:
            rate = float(loss)
        except ValueError as exc:
            raise ConfigurationError(f"bad REPRO_CHAOS_LOSS {loss!r}") from exc
    schedules: Dict[str, ClockSchedule] = {}
    if clock is not None:
        for spec in clock.split(","):
            spec = spec.strip()
            if not spec:
                continue
            nf, schedule = _parse_clock_spec(spec)
            schedules[nf] = schedule
    try:
        seed = int(env.get("REPRO_CHAOS_SEED", "0"))
    except ValueError as exc:
        raise ConfigurationError(
            f"bad REPRO_CHAOS_SEED {env.get('REPRO_CHAOS_SEED')!r}"
        ) from exc
    return ChaosConfig(drop_rate=rate, clock_schedules=schedules, seed=seed)
