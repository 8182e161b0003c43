"""Local diagnosis: input-workload and processing scores (eqs. 1-2).

For a queuing period of length ``T`` at NF ``f`` with peak rate ``r_f``:

* the input workload score ``Si`` counts the input packets beyond what the
  NF could have processed at peak rate,
* the processing score ``Sp`` counts the shortfall of processed packets
  against the peak-rate expectation.

By construction ``Si + Sp`` equals the queue length the victim met — all
queued packets are attributed to exactly one of the two causes.  Small
measurement asymmetries (an NF can momentarily appear faster than its
nominal peak across a batch boundary) are absorbed by clamping while
preserving the sum invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as _np

from repro.core.queuing import QueuingPeriod
from repro.errors import DiagnosisError


@dataclass(frozen=True)
class LocalScores:
    """Outcome of local diagnosis for one queuing period."""

    si: float
    sp: float
    n_input: int
    n_processed: int
    expected: float
    period: QueuingPeriod

    @property
    def total(self) -> float:
        return self.si + self.sp

    @property
    def input_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.si / self.total


def local_scores(period: QueuingPeriod, peak_rate_pps: float) -> LocalScores:
    """Compute (Si, Sp) for a queuing period given the NF's peak rate."""
    if peak_rate_pps <= 0:
        raise DiagnosisError(f"peak rate must be positive: {peak_rate_pps}")
    expected = peak_rate_pps * period.length_ns / 1e9
    queue_len = period.queue_len
    if queue_len < 0:
        raise DiagnosisError(
            f"negative queue length in period at {period.nf}: {queue_len}"
        )
    # Eq. (1)/(2) with clamping that preserves si + sp == queue_len.
    si = min(float(queue_len), max(0.0, period.n_input - expected))
    sp = float(queue_len) - si
    return LocalScores(
        si=si,
        sp=sp,
        n_input=period.n_input,
        n_processed=period.n_processed,
        expected=expected,
        period=period,
    )


def local_scores_batch(
    periods: Sequence[QueuingPeriod], peak_rate_pps: float
) -> List[LocalScores]:
    """Vectorized :func:`local_scores` over whole buildups at one NF.

    Each elementwise float64 op (multiply, divide, subtract, min/max
    clamp) mirrors the scalar expression structure exactly, so results are
    IEEE-754 bit-identical to per-period calls — pinned by the oracle
    parity tests.
    """
    if peak_rate_pps <= 0:
        raise DiagnosisError(f"peak rate must be positive: {peak_rate_pps}")
    if len(periods) < 2:
        return [local_scores(period, peak_rate_pps) for period in periods]
    n = len(periods)
    length = _np.fromiter((p.length_ns for p in periods), _np.float64, count=n)
    n_input = _np.fromiter((p.n_input for p in periods), _np.float64, count=n)
    queue_len = _np.fromiter((p.queue_len for p in periods), _np.float64, count=n)
    if (queue_len < 0).any():
        bad = periods[int(_np.argmax(queue_len < 0))]
        raise DiagnosisError(
            f"negative queue length in period at {bad.nf}: {bad.queue_len}"
        )
    expected = peak_rate_pps * length / 1e9
    si = _np.minimum(queue_len, _np.maximum(0.0, n_input - expected))
    sp = queue_len - si
    return [
        LocalScores(
            si=float(si[i]),
            sp=float(sp[i]),
            n_input=period.n_input,
            n_processed=period.n_processed,
            expected=float(expected[i]),
            period=period,
        )
        for i, period in enumerate(periods)
    ]
