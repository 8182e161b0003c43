"""The load generator: one thread, one connection, two disciplines.

``saturate`` is a closed loop in the textbook sense — a client that waits
for replies.  A chunk's journalled verdict is the reply: records are
released only up to the one that lets the service seal
``WINDOW_CHUNKS`` chunks past the newest verdict, so the service always
has sealed work waiting and the pace is the service's own.  ``paced`` is
an open loop — every record has a wall-clock due time derived from its
event time, and the schedule never waits for the service; how late the
generator itself ran is reported so a slow generator is not mistaken for
a slow program.

Why the window is counted in verdicts and not left to the wire's credit
backpressure: wherever the server's credit window runs dry,
``repro.net`` has a liveness hole (found while sizing this benchmark,
left for a later issue).  ACKs computed by the reader thread and by
``SocketTransport.pull`` are sent outside the server lock and can
overtake each other; a stale, too-generous credit then makes the sender
overrun the window, the server drops the overrun unacknowledged
(``credit_overruns``), and a sender that is not credit-starved never
times out into the reconnect that would resend it — the stream stalls
until the service gives up (``transport appears wedged``).  1 in 7
credit-paced runs died that way.  A benchmark must not fail, so what is
in flight is bounded by construction: at most ``WINDOW_CHUNKS`` + margin
+ 2 chunks of telemetry are ever released beyond what the service has
applied — under 7k records on the busiest stream — against a credit
window of ``inputs.SERVER_CAPACITY``.  ``net.credit_overruns`` reports
the server's count and must stay 0.

Both disciplines return, for every record in send order, the wall time
its slice was handed to the sender (``perf_counter_ns``, the clock the
child stamps verdicts with — ``CLOCK_MONOTONIC`` is system-wide on
Linux).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.ingest import TelemetryRecord
from repro.net import RecordSender, SenderConfig

from perfbench import inputs

#: Saturating: how many chunks past the newest verdict the service may
#: seal from what has been released.  Two would already keep it busy (the
#: next chunk is sealable the moment a verdict lands); the third absorbs
#: runs of cheap, victim-free chunks.
WINDOW_CHUNKS = 3
#: Saturating: longest wait for the next verdict before looking again.
VERDICT_WAIT_S = 0.002
#: ``finish`` must outlast a slow service draining its last chunks.
FINISH_TIMEOUT_S = 300.0
#: Paced: longest sleep between schedule checks.
MAX_SLEEP_S = 0.001


@dataclass
class SendLog:
    """What the generator did, in its own clock."""

    first_send_ns: int = 0
    #: Per record (send order): wall time it was handed to the sender.
    sent_ns: List[int] = field(default_factory=list)
    #: Per record (send order): wall time it was due (paced only).
    due_ns: List[int] = field(default_factory=list)
    sender_stats: dict = field(default_factory=dict)

    def lateness_ms(self) -> List[float]:
        return [(s - d) / 1e6 for s, d in zip(self.sent_ns, self.due_ns)]


def _sender(address: Tuple[str, int], streams: Sequence[str], seed: int) -> RecordSender:
    return RecordSender(
        tuple(address),
        streams,
        SenderConfig(jitter_seed=seed, name="perfbench"),
        clock_chaos=inputs.sender_clock_chaos(),
    )


def saturate(
    address: Tuple[str, int],
    streams: Sequence[str],
    records: Sequence[TelemetryRecord],
    seed: int,
    sealing: Sequence[int],
    newest_verdict: Callable[[float], int],
) -> SendLog:
    """Keep the service ``WINDOW_CHUNKS`` sealed chunks ahead of its own
    verdicts; returns once EOS is confirmed.

    ``sealing[k]`` is the send-order position of the record that seals
    chunk ``k`` (:func:`perfbench.stats.seal_barriers`);
    ``newest_verdict(wait_s)`` waits up to ``wait_s`` for news from the
    service and returns the highest chunk journalled so far (-1: none).
    """
    log = SendLog()
    with _sender(address, streams, seed) as sender:
        sender.connect()
        log.first_send_ns = time.perf_counter_ns()
        position = 0
        total = len(records)
        while position < total:
            ahead = newest_verdict(0.0) + WINDOW_CHUNKS
            # Past the last chunk a record seals, only EOS seals: release
            # everything that is left.
            release = sealing[ahead] + 1 if ahead < len(sealing) else total
            if release > position:
                now = time.perf_counter_ns()
                for record in records[position:release]:
                    sender.push(record)
                log.sent_ns.extend([now] * (release - position))
                position = release
                sender.pump()
            else:
                sender.pump()
                newest_verdict(VERDICT_WAIT_S)
        sender.finish(timeout_s=FINISH_TIMEOUT_S)
        log.sender_stats = sender.stats.to_payload()
    return log


def paced(
    address: Tuple[str, int],
    streams: Sequence[str],
    records: Sequence[TelemetryRecord],
    seed: int,
    rate_per_s: float,
) -> SendLog:
    """Replay event time on a wall-clock schedule at ``rate_per_s``.

    Record ``i`` is due at ``t0 + (time_i - time_0) * dilation`` with the
    dilation chosen so the whole set takes ``len(records) / rate_per_s``
    seconds: event-time structure (stall gaps, drain bursts) is kept, the
    mean offered rate is exactly ``rate_per_s``.
    """
    log = SendLog()
    first = records[0].time_ns
    span_ns = max(1, records[-1].time_ns - first)
    dilation = (len(records) / rate_per_s) * 1e9 / span_ns
    with _sender(address, streams, seed) as sender:
        sender.connect()
        t0 = time.perf_counter_ns()
        log.first_send_ns = t0
        log.due_ns = [t0 + int((r.time_ns - first) * dilation) for r in records]
        due = log.due_ns
        position = 0
        total = len(records)
        while position < total:
            now = time.perf_counter_ns()
            upto = position
            while upto < total and due[upto] <= now:
                sender.push(records[upto])
                upto += 1
            if upto > position:
                log.sent_ns.extend([now] * (upto - position))
                position = upto
            sender.pump()
            if position < total:
                wait_s = (due[position] - time.perf_counter_ns()) / 1e9
                if wait_s > 0:
                    time.sleep(min(wait_s, MAX_SLEEP_S))
        sender.finish(timeout_s=FINISH_TIMEOUT_S)
        log.sender_stats = sender.stats.to_payload()
    return log
