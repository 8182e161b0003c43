"""Reference victim selection: the object loops over every packet hop.

The bodies ``VictimSelector.hop_latency_victims_over`` and
``VictimSelector.drop_victims`` ran before they read the columnar hop
table, moved here unedited in logic.  Same victims, same order
(packet-major, in ``trace.packets`` order).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.records import DiagTrace
from repro.core.victims import Victim


def hop_latency_victims_over(
    trace: DiagTrace, threshold_ns: int, nf: Optional[str] = None
) -> List[Victim]:
    """Hops whose local latency meets an absolute threshold."""
    victims: List[Victim] = []
    names = {nf} if nf else None
    for packet in trace.packets.values():
        for hop in packet.hops:
            if names is not None and hop.nf not in names:
                continue
            if hop.latency_ns >= threshold_ns:
                victims.append(
                    Victim(
                        pid=packet.pid,
                        nf=hop.nf,
                        kind="latency",
                        arrival_ns=hop.arrival_ns,
                        metric=float(hop.latency_ns),
                    )
                )
    return victims


def drop_victims(trace: DiagTrace) -> List[Victim]:
    """Every packet lost on queue overflow."""
    victims: List[Victim] = []
    for packet in trace.packets.values():
        if packet.dropped_at is not None:
            victims.append(
                Victim(
                    pid=packet.pid,
                    nf=packet.dropped_at,
                    kind="drop",
                    arrival_ns=packet.dropped_ns,
                    metric=0.0,
                )
            )
    return victims
