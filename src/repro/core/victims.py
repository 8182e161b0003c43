"""Victim selection: which packets deserve diagnosis (section 4, 5).

Operators define victims as packets with latency above a threshold or
percentile, packets that got lost, or packets of flows whose throughput
collapsed.  For latency victims the diagnosis site is each NF on the path
whose *local* performance is abnormal — "beyond one standard deviation
computed over recent history", like NetMedic (section 4.1).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.records import DiagTrace, PacketHop
from repro.errors import DiagnosisError
from repro.util.stats import RollingStats, percentile


@dataclass(frozen=True)
class Victim:
    """One (packet, NF) pair to diagnose."""

    pid: int
    nf: str
    kind: str  # 'latency' | 'drop' | 'throughput'
    arrival_ns: int
    metric: float  # latency in ns, or rate in pps for throughput victims


class VictimSelector:
    """Selects victims from a diagnosis trace."""

    def __init__(self, trace: DiagTrace) -> None:
        self.trace = trace

    # -- latency ---------------------------------------------------------------

    def end_to_end_latency_victims(
        self, pct: float = 99.0, abnormality_k: float = 1.0, window: int = 512
    ) -> List[Victim]:
        """Packets above the end-to-end latency percentile.

        Each victim packet yields one victim per path NF whose local latency
        was abnormal versus that NF's recent history; if no hop is flagged
        (e.g. uniformly slow path), the hop with the longest queue wait is
        used, so every victim packet is diagnosed somewhere.
        """
        completed = [p for p in self.trace.packets.values() if p.exited_ns >= 0]
        if not completed:
            return []
        # Select the worst (100 - pct)% by count: a plain ">= percentile"
        # rule explodes when latencies tie at the threshold (e.g. a
        # saturation plateau).
        k = max(1, int(round(len(completed) * (100.0 - pct) / 100.0)))
        # heapq.nlargest == sorted(..., reverse=True)[:k] (stable on ties)
        # but O(n log k), which matters at production victim volumes.
        worst = heapq.nlargest(k, completed, key=lambda p: p.end_to_end_ns)
        chosen = {p.pid for p in worst}
        abnormal = self._abnormal_hops(abnormality_k, window)
        victims: List[Victim] = []
        for packet in completed:
            if packet.pid not in chosen or not packet.hops:
                continue
            flagged = [hop for hop in packet.hops if (packet.pid, hop.nf) in abnormal]
            if not flagged:
                flagged = [max(packet.hops, key=lambda h: h.queue_wait_ns)]
            for hop in flagged:
                victims.append(
                    Victim(
                        pid=packet.pid,
                        nf=hop.nf,
                        kind="latency",
                        arrival_ns=hop.arrival_ns,
                        metric=float(packet.end_to_end_ns),
                    )
                )
        return victims

    def hop_latency_victims(
        self, pct: float = 99.0, nf: Optional[str] = None
    ) -> List[Victim]:
        """Hops whose local latency exceeds the per-NF percentile."""
        victims: List[Victim] = []
        names = [nf] if nf else list(self.trace.nfs)
        for name in names:
            hops: List[Tuple[int, PacketHop]] = []
            for packet in self.trace.packets.values():
                hop = packet.hop_at(name)
                if hop is not None:
                    hops.append((packet.pid, hop))
            if not hops:
                continue
            # Top (100 - pct)% by count, robust to latency ties.
            k = max(1, int(round(len(hops) * (100.0 - pct) / 100.0)))
            for pid, hop in heapq.nlargest(k, hops, key=lambda ph: ph[1].latency_ns):
                victims.append(
                    Victim(
                        pid=pid,
                        nf=name,
                        kind="latency",
                        arrival_ns=hop.arrival_ns,
                        metric=float(hop.latency_ns),
                    )
                )
        return victims

    def hop_latency_victims_over(
        self, threshold_ns: int, nf: Optional[str] = None
    ) -> List[Victim]:
        """Hops whose local latency meets an absolute threshold.

        Unlike the percentile rule, this selection is *prefix-stable*:
        whether a hop is a victim depends only on that hop, never on the
        rest of the trace.  Live mode needs this — a chunk sealed from a
        growing trace must pick exactly the victims an offline pass over
        the finished trace would pick, which no trace-global percentile
        can guarantee.
        """
        if threshold_ns <= 0:
            raise DiagnosisError(
                f"victim latency threshold must be positive: {threshold_ns}"
            )
        cols = self.trace.columns()
        code = None
        if nf is not None:
            code = cols.nf_code.get(nf)
            if code is None:
                return []
        pids, nf_codes, arrivals, latencies = cols.latency_victims_over(
            threshold_ns, code
        )
        return [
            Victim(
                pid=int(pids[i]),
                nf=cols.nf_names[int(nf_codes[i])],
                kind="latency",
                arrival_ns=int(arrivals[i]),
                metric=float(latencies[i]),
            )
            for i in range(len(pids))
        ]

    def _abnormal_hops(self, k: float, window: int) -> set:
        """(pid, nf) pairs whose local latency broke the rolling envelope.

        The per-NF arrival streams in :class:`NFView` are already
        time-sorted, so instead of re-sorting every hop of every packet
        per call, the hops are paired with the sorted stream through
        per-pid queues (hop order equals arrival order for a revisiting
        packet).  When a view disagrees with the packet hops — e.g. a
        hand-built trace — that NF falls back to the original sort.
        """
        abnormal = set()
        per_nf: Dict[str, List[Tuple[int, int, int]]] = {}
        for packet in self.trace.packets.values():
            for hop in packet.hops:
                per_nf.setdefault(hop.nf, []).append(
                    (hop.arrival_ns, packet.pid, hop.latency_ns)
                )
        for name, entries in per_nf.items():
            ordered = self._stream_ordered(name, entries)
            if ordered is None:
                entries.sort()
                ordered = entries
            history = RollingStats(window=window)
            for _t, pid, latency in ordered:
                if history.is_abnormal(float(latency), k=k):
                    abnormal.add((pid, name))
                history.push(float(latency))
        return abnormal

    def _stream_ordered(
        self, name: str, entries: List[Tuple[int, int, int]]
    ) -> Optional[List[Tuple[int, int, int]]]:
        """``entries`` in time order via the sorted NF stream, or None.

        ``entries`` arrive in packet-hop order, so per-pid queues preserve
        each packet's own hop sequence; walking ``view.arrivals`` (sorted
        by ``(t, pid)`` — the same order ``entries.sort()`` would produce)
        and consuming matching queue heads recovers the global order in
        O(n).  Any mismatch returns None for the exact fallback.
        """
        view = self.trace.nfs.get(name)
        if view is None or len(view.arrivals) < len(entries):
            return None
        queues: Dict[int, Deque[Tuple[int, int]]] = {}
        for t, pid, latency in entries:
            queues.setdefault(pid, deque()).append((t, latency))
        ordered: List[Tuple[int, int, int]] = []
        for t, pid in view.arrivals:
            queue = queues.get(pid)
            if queue and queue[0][0] == t:
                ordered.append((t, pid, queue.popleft()[1]))
        if len(ordered) != len(entries):
            return None
        return ordered

    # -- drops ---------------------------------------------------------------

    def drop_victims(self) -> List[Victim]:
        """Every packet lost on queue overflow."""
        cols = self.trace.columns()
        rows = cols.drop_rows()
        return [
            Victim(
                pid=int(cols.pkt_pid[row]),
                nf=cols.nf_names[int(cols.pkt_dropped_nf[row])],
                kind="drop",
                arrival_ns=int(cols.pkt_dropped_ns[row]),
                metric=0.0,
            )
            for row in rows.tolist()
        ]

    # -- throughput ---------------------------------------------------------------

    def throughput_victims(
        self,
        bin_ns: int = 1_000_000,
        drop_factor: float = 0.5,
        min_flow_packets: int = 50,
    ) -> List[Victim]:
        """Packets of flows whose per-bin exit rate collapsed.

        A flow with at least ``min_flow_packets`` exits is flagged in bins
        where its exit count falls below ``drop_factor`` times its own mean
        occupied-bin count; the flow's packets *arriving* during a flagged
        bin become victims at their longest-queue-wait hop.
        """
        if bin_ns <= 0:
            raise DiagnosisError(f"bin size must be positive: {bin_ns}")
        flows: Dict[object, List[object]] = {}
        for packet in self.trace.packets.values():
            if packet.exited_ns >= 0:
                flows.setdefault(packet.flow, []).append(packet)
        victims: List[Victim] = []
        for flow, packets in flows.items():
            if len(packets) < min_flow_packets:
                continue
            bins: Dict[int, List[object]] = {}
            for packet in packets:
                bins.setdefault(packet.exited_ns // bin_ns, []).append(packet)
            first_bin, last_bin = min(bins), max(bins)
            span = last_bin - first_bin + 1
            if span < 4:
                continue
            mean_count = len(packets) / span
            threshold = drop_factor * mean_count
            for b in range(first_bin, last_bin + 1):
                members = bins.get(b, [])
                if len(members) >= threshold:
                    continue
                # Blame the slow bin on the packets that exited late in it
                # (or, for empty bins, the next packets to exit).
                candidates = members or bins.get(b + 1, [])
                for packet in candidates:
                    if not packet.hops:
                        continue
                    hop = max(packet.hops, key=lambda h: h.queue_wait_ns)
                    victims.append(
                        Victim(
                            pid=packet.pid,
                            nf=hop.nf,
                            kind="throughput",
                            arrival_ns=hop.arrival_ns,
                            metric=len(members) * 1e9 / bin_ns,
                        )
                    )
        return victims
