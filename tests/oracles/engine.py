"""Reference engine: ``MicroscopeEngine`` computing through the oracles.

The recursion, scoring and memo layers are the production engine's own —
there is one algorithm.  What this subclass swaps is every place the
engine reads the columnar trace or a vectorized index: analyzers answer
from the reference queuing index, PreSets are grouped by the object
``PathDecomposition``, and the two pid scans walk ``PacketView`` objects
(their bodies moved here unedited from the engine).  Output must equal the
production engine's byte for byte, confidence included.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple, Type
from unittest import mock

import repro.core.streaming as streaming_mod
from repro.core.diagnosis import MicroscopeEngine
from repro.core.queuing import QueuingAnalyzer
from repro.core.victims import Victim
from tests.oracles.propagation import PathDecomposition
from tests.oracles.queuing import use_reference_index


class OracleEngine(MicroscopeEngine):
    """Serial diagnosis with no columnar or vectorized step."""

    def analyzer(self, nf: str) -> QueuingAnalyzer:
        known = nf in self._analyzers
        analyzer = super().analyzer(nf)
        return analyzer if known else use_reference_index(analyzer)

    def _prefill_periods(self, victims: Sequence[Victim]) -> None:
        """Batched period resolution is purely a vectorized shortcut:
        without it ``diagnose`` resolves each period per arrival."""

    def _new_decomposition(self, nf: str) -> PathDecomposition:
        return PathDecomposition(self.trace, nf)

    def _first_preset_arrival(
        self, nf: str, pids: Sequence[int]
    ) -> Optional[Tuple[int, int]]:
        best: Optional[Tuple[int, int]] = None
        packets = self.trace.packets
        for pid in pids:
            packet = packets.get(pid)
            if packet is None:
                continue
            hop = packet.hop_at(nf)
            if hop is None:
                continue
            if best is None or hop.arrival_ns < best[1]:
                best = (pid, hop.arrival_ns)
        return best

    def _earliest_emit(self, pids: Sequence[int], fallback_ns: int) -> int:
        times = [
            self.trace.packets[pid].emitted_ns
            for pid in pids
            if pid in self.trace.packets
        ]
        return min(times) if times else fallback_ns


@contextmanager
def streaming_through(engine_class: Type[MicroscopeEngine]) -> Iterator[None]:
    """Inside the block every ``StreamingDiagnosis`` opens ``engine_class``
    engines for its chunks (``MicroscopeEngine`` itself changes nothing)."""
    with mock.patch.object(streaming_mod, "MicroscopeEngine", engine_class):
        yield
