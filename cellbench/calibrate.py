"""Host-speed calibration that shares no code with cellfab.

The benchmark's host is a shared 2-vCPU machine whose speed for
interpreter-bound work swings by up to 1.7x over seconds, as neighbours
come and go.  ``calibrate()`` runs a fixed pure-Python toy event kernel
(heap, Enum-keyed dicts, validated frozen dataclasses, trace records: the
same mix as cellfab's kernel) between timed ops, and the benchmark scales
each op's time by ``REFERENCE_S`` over the calibrations around it.  That ratio
spread 2-4% between 8 s windows where raw host time spread 22%.  Because
the loop never touches cellfab, a faster program still shows as a
smaller ratio.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from enum import Enum

# about what calibrate() takes on the uncontended reference host (2 vCPU
# at 2.1 GHz, CPython 3.11); scaled times read as ms on that host
REFERENCE_S = 0.006


class _Port(Enum):
    NORTH = "N"
    WEST = "W"
    EAST = "E"
    SOUTH = "S"


_PORTS = tuple(_Port)


@dataclass(frozen=True)
class _Value:
    width: int
    payload: int

    def __post_init__(self):
        if not -32768 <= self.payload <= 32767:
            raise ValueError(self.payload)


@dataclass(frozen=True)
class _Record:
    time: int
    signal: str
    value: int
    annotation: str


def _work() -> int:
    """A toy event kernel: heap-ordered evaluations that vote triplicated,
    Enum-keyed registers, build validated values and append trace records."""
    heap: list = []
    seq = 0
    for t in range(300):
        for level in range(4):
            heapq.heappush(heap, (t * 100 + level * 7, seq, level))
            seq += 1
    registers = {p: [_Value(1, 0)] * 3 for p in _PORTS}
    records = []
    while heap:
        t, _, level = heapq.heappop(heap)
        voted = {}
        for p in _PORTS:
            a, b, c = registers[p]
            voted[p] = a if a.payload == b.payload else c
        out = _Value(1, (voted[_Port.NORTH].payload + voted[_Port.WEST].payload + level) & 0x7FFF)
        registers[_PORTS[level]] = [out, out, out]
        records.append(_Record(t, f"fn.n{level}", out.payload, "data"))
    return sum(1 for r in records if r.annotation == "data")


def calibrate() -> float:
    """Host seconds for one pass of the reference loop, with the cyclic
    collector paused so the program's live heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
