"""Helpers shared by the test modules (not collected: no ``test_`` prefix)."""

from __future__ import annotations

from typing import Optional

from cellfab.engine import Trace


def compare_steady_state(
    trace: Trace,
    oracle_outputs: dict[str, int],
    t_from: int,
) -> list[tuple[str, Optional[int], int]]:
    """Mismatches between settled trace outputs and the ideal reference.

    For each primary output the value compared is its last sample at or
    after ``t_from`` (or the value still held from before, if the signal
    did not change afterwards).  Returns (signal, simulated, expected)
    triples; empty means the steady state matches.
    """
    last = max((r.time for r in trace.records), default=0)
    if last < t_from:
        raise ValueError(f"trace ends at {last}, before t_from={t_from}")
    mismatches = []
    for name in sorted(oracle_outputs):
        held: Optional[int] = None
        after: Optional[int] = None
        for r in trace.records:
            if r.annotation != "data" or r.signal != name:
                continue
            if r.time < t_from:
                held = r.value
            else:
                after = r.value
        value = after if after is not None else held
        if value != oracle_outputs[name]:
            mismatches.append((name, value, oracle_outputs[name]))
    return mismatches
