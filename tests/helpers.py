"""Helpers shared by the test modules (not collected: no ``test_`` prefix)."""

from __future__ import annotations

from typing import Optional

from cellfab.engine import Engine, Trace
from cellfab.netlist import Netlist
from cellfab.oracle import NetlistOracle


class AlwaysEvaluateEngine(Engine):
    """The kernel with selective evaluation off: each cell's register bank
    is marked changed before every step, so every step evaluates."""

    def _evaluate_cell(self, fn_idx, cell, t):
        cell.registers.changed = True
        return super()._evaluate_cell(fn_idx, cell, t)


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


def reference_eval(
    nl: Netlist,
    inputs: dict[str, int],
    delay_state: dict[str, tuple[int, ...]] | None = None,
) -> tuple[dict[str, int], dict[str, tuple[int, ...]]]:
    """One-shot ideal evaluation: (primary outputs, advanced delay state)."""
    oracle = NetlistOracle(nl)
    if delay_state is not None:
        for name, pipe in delay_state.items():
            oracle.state[name] = tuple(pipe)
    values = oracle.step(inputs)
    return oracle.outputs(values), dict(oracle.state)


def settled_reference(nl: Netlist, inputs: dict[str, int], holds: int) -> dict[str, int]:
    """Outputs after holding one input vector for ``holds`` periods.

    With inputs held constant every delay pipeline flushes to a
    history-independent fixpoint, which is the steady state the fabric
    must reach as well.
    """
    oracle = NetlistOracle(nl)
    values: dict[str, int] = {}
    for _ in range(max(1, holds)):
        values = oracle.step(inputs)
    return oracle.outputs(values)
