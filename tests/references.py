"""Reference semantics of the bundled applications, independent of the
netlists they check (not collected: no ``test_`` prefix).

Cruise control (``data/ccs.nl``): the behavioural contract for the
17-cell netlist is given by ``ccs_mode`` (the target-speed update rules)
and ``pi_reference`` (the exact fixed-point controller recurrence); a
scenario's ``plant`` section closes the loop through
``engine.plant_step_raw``, a first-order vehicle model sampled once per
stimulus period.  Emergency generator startup (``data/edg.nl``):
``reference_equations``, the documented boolean equations.

Netlist evaluation: ``InterpretedOracle`` evaluates each node of each
step through its own frames, one per node and one per operand, as the
reference for ``cellfab.oracle.NetlistOracle``, which runs a plan
compiled once per netlist.

Cell arithmetic: ``COMPOSED_FUNCTIONS`` and ``composed_plant_step`` write
each opcode's evaluation and the plant step with ``wrap16`` and
``qmul``, as the reference for ``cell.OPCODE_FUNCTIONS`` and
``engine.plant_step_raw``, which inline them to run in one frame.

Trace export: ``reference_vcd`` folds every kept sample into a per-time
dict and formats each value with ``:016b``, as the reference for
``report.to_vcd``, which formats int16 values from a byte table and
stamps a time only at its first real change.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from cellfab.cell import Opcode, WidthMode, wrap16
from cellfab.engine import Trace
from cellfab.netlist import IMM_REF, Netlist
from cellfab.report import _vcd_id


def qmul(a: int, b: int) -> int:
    """Q8.8 fixed-point product, truncated toward zero, wrapped to INT16.

    Multiplying a plain integer by a Q8.8 constant scales it by
    constant/256, which is how gain factors enter the datapath.
    """
    p = a * b
    q = abs(p) >> 8
    return wrap16(-q if p < 0 else q)


class ModeCondition(Enum):
    SET = "set"
    INCREMENT = "increment"
    DECREMENT = "decrement"
    CANCEL_BRAKE = "cancel_brake"


def ccs_mode(cond: ModeCondition, target: int, actual: int) -> int:
    """Target-speed update for one mode condition.

    Set adopts the measured speed, increment/decrement nudge the target
    by one unit (two's-complement wrap), cancel/brake drops it to zero.
    """
    if cond is ModeCondition.SET:
        return wrap16(actual)
    if cond is ModeCondition.INCREMENT:
        return wrap16(target + 1)
    if cond is ModeCondition.DECREMENT:
        return wrap16(target - 1)
    return 0


@dataclass(frozen=True)
class PiParams:
    """Controller gains in Q8.8 plus actuator clamp bounds.

    Ts is one stimulus period and is folded into ki_q88.
    """

    kp_q88: int = 128  # 0.5
    ki_q88: int = 64  # 0.25 per period
    u_min: int = 0
    u_max: int = 100

    def validate(self) -> None:
        if self.u_min > self.u_max:
            raise ValueError("u_min must not exceed u_max")


def pi_reference(params: PiParams, errors: list[int]) -> list[int]:
    """Exact fixed-point PI recurrence the fabric must reproduce.

    u[k] = clamp(Kp*e[k] + I[k-1] + Ki*e[k]); products are Q8.8 and
    truncate toward zero.  The integrator is back-calculated from the
    clamped output (I[k] = u[k] - Kp*e[k]) so it never accumulates past
    the clamp: no windup while saturated.
    """
    params.validate()
    if not errors:
        raise ValueError("error sequence must be nonempty")
    integ = 0
    out = []
    for e in errors:
        p = qmul(e, params.kp_q88)
        integ_cand = wrap16(integ + qmul(e, params.ki_q88))
        u_raw = wrap16(p + integ_cand)
        u = min(max(u_raw, params.u_min), params.u_max)
        integ = wrap16(u - p)
        out.append(u)
    return out


# Table of per-cell operations the bundled netlist must expose, keyed by
# cell name: the opcode multiset is part of the application's contract.
CCS_CELL_OPCODES = {
    "fc1": "NOT",
    "fc2": "ADD",
    "fc3": "DELAY",
    "fc4": "OR",
    "fc5": "MUX",
    "fc6": "SUB",
    "fc7": "MUX",
    "fc8": "MUX",
    "fc9": "DELAY",
    "fc10": "ADD",
    "fc11": "SUB",
    "fc12": "MUL",
    "fc13": "MUL",
    "fc14": "ADD",
    "fc15": "CMP",
    "fc16": "MUL",
    "fc17": "ADD",
}


def reference_equations(inputs: dict[str, int]) -> dict[str, int]:
    """The documented boolean equations, independent of the netlist."""
    s = (
        inputs["fuel_press_ok"]
        & inputs["lube_press_ok"]
        & inputs["coolant_ok"]
        & inputs["air_press_ok"]
        & inputs["battery_ok"]
        & inputs["crank_relay_ok"]
        & (
            1
            ^ (
                (inputs["maint_mode"] | inputs["lockout_tripped"])
                | (inputs["estop"] | inputs["overspeed"])
            )
        )
        & (inputs["start_manual"] | inputs["start_auto"])
    )
    return {
        "EngineStart": s & inputs["field_flash_ok"],
        "OpenAirStartFuel_Valves": s & inputs["breaker_open"],
    }


class InterpretedOracle:
    """``NetlistOracle``'s interface and semantics, interpreted node by node."""

    def __init__(self, nl: Netlist):
        self.netlist = nl
        nodes = {n.name: n for n in nl.nodes}
        self.combinational = [
            nodes[name] for name in nl.order if nodes[name].opcode is not Opcode.DELAY
        ]
        self.delay_nodes = [n for n in nl.nodes if n.opcode is Opcode.DELAY]
        self.state: dict[str, tuple[int, ...]] = {
            n.name: (0,) * n.delay_cycles for n in self.delay_nodes
        }

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        missing = [n for n in self.netlist.input_names() if n not in inputs]
        if missing:
            raise ValueError(f"incomplete input assignment: missing {missing}")
        values: dict[str, int] = dict(inputs)
        for node in self.delay_nodes:
            values[node.name] = self.state[node.name][0]
        for node in self.combinational:
            values[node.name] = self._eval_node(node, values)
        for node in self.delay_nodes:
            captured = self._operand(node, 0, values)
            self.state[node.name] = self.state[node.name][1:] + (captured,)
        return values

    def outputs(self, values: dict[str, int]) -> dict[str, int]:
        return {name: values[node] for name, node in self.netlist.outputs.items()}

    def _operand(self, node, i: int, values: dict[str, int]) -> int:
        ref = node.operands[i]
        return node.immediate if ref == IMM_REF else values[ref]

    def _eval_node(self, node, values: dict[str, int]) -> int:
        bit = self.netlist.widths[node.name] is WidthMode.BIT
        ops = [self._operand(node, i, values) for i in range(len(node.operands))]
        op = node.opcode
        if op is Opcode.NOP:
            return 0
        if op is Opcode.AND:
            r = ops[0] & ops[1]
        elif op is Opcode.OR:
            r = ops[0] | ops[1]
        elif op is Opcode.NOT:
            r = ~ops[0]
        elif op is Opcode.ADD:
            r = ops[0] + ops[1]
        elif op is Opcode.SUB:
            r = ops[0] - ops[1]
        elif op is Opcode.MUL:
            r = qmul(ops[0], ops[1])
        elif op is Opcode.CMP:
            return 1 if ops[0] >= ops[1] else 0
        elif op is Opcode.MUX:
            return ops[1] if ops[0] == 0 else ops[2]
        else:
            raise ValueError(f"oracle cannot evaluate {op}")
        return r & 1 if bit else wrap16(r)


# keyed as ``cell.OPCODE_FUNCTIONS``: (opcode, width) -> f(n, w, e)
COMPOSED_FUNCTIONS = {
    (Opcode.AND, WidthMode.BIT): lambda n, w, e: n & w & 1,
    (Opcode.AND, WidthMode.INT16): lambda n, w, e: wrap16(n & w),
    (Opcode.OR, WidthMode.BIT): lambda n, w, e: (n | w) & 1,
    (Opcode.OR, WidthMode.INT16): lambda n, w, e: wrap16(n | w),
    (Opcode.NOT, WidthMode.BIT): lambda n, w, e: ~n & 1,
    (Opcode.NOT, WidthMode.INT16): lambda n, w, e: wrap16(~n),
}
for _op, _function in {  # the same in either width
    Opcode.NOP: lambda n, w, e: 0,
    Opcode.ADD: lambda n, w, e: wrap16(n + w),
    Opcode.SUB: lambda n, w, e: wrap16(n - w),
    Opcode.MUL: lambda n, w, e: qmul(n, w),
    Opcode.CMP: lambda n, w, e: 1 if n >= w else 0,
    Opcode.MUX: lambda n, w, e: w if n == 0 else e,
}.items():
    COMPOSED_FUNCTIONS[_op, WidthMode.BIT] = COMPOSED_FUNCTIONS[_op, WidthMode.INT16] = _function
del _op, _function


def composed_plant_step(v: int, u: int, gain: int, drag: int, dt: int) -> int:
    """v' = v + (gain*u - drag*v)*dt, all factors Q8.8, truncated toward zero."""
    return wrap16(v + qmul(dt, qmul(gain, u) - qmul(drag, v)))


def reference_vcd(trace: Trace) -> str:
    """``report.to_vcd``'s bytes, written plainly: ``setdefault`` per kept
    sample, ``:016b`` per int16 value, and a ``#t`` stamp that is popped
    again when every change at ``t`` changed back."""
    inputs = {f"in.{name}": mode for name, mode in trace.inputs.items()}
    declared = inputs | trace.outputs
    last: dict[str, int] = {}
    changes: dict[int, dict[str, int]] = {}
    for r in trace.records:
        signal, value = r.signal, r.value
        if signal in declared and r.annotation == "data" and last.get(signal) != value:
            last[signal] = value
            changes.setdefault(r.time, {})[signal] = value
    signals = list(last)
    widths = {s: 1 if declared[s] is WidthMode.BIT else 16 for s in signals}

    ids = {s: _vcd_id(i) for i, s in enumerate(signals)}
    lines = [
        f"$version cellfab {trace.version} $end",
        "$timescale 1ns $end",
        "$scope module inputs $end",
    ]
    for s in signals:
        if s in inputs:
            lines.append(f"$var wire {widths[s]} {ids[s]} {s[3:]} $end")
    lines.append("$upscope $end")
    lines.append("$scope module outputs $end")
    for s in signals:
        if s not in inputs:
            lines.append(f"$var wire {widths[s]} {ids[s]} {s} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    lines.append("#0")
    lines.append("$dumpvars")
    at_zero = changes.pop(0, {})
    for s in signals:
        if s not in at_zero:
            lines.append(f"bx {ids[s]}" if widths[s] > 1 else f"x{ids[s]}")
        elif widths[s] > 1:
            lines.append(f"b{at_zero[s] & 0xFFFF:016b} {ids[s]}")
        else:
            lines.append(f"{at_zero[s] & 1}{ids[s]}")
    lines.append("$end")
    held = {s: at_zero.get(s) for s in signals}
    for t in sorted(changes):
        lines.append(f"#{t}")
        stamped = len(lines)
        for s, v in changes[t].items():
            if v != held[s]:  # else it changed and changed back at t
                held[s] = v
                if widths[s] > 1:
                    lines.append(f"b{v & 0xFFFF:016b} {ids[s]}")
                else:
                    lines.append(f"{v & 1}{ids[s]}")
        if len(lines) == stamped:
            lines.pop()
    return "\n".join(lines) + "\n"
