"""Reference semantics of the bundled applications, independent of the
netlists they check (not collected: no ``test_`` prefix).

Cruise control (``data/ccs.nl``): the behavioural contract for the
17-cell netlist is given by ``ccs_mode`` (the target-speed update rules)
and ``pi_reference`` (the exact fixed-point controller recurrence); a
scenario's ``plant`` section closes the loop through
``engine.plant_step_raw``, a first-order vehicle model sampled once per
stimulus period.  Emergency generator startup (``data/edg.nl``):
``reference_equations``, the documented boolean equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from cellfab.cell import qmul, wrap16


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
