"""Single functional cell semantics.

A functional cell evaluates one configurable operation (an IEC 61131-3
style function block) on up to four directional input ports.  Each port
is backed by three replica registers voted on every evaluation, so a
corrupted replica is masked without disturbing the output.  The block is
evaluated twice per step, once through the primary path (which carries
any injected permanent fault) and once through a golden checker path;
a disagreement raises a mismatch that feeds the transient/permanent
classifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

INT16_MIN = -32768
INT16_MAX = 32767


class WidthMode(Enum):
    BIT = 0
    INT16 = 1


class Port(Enum):
    NORTH = "N"
    WEST = "W"
    EAST = "E"
    SOUTH = "S"


PORT_ORDER = (Port.NORTH, Port.WEST, Port.EAST, Port.SOUTH)


class Opcode(Enum):
    NOP = 0
    AND = 1
    OR = 2
    NOT = 3
    ADD = 4
    SUB = 5
    MUL = 6
    CMP = 7
    DELAY = 8
    MUX = 9


# Operand count per opcode.  Operands are assigned to ports in N, W, E, S
# order; ports beyond the arity stay unused and read 0.
OPCODE_ARITY = {
    Opcode.NOP: 0,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.NOT: 1,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.CMP: 2,
    Opcode.DELAY: 1,
    Opcode.MUX: 3,
}

# Arithmetic opcodes only make sense on 16-bit words; the bitwise and
# routing opcodes work in either width.
INT16_ONLY_OPCODES = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP}


def wrap16(x: int) -> int:
    """Wrap an integer into two's-complement INT16 range."""
    return ((x + 32768) & 0xFFFF) - 32768


def qmul(a: int, b: int) -> int:
    """Q8.8 fixed-point product, truncated toward zero, wrapped to INT16.

    Multiplying a plain integer by a Q8.8 constant scales it by
    constant/256, which is how gain factors enter the datapath.
    """
    p = a * b
    q = abs(p) >> 8
    return wrap16(-q if p < 0 else q)


def check_value(width_mode: WidthMode, payload: int) -> int:
    if width_mode is WidthMode.BIT:
        if payload not in (0, 1):
            raise ValueError(f"BIT payload out of range: {payload}")
    else:
        if not (INT16_MIN <= payload <= INT16_MAX):
            raise ValueError(f"INT16 payload out of range: {payload}")
    return payload


@dataclass(frozen=True)
class Value:
    """A digital signal value: a single bit or a 16-bit two's-complement word."""

    width_mode: WidthMode
    payload: int

    def __post_init__(self):
        check_value(self.width_mode, self.payload)

    @staticmethod
    def bit(payload: int) -> "Value":
        return Value(WidthMode.BIT, payload)

    @staticmethod
    def int16(payload: int) -> "Value":
        return Value(WidthMode.INT16, wrap16(payload))


def zero(width_mode: WidthMode) -> Value:
    return Value(width_mode, 0)


def _bitwise(width_mode: WidthMode, raw: int) -> int:
    if width_mode is WidthMode.BIT:
        return raw & 1
    return wrap16(raw)


def gfb_eval(
    op: Opcode,
    inputs: dict[Port, Value],
    immediate: Value,
    state: tuple[int, ...],
) -> tuple[Value, tuple[int, ...]]:
    """Evaluate one generic function block operation.

    Pure function: identical (op, inputs, immediate, state) always yields
    the identical (output, state').  ``state`` is the delay pipeline and is
    only advanced by DELAY; every other opcode passes it through.

    DELAY shifts the North sample through a k-stage pipeline.  Because the
    input register itself adds one cycle of capture latency, the pipeline
    output is the element shifted in k-1 clocks ago, so the end-to-end
    delay seen at the output is exactly k stimulus periods.
    """
    wm = immediate.width_mode
    n = inputs[Port.NORTH].payload
    w = inputs[Port.WEST].payload
    e = inputs[Port.EAST].payload

    if op is Opcode.NOP:
        return zero(wm), state
    if op is Opcode.AND:
        return Value(wm, _bitwise(wm, n & w)), state
    if op is Opcode.OR:
        return Value(wm, _bitwise(wm, n | w)), state
    if op is Opcode.NOT:
        return Value(wm, _bitwise(wm, ~n)), state
    if op is Opcode.ADD:
        return Value(wm, wrap16(n + w)), state
    if op is Opcode.SUB:
        return Value(wm, wrap16(n - w)), state
    if op is Opcode.MUL:
        return Value(wm, qmul(n, w)), state
    if op is Opcode.CMP:
        return Value(wm, 1 if n >= w else 0), state
    if op is Opcode.MUX:
        return Value(wm, w if n == 0 else e), state
    if op is Opcode.DELAY:
        new_state = state[1:] + (n,)
        return Value(wm, new_state[0]), new_state
    raise ValueError(f"unknown opcode {op}")


def vote(replicas: tuple[Value, Value, Value]) -> tuple[Value, int]:
    """Majority vote over three replica values.

    Returns the majority value and a 3-bit mask with bit i set when
    replica i dissents.  If all three disagree the fallback is replica 0
    with mask 0b111; the caller escalates, this is not an error.
    """
    a, b, c = replicas
    if a.payload == b.payload:
        if c.payload == a.payload:
            return a, 0b000
        return a, 0b100
    if a.payload == c.payload:
        return a, 0b010
    if b.payload == c.payload:
        return b, 0b001
    return a, 0b111


@dataclass
class RegisterPort:
    replicas: list[Value]
    last_write: int = -1

    def corrupt(self, replica: int, flip: Optional[int], stuck: Optional[int]) -> None:
        v = self.replicas[replica]
        if flip is not None:
            raw = v.payload ^ flip
            payload = raw & 1 if v.width_mode is WidthMode.BIT else wrap16(raw)
        else:
            payload = stuck & 1 if v.width_mode is WidthMode.BIT else wrap16(stuck)
        self.replicas[replica] = Value(v.width_mode, payload)


@dataclass
class InputRegisterBank:
    """Four triplicated input registers keyed North/West/East/South."""

    width_mode: WidthMode
    ports: dict[Port, RegisterPort] = field(default_factory=dict)

    def __post_init__(self):
        if not self.ports:
            for p in PORT_ORDER:
                self.ports[p] = RegisterPort([zero(self.width_mode)] * 3)

    def write(self, port: Port, v: Value, t: int) -> None:
        """Set all three replicas of a port; clears any injected transient."""
        if port not in self.ports:
            raise KeyError(f"unknown port {port}")
        self.ports[port].replicas = [v, v, v]
        self.ports[port].last_write = t

    def voted(self, port: Port) -> tuple[Value, int]:
        r = self.ports[port].replicas
        return vote((r[0], r[1], r[2]))


def write_port(bank: InputRegisterBank, port: Port, v: Value, t: int) -> InputRegisterBank:
    bank.write(port, v, t)
    return bank


class CheckResult(Enum):
    CLEAN = "clean"
    MISMATCH = "mismatch"


class FaultClass(Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"
    UNDETERMINED = "undetermined"


@dataclass
class FaultHistory:
    """Consecutive self-check mismatch bookkeeping for one cell.

    ``mismatch_streak`` resets to 0 on any clean check; ``broken_streak``
    remembers the streak length an interrupting clean check just ended so
    the classifier can report it as a (retrospective) transient.
    """

    mismatch_streak: int = 0
    broken_streak: int = 0
    last_check_time: int = -1
    last_check: Optional[CheckResult] = None

    def record(self, result: CheckResult, t: int) -> None:
        self.last_check_time = t
        self.last_check = result
        if result is CheckResult.MISMATCH:
            self.mismatch_streak += 1
            self.broken_streak = 0
        else:
            self.broken_streak = self.mismatch_streak
            self.mismatch_streak = 0


def classify(history: FaultHistory, threshold: int = 2) -> Optional[FaultClass]:
    """Classify the fault behind a mismatch history with persistence threshold K.

    K or more consecutive mismatches mean a permanent fault; a streak that
    a clean check interrupted was a transient; a shorter live streak stays
    undetermined (keep watching).  Returns None for a history with no
    mismatch activity at all.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if history.mismatch_streak >= threshold:
        return FaultClass.PERMANENT
    if history.last_check is CheckResult.CLEAN and history.broken_streak >= 1:
        return FaultClass.TRANSIENT
    if history.mismatch_streak >= 1:
        return FaultClass.UNDETERMINED
    return None


class CellHealth(Enum):
    HEALTHY = "healthy"
    SUSPECT_TRANSIENT = "suspect_transient"
    FAULTY_DEACTIVATED = "faulty_deactivated"
    SPARE_IDLE = "spare_idle"
    SPARE_ACTIVE = "spare_active"


@dataclass(frozen=True)
class CellId:
    layer: int
    slot: int
    kind: str  # "F" worker cell, "R" spare cell

    def __str__(self) -> str:
        return f"L{self.layer}.{self.kind}{self.slot}"

    @staticmethod
    def parse(text: str) -> "CellId":
        m = re.fullmatch(r"L([0-9]+)\.([FR])([0-9]+)", text) if isinstance(text, str) else None
        if m is None:
            raise ValueError(f"bad cell id {text!r}")
        return CellId(int(m[1]), int(m[3]), m[2])


@dataclass
class StuckBehavior:
    """Injected permanent misbehaviour of the primary evaluation path.

    Either XORs the output with ``flip`` or forces it to ``stuck``.
    Applied to the primary path only; the golden checker path is clean.
    """

    flip: Optional[int] = None
    stuck: Optional[int] = None

    def apply(self, v: Value) -> Value:
        if self.flip is not None:
            raw = v.payload ^ self.flip
        else:
            raw = self.stuck
        payload = raw & 1 if v.width_mode is WidthMode.BIT else wrap16(raw)
        return Value(v.width_mode, payload)


@dataclass
class FunctionalCell:
    """One worker (F) or spare (R) cell of the fabric."""

    cell_id: CellId
    config: "CellConfig | None" = None  # set via configure(); genetic.CellConfig
    registers: InputRegisterBank | None = None
    pipeline: tuple[int, ...] = ()
    health: CellHealth = CellHealth.HEALTHY
    history: FaultHistory = field(default_factory=FaultHistory)
    injected_permanent: Optional[StuckBehavior] = None

    def configure(self, config) -> None:
        self.config = config
        self.registers = InputRegisterBank(config.width_mode)
        # constant-wired ports hold the immediate from configuration time on;
        # kind checked by name to keep cell free of the genetic-code module
        for port, sel in zip(PORT_ORDER, config.selectors):
            if sel.kind.name == "CONSTANT":
                self.registers.write(port, Value(config.width_mode, config.immediate), 0)
        self.pipeline = (0,) * config.delay_cycles
        self.history = FaultHistory()

    def voted_inputs(self) -> tuple[dict[Port, Value], dict[Port, int]]:
        voted: dict[Port, Value] = {}
        masks: dict[Port, int] = {}
        for p in PORT_ORDER:
            v, mask = self.registers.voted(p)
            voted[p] = v
            masks[p] = mask
        return voted, masks

    def self_check(self, voted: dict[Port, Value]) -> tuple[Value, Value, CheckResult]:
        """Evaluate primary and golden checker paths and compare their outputs.

        Returns (primary output, golden output, result).  The pipeline is
        advanced from the golden evaluation; an injected fault corrupts
        only the primary output value.
        """
        imm = Value(self.config.width_mode, self.config.immediate)
        golden, new_state = gfb_eval(self.config.opcode, voted, imm, self.pipeline)
        self.pipeline = new_state
        primary = golden
        if self.injected_permanent is not None:
            primary = self.injected_permanent.apply(golden)
        result = (
            CheckResult.CLEAN
            if primary.payload == golden.payload
            else CheckResult.MISMATCH
        )
        return primary, golden, result

    def step(self, t: int) -> tuple[Value, CheckResult, dict[Port, int]]:
        """One monitored evaluation: vote ports, evaluate, self-check.

        Returns the (possibly corrupted) primary output, the check result
        and the per-port dissent masks.  Must not be called on a
        deactivated cell; the fabric drives safe 0 for those.
        """
        if self.health is CellHealth.FAULTY_DEACTIVATED:
            raise RuntimeError(f"step on deactivated cell {self.cell_id}")
        voted, masks = self.voted_inputs()
        primary, _, result = self.self_check(voted)
        self.history.record(result, t)
        if not self.config.output_enable:
            primary = zero(self.config.width_mode)
        return primary, result, masks
