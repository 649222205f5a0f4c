"""Single functional cell semantics.

A functional cell evaluates one configurable operation (an IEC 61131-3
style function block) on up to four directional input ports.  Each port
is backed by three replica registers, so a corrupted replica is out-voted
without disturbing the output.  The replicas of a port are equal until a
transient corrupts one, so a port is stored as one int and only a
corrupted port (held in the bank's overlay) is voted.  The block has a
primary path, which carries any injected permanent fault, and a golden
checker path; a disagreement raises a mismatch, and a streak of them
marks the fault permanent.  The two paths can only disagree on a
cell with an injected permanent fault, so only such a cell runs both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

INT16_MIN = -32768
INT16_MAX = 32767
_EXCERPT = 40  # an error quotes at most this many characters of its input


def excerpt(text: str) -> str:
    """``text`` as an error quotes it: whole up to 40 characters, else its
    first 40 and ``...``, so that an error on any input is one short line."""
    return text if len(text) <= _EXCERPT else text[:_EXCERPT] + "..."


_INT_RE = re.compile(r"-?[0-9]+")
_MAX_DIGITS = 4300  # Python's own limit on int() of a decimal string


def parse_int(text: str, what: str) -> int:
    """``text`` as an int if it is ASCII digits after an optional minus,
    at most 4,300 of them: the one rule for an integer read from text.
    Never coerced: ``int()`` alone also reads ``1_0``, ``+1``, a padded or
    a non-ASCII digit, and refuses more digits in a long message of its own."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"{what} {excerpt(repr(text))} is not an integer")
    digits = len(text) - text.startswith("-")
    if digits > _MAX_DIGITS:
        raise ValueError(f"{what} {excerpt(text)} of {digits} digits is out of range")
    return int(text)


class WidthMode(Enum):
    BIT = 0
    INT16 = 1


# The per-evaluation path compares against module-level names bound to
# enum members (BIT and INT16 here, OP_* and the health names below), not
# against ``<Enum>.<MEMBER>``: on CPython before 3.12 such a class
# attribute read goes through EnumType.__getattr__, several times the cost
# of a global read.  Each name is the member object itself, so ``is``
# tests hold.
BIT, INT16 = WidthMode.BIT, WidthMode.INT16


class Port(Enum):
    NORTH = "N"
    WEST = "W"
    EAST = "E"
    SOUTH = "S"


PORT_ORDER = (Port.NORTH, Port.WEST, Port.EAST, Port.SOUTH)
NO_MASKS = (0, 0, 0, 0)


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


OP_NOP, OP_AND, OP_OR, OP_NOT = Opcode.NOP, Opcode.AND, Opcode.OR, Opcode.NOT
OP_ADD, OP_SUB, OP_MUL, OP_CMP = Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP
OP_DELAY, OP_MUX = Opcode.DELAY, Opcode.MUX

# Operand count per opcode.  Operands are assigned to ports in N, W, E, S
# order; ports beyond the arity stay unused and read 0.  Keyed, as
# INT16_ONLY_OPCODES and EVALUATORS are, by the member's ``_value_``: a
# member as a dict key or set element is hashed by Enum.__hash__, a
# Python-level call, on every lookup (and ``.value`` is a Python-level
# descriptor before 3.12).
OPCODE_ARITY = {
    OP_NOP._value_: 0,
    OP_AND._value_: 2,
    OP_OR._value_: 2,
    OP_NOT._value_: 1,
    OP_ADD._value_: 2,
    OP_SUB._value_: 2,
    OP_MUL._value_: 2,
    OP_CMP._value_: 2,
    OP_DELAY._value_: 1,
    OP_MUX._value_: 3,
}

# Arithmetic opcodes only make sense on 16-bit words; the bitwise and
# routing opcodes work in either width.
INT16_ONLY_OPCODES = {OP_ADD._value_, OP_SUB._value_, OP_MUL._value_, OP_CMP._value_}


def wrap16(x: int) -> int:
    """Wrap an integer into two's-complement INT16 range."""
    return ((x + 32768) & 0xFFFF) - 32768


def fit(width_mode: WidthMode, raw: int) -> int:
    """Reduce a raw integer to a width: the low bit, or a wrapped INT16 word.

    Signal values are plain ints: 0 or 1 for a BIT, a two's-complement
    word in [INT16_MIN, INT16_MAX] for an INT16.
    """
    if width_mode is BIT:
        return raw & 1
    return wrap16(raw)


# One definition per opcode and width: the output of one evaluation,
# f(n, w, e), on the voted N, W, E port values.  DELAY is absent: it
# shifts the cell's pipeline instead.  ``run_start`` picks the entry for
# a cell's (opcode, width) from EVALUATORS as its ``evaluate``, which
# ``step`` and the kernel's pristine pass both call.  Each runs in one
# frame: ADD, SUB and MUL wrap as ``wrap16`` does, MUL's Q8.8 product is
# truncated toward zero (``(p + 255) >> 8`` rounds a negative one up), and
# int16 AND, OR and NOT need no wrap, as a port holds a value of its width.
# tests/references.py composes each from ``wrap16`` and ``qmul``.
OPCODE_FUNCTIONS = {
    (OP_AND, BIT): lambda n, w, e: n & w & 1,
    (OP_AND, INT16): lambda n, w, e: n & w,
    (OP_OR, BIT): lambda n, w, e: (n | w) & 1,
    (OP_OR, INT16): lambda n, w, e: n | w,
    (OP_NOT, BIT): lambda n, w, e: ~n & 1,
    (OP_NOT, INT16): lambda n, w, e: ~n,
}
# the other opcodes read the same in either width
for _op, _function in {
    OP_NOP: lambda n, w, e: 0,
    OP_ADD: lambda n, w, e: ((n + w + 32768) & 0xFFFF) - 32768,
    OP_SUB: lambda n, w, e: ((n - w + 32768) & 0xFFFF) - 32768,
    OP_MUL: lambda n, w, e: (((p + 255 if (p := n * w) < 0 else p) >> 8) + 32768 & 0xFFFF) - 32768,
    OP_CMP: lambda n, w, e: 1 if n >= w else 0,
    OP_MUX: lambda n, w, e: w if n == 0 else e,
}.items():
    OPCODE_FUNCTIONS[_op, BIT] = OPCODE_FUNCTIONS[_op, INT16] = _function
del _op, _function
# the same functions keyed by ``(opcode._value_, width._value_)``
EVALUATORS = {(op._value_, width._value_): f for (op, width), f in OPCODE_FUNCTIONS.items()}


def vote(a: int, b: int, c: int) -> tuple[int, int]:
    """Majority vote over three replica values.

    Returns the majority value and a 3-bit mask with bit i set when
    replica i dissents.  If all three disagree the fallback is replica 0
    with mask 0b111; the caller escalates, this is not an error.
    """
    if a == b:
        if c == a:
            return a, 0b000
        return a, 0b100
    if a == c:
        return a, 0b010
    if b == c:
        return b, 0b001
    return a, 0b111


@dataclass
class InputRegisterBank:
    """Four triplicated input registers, indexed in PORT_ORDER (N, W, E, S).

    ``values`` holds each port's agreed value.  ``corrupt`` moves a port
    into ``overlay``, which holds its three replicas until the next
    ``write`` to that port drops it again.  ``changed`` is the one flag
    that says the cell must evaluate at its next step: a write sets it
    when it changes a value or drops an overlay port (the last output
    may come from a corrupted majority), ``corrupt`` sets it, and a step
    clears it only once the cell holds no fault state.
    """

    width_mode: WidthMode
    values: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    overlay: dict[int, list[int]] = field(default_factory=dict)
    changed: bool = True

    def write(self, port: int, v: int) -> None:
        """Set all three replicas of a port; clears any injected transient."""
        values = self.values
        if values[port] != v:
            values[port] = v
            self.changed = True
        if self.overlay and self.overlay.pop(port, None) is not None:
            self.changed = True

    def corrupt(self, port: int, replica: int, flip: Optional[int], stuck: Optional[int]) -> None:
        replicas = self.overlay.get(port)
        if replicas is None:
            replicas = self.overlay[port] = [self.values[port]] * 3
        raw = replicas[replica] ^ flip if flip is not None else stuck
        replicas[replica] = fit(self.width_mode, raw)
        self.changed = True

    def voted(self) -> tuple[list[int], tuple[int, int, int, int]]:
        """Port values and dissent masks in PORT_ORDER; overlay ports are voted."""
        inputs = list(self.values)
        masks = [0, 0, 0, 0]
        for port, replicas in self.overlay.items():
            inputs[port], masks[port] = vote(*replicas)
        return inputs, tuple(masks)


class CellHealth(Enum):
    HEALTHY = "healthy"
    SUSPECT_TRANSIENT = "suspect_transient"
    FAULTY_DEACTIVATED = "faulty_deactivated"
    SPARE_IDLE = "spare_idle"
    SPARE_ACTIVE = "spare_active"


HEALTHY = CellHealth.HEALTHY
SUSPECT_TRANSIENT = CellHealth.SUSPECT_TRANSIENT
FAULTY_DEACTIVATED = CellHealth.FAULTY_DEACTIVATED


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
            raise ValueError(f"bad cell id {excerpt(repr(text))}")
        return CellId(parse_int(m[1], "layer"), parse_int(m[3], "slot"), m[2])


@dataclass
class StuckBehavior:
    """Injected permanent misbehaviour of the primary evaluation path.

    Either XORs the output with ``flip`` or forces it to ``stuck``.
    Applied to the primary path only; the golden checker path is clean.
    """

    flip: Optional[int] = None
    stuck: Optional[int] = None

    def apply(self, width_mode: WidthMode, v: int) -> int:
        return fit(width_mode, v ^ self.flip if self.flip is not None else self.stuck)


def run_start(config) -> tuple[tuple[int, ...], tuple[int, ...], Optional[Callable]]:
    """A cell configured with ``config`` at run start: its port values in
    PORT_ORDER (a constant-wired port holds the immediate, any other 0), its
    pipeline and its ``evaluate``, a plain function (a bound method would be
    a reference cycle), none for a DELAY.  The selector kind is read by name
    to keep cell free of the genetic-code module."""
    opcode, width, immediate = config.opcode, config.width_mode, config.immediate
    evaluate = None if opcode is OP_DELAY else EVALUATORS[opcode._value_, width._value_]
    values = [0, 0, 0, 0]
    for port, sel in enumerate(config.selectors if immediate else ()):  # PORT_ORDER
        if sel.kind._name_ == "CONSTANT":
            if fit(width, immediate) != immediate:
                raise ValueError(f"immediate {immediate} does not fit {width.name.lower()}")
            values[port] = immediate
    return tuple(values), (0,) * config.delay_cycles, evaluate


@dataclass
class FunctionalCell:
    """One worker (F) or spare (R) cell of the fabric."""

    cell_id: CellId
    config: "CellConfig | None" = None  # set via configure(); genetic.CellConfig
    registers: InputRegisterBank | None = None
    pipeline: tuple[int, ...] = ()
    health: CellHealth = CellHealth.HEALTHY
    mismatch_streak: int = 0  # consecutive self-check mismatches
    injected_permanent: Optional[StuckBehavior] = None
    evaluate: Optional[Callable[[int, int, int], int]] = None  # set via configure()

    def configure(self, config) -> None:
        self.config = config
        values, self.pipeline, self.evaluate = run_start(config)
        self.registers = InputRegisterBank(config.width_mode, list(values))
        self.mismatch_streak = 0

    def step(self) -> tuple[int, bool, tuple[int, int, int, int]]:
        """One monitored evaluation: vote ports, evaluate, self-check.

        The block is evaluated once on the voted inputs, the golden
        checker path: the cell's bound ``evaluate`` on the N, W, E values,
        or for a DELAY a shift of the North sample through its k-stage
        ``pipeline``.  A DELAY outputs the element shifted in k-1 clocks
        ago; its input register adds one cycle of capture latency, so the
        delay seen at the output is exactly k stimulus periods.  An
        injected fault corrupts only the primary copy of that output, and
        the two are compared.  A mismatch extends ``mismatch_streak`` and
        a clean check ends it.  Returns the (possibly corrupted) primary
        output, whether the check mismatched and the dissent masks in
        PORT_ORDER.  Must not be called on a deactivated cell; the fabric
        drives safe 0 for those.

        ``step`` always evaluates.  It leaves the bank's ``changed`` flag
        set while the cell holds fault state (an overlay port or an
        injected permanent fault) and clears it otherwise, so that the
        kernel can skip the call for a quiet cell (``Engine._evaluate``),
        and call ``evaluate`` or shift the pipeline itself while no cell
        holds fault state (the pristine pass of ``Engine._handle_clock``).
        """
        if self.health is FAULTY_DEACTIVATED:
            raise RuntimeError(f"step on deactivated cell {self.cell_id}")
        registers = self.registers
        config = self.config
        if registers.overlay:
            inputs, masks = registers.voted()
        else:
            inputs, masks = registers.values, NO_MASKS
        evaluate = self.evaluate
        if evaluate is None:
            pipeline = self.pipeline = self.pipeline[1:] + (inputs[0],)
            primary = pipeline[0]
        else:
            primary = evaluate(inputs[0], inputs[1], inputs[2])
        mismatch = False
        if self.injected_permanent is not None:  # else the paths cannot differ
            golden = primary
            primary = self.injected_permanent.apply(config.width_mode, golden)
            mismatch = primary != golden
            self.mismatch_streak = self.mismatch_streak + 1 if mismatch else 0
        if not config.output_enable:
            primary = 0
        registers.changed = bool(registers.overlay) or self.injected_permanent is not None
        return primary, mismatch, masks
