"""Cell configuration and its 66-bit packed genetic code.

The packed layout is this artifact's frozen contract:

    bits 65..61  opcode (5 bits)
    bits 60..29  four 8-bit input selectors, N,W,E,S order
                 (each selector: 2-bit kind, 6-bit index)
    bits 28..13  immediate (16 bits, two's complement)
    bits 12..5   delay stages (8 bits)
    bit  4       output enable
    bits 3..2    width mode (0 = BIT, 1 = INT16)
    bit  1       even parity over bits 65..34
    bit  0       even parity over bits 33..2

Any single-bit corruption of bits 65..2 lands in exactly one parity
group and is rejected on decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cell import INT16_MAX, INT16_MIN, OP_DELAY, Opcode, PORT_ORDER, WidthMode

WORD_BITS = 66
HEX_DIGITS = 17  # 68-bit container, top two bits always zero


class GeneticCodeError(ValueError):
    """Base class for genetic code rejection."""


class CorruptedCodeError(GeneticCodeError):
    """Parity check failed: the word was corrupted in transit or storage."""


class InvalidCodeError(GeneticCodeError):
    """Well-formed word but a field holds a reserved or inconsistent value."""


class SelectorKind(Enum):
    PRIMARY_INPUT = 0
    CELL_OUTPUT = 1
    CONSTANT = 2
    UNUSED = 3


# compared against in the compile path, as cell.py binds its enum members
SEL_INPUT, SEL_OUTPUT, SEL_CONSTANT, SEL_UNUSED = SelectorKind


@dataclass(frozen=True)
class InputSelector:
    """Where one input port draws its data from.

    Index addresses a primary input or a cell output; a constant selector
    draws the cell's immediate and an unused port reads 0, both with
    index 0 canonically.
    """

    kind: SelectorKind
    index: int = 0

    def __post_init__(self):
        if not (0 <= self.index <= 63):
            raise InvalidCodeError(f"selector index out of range: {self.index}")
        if self.index != 0 and self.kind in (SEL_CONSTANT, SEL_UNUSED):
            raise InvalidCodeError(f"{self.kind.name} selector must have index 0")


UNUSED = InputSelector(SEL_UNUSED)


@dataclass(frozen=True)
class CellConfig:
    """Complete configuration of one functional cell."""

    opcode: Opcode
    selectors: tuple[InputSelector, InputSelector, InputSelector, InputSelector]
    immediate: int = 0
    delay_cycles: int = 0
    output_enable: bool = True
    width_mode: WidthMode = WidthMode.BIT

    def validate(self) -> None:
        if not (INT16_MIN <= self.immediate <= INT16_MAX):
            raise InvalidCodeError(f"immediate out of range: {self.immediate}")
        if not (0 <= self.delay_cycles <= 255):
            raise InvalidCodeError(f"delay_cycles out of range: {self.delay_cycles}")
        if self.opcode is OP_DELAY and self.delay_cycles < 1:
            raise InvalidCodeError("delay_cycles must be >= 1 for DELAY")
        if self.opcode is not OP_DELAY and self.delay_cycles != 0:
            raise InvalidCodeError("delay_cycles must be 0 for non-DELAY opcodes")


# safe filler configuration for unoccupied worker slots
NOP_CONFIG = CellConfig(
    opcode=Opcode.NOP, selectors=(UNUSED, UNUSED, UNUSED, UNUSED), output_enable=False
)


def _parity_bits(word_without_parity: int) -> int:
    hi = (word_without_parity >> 34) & ((1 << 32) - 1)
    lo = (word_without_parity >> 2) & ((1 << 32) - 1)
    p1 = hi.bit_count() & 1
    p0 = lo.bit_count() & 1
    return (p1 << 1) | p0


def encode_genetic(config: CellConfig) -> int:
    """Pack a cell configuration into its 66-bit genetic code word."""
    config.validate()
    word = config.opcode._value_ << 61  # not .value, a Python-level descriptor before 3.12
    shift = 53
    for sel in config.selectors:
        word |= ((sel.kind._value_ << 6) | sel.index) << shift
        shift -= 8
    word |= (config.immediate & 0xFFFF) << 13
    word |= config.delay_cycles << 5
    word |= (1 if config.output_enable else 0) << 4
    word |= config.width_mode._value_ << 2
    word |= _parity_bits(word)
    return word


NOP_CODE = encode_genetic(NOP_CONFIG)  # the empty slots' filler, encoded once


def decode_genetic(word: int) -> CellConfig:
    """Unpack and verify a 66-bit genetic code word.

    Raises CorruptedCodeError on a parity failure and InvalidCodeError on
    reserved opcodes, reserved width modes or inconsistent fields.
    """
    if not (0 <= word < (1 << WORD_BITS)):
        raise InvalidCodeError(f"word is not a {WORD_BITS}-bit value")
    if (word & 0b11) != _parity_bits(word):
        raise CorruptedCodeError("parity check failed")
    opcode_bits = (word >> 61) & 0b11111
    try:
        opcode = Opcode(opcode_bits)
    except ValueError:
        raise InvalidCodeError(f"reserved opcode {opcode_bits}") from None
    selectors = []
    shift = 53
    for _ in range(4):
        raw = (word >> shift) & 0xFF
        selectors.append(InputSelector(SelectorKind(raw >> 6), raw & 0x3F))
        shift -= 8
    immediate = (word >> 13) & 0xFFFF
    if immediate >= 0x8000:
        immediate -= 0x10000
    delay_cycles = (word >> 5) & 0xFF
    output_enable = bool((word >> 4) & 1)
    width_bits = (word >> 2) & 0b11
    if width_bits > 1:
        raise InvalidCodeError(f"reserved width mode {width_bits}")
    config = CellConfig(
        opcode=opcode,
        selectors=tuple(selectors),
        immediate=immediate,
        delay_cycles=delay_cycles,
        output_enable=output_enable,
        width_mode=WidthMode(width_bits),
    )
    config.validate()
    return config


def to_hex(word: int) -> str:
    """17 hex digit dump of a genetic code word (68-bit container)."""
    return format(word, f"0{HEX_DIGITS}x")


def from_hex(text: str) -> int:
    """The word of exactly 17 hex digits (either case; no sign, ``_`` or whitespace)."""
    text = text.lower()
    if len(text) != HEX_DIGITS:
        raise InvalidCodeError(f"expected {HEX_DIGITS} hex digits, got {len(text)}")
    bad = [c for c in text if c not in "0123456789abcdef"]
    if bad:
        raise InvalidCodeError(f"not a hex digit: {bad[0]!r}")
    word = int(text, 16)
    if word >= (1 << WORD_BITS):
        raise InvalidCodeError("top container bits must be zero")
    return word


def format_config(config: CellConfig) -> str:
    """Human-readable disassembly of a cell configuration."""
    lines = [
        f"opcode        {config.opcode.name}",
    ]
    for port, sel in zip(PORT_ORDER, config.selectors):
        if sel.kind is SelectorKind.PRIMARY_INPUT:
            src = f"primary_input[{sel.index}]"
        elif sel.kind is SelectorKind.CELL_OUTPUT:
            src = f"cell_output[{sel.index}]"
        elif sel.kind is SelectorKind.CONSTANT:
            src = "constant(immediate)"
        else:
            src = "unused"
        lines.append(f"port {port.value:<9} {src}")
    lines.append(f"immediate     {config.immediate}")
    lines.append(f"delay_cycles  {config.delay_cycles}")
    lines.append(f"output_enable {'on' if config.output_enable else 'off'}")
    lines.append(f"width_mode    {config.width_mode.name}")
    return "\n".join(lines)
