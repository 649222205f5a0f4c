"""The 66-bit configuration word a spare cell loads to take over a function.

Everything a cell does fits one word: opcode, four port selectors, an
immediate constant, delay stages, output enable and width mode, sealed
with two parity bits so a corrupted word is rejected instead of loaded.
"""

from cellfab.cell import Opcode, WidthMode
from cellfab.genetic import (
    CellConfig,
    CorruptedCodeError,
    InputSelector,
    SelectorKind,
    UNUSED,
    decode_genetic,
    encode_genetic,
    format_config,
    to_hex,
)

config = CellConfig(
    opcode=Opcode.MUX,
    selectors=(
        InputSelector(SelectorKind.CELL_OUTPUT, 14),
        InputSelector(SelectorKind.PRIMARY_INPUT, 2),
        InputSelector(SelectorKind.CONSTANT),
        UNUSED,
    ),
    immediate=100,
    width_mode=WidthMode.INT16,
)
word = encode_genetic(config)
print(f"packed word: {to_hex(word)}  ({word.bit_length()} significant bits)\n")
print(format_config(decode_genetic(word)))

# flip any single bit and the decoder refuses the word
flipped = word ^ (1 << 40)
print(f"\nflipping bit 40 -> {to_hex(flipped)}")
try:
    decode_genetic(flipped)
except CorruptedCodeError as exc:
    print(f"decode rejected: {exc}")
