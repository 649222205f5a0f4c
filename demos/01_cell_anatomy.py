"""Tour of a single functional cell.

Each cell evaluates one configurable operation on four directional
ports.  Every port is stored three times and voted, so flipping one
replica never changes what the cell computes, and a duplicated checker
path flags any corruption of the logic itself.
"""

from cellfab.cell import (
    CellId,
    FunctionalCell,
    Opcode,
    StuckBehavior,
    WidthMode,
    vote,
)
from cellfab.genetic import CellConfig, InputSelector, SelectorKind, UNUSED

# --- the ten operations ----------------------------------------------------


def configured(op: Opcode) -> FunctionalCell:
    """A 16-bit cell configured for ``op``; configuring binds its evaluator."""
    cell = FunctionalCell(CellId(0, 0, "F"))
    cell.configure(CellConfig(op, (UNUSED,) * 4, width_mode=WidthMode.INT16))
    return cell


# signal values are plain ints; the evaluator reads the N, W and E ports
for op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP, Opcode.MUX):
    print(f"{op.name:5s} N=6 W=4 E=9 -> {configured(op).evaluate(6, 4, 9)}")
# MUL is a Q8.8 product: 6 * 4/256 truncates to 0; scale one side by 1.0=256
print(f"MUL   N=6 W=1.0(q8.8) -> {configured(Opcode.MUL).evaluate(6, 256, 9)}")

# --- triplicated storage masks register hits --------------------------------

value, mask = vote(5, 5, 5)
print(f"\nvote(5,5,5)  -> {value}, dissent mask {mask:03b}")
value, mask = vote(5, -77, 5)
print(f"vote(5,-77,5) -> {value}, dissent mask {mask:03b}  (hit masked)")

# --- a live cell with a self-checking evaluation path -----------------------

cell = FunctionalCell(CellId(0, 0, "F"))
cell.configure(
    CellConfig(
        opcode=Opcode.AND,
        selectors=(
            InputSelector(SelectorKind.PRIMARY_INPUT, 0),
            InputSelector(SelectorKind.PRIMARY_INPUT, 1),
            UNUSED,
            UNUSED,
        ),
        width_mode=WidthMode.BIT,
    )
)
NORTH, WEST = 0, 1  # register ports are indexed in N, W, E, S order
cell.registers.write(NORTH, 1)
cell.registers.write(WEST, 1)

out, mismatch, masks = cell.step()
print(f"\nhealthy AND cell: output {out}, mismatch {mismatch}")

# corrupt one replica: the voter hides it and reports which copy lied
cell.registers.corrupt(NORTH, 1, flip=1, stuck=None)
out, mismatch, masks = cell.step()  # one dissent mask per port, N, W, E, S
print(f"after a register hit: output {out}, mismatch {mismatch}, "
      f"north dissent {masks[0]:03b}")

# break the logic itself: the checker path disagrees immediately
cell.injected_permanent = StuckBehavior(stuck=0)
out, mismatch, _ = cell.step()
print(f"stuck-at-0 logic:    output {out}, mismatch {mismatch}")
out, mismatch, _ = cell.step()
# the kernel deems the fault permanent once the streak reaches the threshold (2)
print(f"second strike:       output {out}, mismatch {mismatch}, "
      f"mismatch streak {cell.mismatch_streak}")
