"""A run's fabric is restored from its program's initial state.

``build_routing`` keeps every slot's run-start state as immutable data
(``FabricProgram.initial_state``): ``cell.run_start`` of the slot's
configuration, which ``FunctionalCell.configure`` also uses, so this
test cannot tell the two apart; ``test_compile_pins.py`` pins the state
itself.  ``Fabric`` restores every cell from it and configures none.
The restored fabric must equal one configured cell by cell, in every
pinned cell and bank field and in the shape of ``binding``, ``sinks``,
``spares`` and ``cells``; and two fabrics of one program must share
nothing that a run writes.
"""

from hypothesis import given, settings, strategies as st

from cellfab.cell import CellHealth, CellId, FunctionalCell
from cellfab.fabric import Fabric
from cellfab.genetic import NOP_CONFIG
from cellfab.place import SLOTS_PER_LAYER

from test_wave_paths import scenarios


class ConfiguredFabric:
    """The fabric as built before the initial state: each slot's worker
    configured from its ``configs`` entry (the NOP filler's on an empty
    slot) and bound where a function is placed, then its idle spare."""

    def __init__(self, program):
        slots = program.placement.layer_count * SLOTS_PER_LAYER
        self.binding, self.cells, self.spares = [None] * slots, {}, []
        for fn_idx in range(slots):
            layer, slot = divmod(fn_idx, SLOTS_PER_LAYER)
            worker = FunctionalCell(CellId(layer, slot, "F"))
            worker.configure(program.configs.get(fn_idx, NOP_CONFIG))
            if fn_idx in program.configs:
                self.binding[fn_idx] = worker
            self.cells[str(worker.cell_id)] = worker
            spare = FunctionalCell(CellId(layer, slot, "R"), health=CellHealth.SPARE_IDLE)
            self.spares.append(spare)
            self.cells[str(spare.cell_id)] = spare
        self.sinks = list(self.binding)


def cell_fields(cell: FunctionalCell) -> dict:
    """Every field of a cell, its bank's fields in place of the bank."""
    state = dict(vars(cell))
    if cell.registers is not None:
        state["registers"] = dict(vars(cell.registers))
    return state


def shape(fabric) -> tuple:
    """Which cell, by name, each structure holds, in its order."""
    def names(cells):
        return [None if c is None else str(c.cell_id) for c in cells]

    return names(fabric.binding), names(fabric.sinks), names(fabric.spares), list(fabric.cells)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scenarios(), st.data())
def test_a_restored_fabric_is_a_configured_one_and_shares_nothing(case, data):
    program, _ = case
    before = program.initial_state
    hash(before)  # plain immutable data: a list or a dict in it would not hash
    fabric, other = Fabric(program), Fabric(program)
    reference = ConfiguredFabric(program)
    assert shape(fabric) == shape(reference)
    for name, cell in fabric.cells.items():
        assert cell_fields(cell) == cell_fields(reference.cells[name]), name
    assert all(c is fabric.cells[str(c.cell_id)] for c in fabric.binding + fabric.spares if c)
    assert all(s is c for s, c in zip(fabric.sinks, fabric.binding))
    assert fabric.published == [None] * len(fabric.binding) and not fabric.fail_safe

    # no mutable object of a run is another run's
    for name, cell in fabric.cells.items():
        twin = other.cells[name]
        assert cell is not twin
        if cell.registers is not None:
            assert cell.registers is not twin.registers
            assert cell.registers.values is not twin.registers.values
            assert cell.registers.overlay is not twin.registers.overlay

    # so a run's writes reach neither the other run nor the program
    fn_idx = data.draw(st.sampled_from([i for i, c in enumerate(fabric.binding) if c]))
    port = data.draw(st.integers(0, 3))
    bank = fabric.binding[fn_idx].registers
    bank.write(port, bank.values[port] ^ 1)
    bank.corrupt(port, 0, 1, None)
    fabric.binding[fn_idx].pipeline += (1,)
    assert program.initial_state is before
    for name, cell in other.cells.items():
        assert cell_fields(cell) == cell_fields(reference.cells[name]), name
    for name, cell in Fabric(program).cells.items():
        assert cell_fields(cell) == cell_fields(reference.cells[name]), name

