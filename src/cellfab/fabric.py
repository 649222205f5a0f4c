"""The layered cell fabric and its healing state machine.

A fabric is a stack of critical-service layers, each holding four worker
(F) cells and four spare (R) cells.  Application functions are bound to
worker cells; when a permanent fault kills a cell the local layer heals
it in three steps (deactivate, reroute, restore) using one of its
spares, and when local spares run out the global layer pulls the nearest
idle spare from any layer.  With no spare left anywhere the fabric drops
into fail-safe: every primary output is forced to 0 and an alarm is
latched while the simulation keeps recording.  The heal timeline itself
lives in the trace (``syndrome_action`` records); the fabric keeps only
the state the kernel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cell import CellHealth, CellId, FunctionalCell, InputRegisterBank
from .genetic import CellConfig, InputSelector, SelectorKind
from .place import FabricProgram, SLOTS_PER_LAYER


class HealAction(Enum):
    DEACTIVATE = "deactivate"
    REROUTE = "reroute"
    RESTORE = "restore"


@dataclass
class HealthSyndrome:
    """One detected permanent fault: the payload of its heal events."""

    cell_id: CellId
    detect_time: int
    function_index: int
    chosen_spare: Optional[CellId] = None


@dataclass
class CriticalServiceLayer:
    """Four worker cells plus four pre-generated spare cells."""

    index: int
    f_cells: list[FunctionalCell]
    r_cells: list[FunctionalCell]
    spare_codes: list[int]


class Fabric:
    """Run-time state of a configured fabric; owned by one simulation run.

    Every static table lives in the shared ``program``, which no run
    writes; ``readers`` is that program's own table.  Healing changes
    only which cells serve a function, kept in ``sinks[fn_idx]``: the
    cells whose registers take that function's inputs.  The
    per-function lists (``binding``, ``sinks``, ``published``) are
    indexed by function, None on a slot no function is placed in.
    """

    def __init__(self, program: FabricProgram):
        self.program = program
        self.readers = program.readers
        self.layers: list[CriticalServiceLayer] = []
        slots = len(program.layers) * SLOTS_PER_LAYER
        self.binding: list[Optional[FunctionalCell]] = [None] * slots
        self.cells: dict[str, FunctionalCell] = {}
        self.reserved: set[str] = set()
        self.fail_safe = False  # latched once no spare is left for a syndrome

        for lp in program.layers:
            f_cells, r_cells = [], []
            for slot in range(SLOTS_PER_LAYER):
                fcell = FunctionalCell(CellId(lp.index, slot, "F"))
                fcell.configure(lp.worker_configs[slot])
                f_cells.append(fcell)
                if lp.worker_nodes[slot] is not None:
                    self.binding[lp.index * SLOTS_PER_LAYER + slot] = fcell
                self.cells[str(fcell.cell_id)] = fcell
                rcell = FunctionalCell(CellId(lp.index, slot, "R"))
                rcell.health = CellHealth.SPARE_IDLE
                r_cells.append(rcell)
                self.cells[str(rcell.cell_id)] = rcell
            # spare codes are run state: a copy of the program's
            self.layers.append(
                CriticalServiceLayer(lp.index, f_cells, r_cells, list(lp.spare_codes))
            )

        self.input_values: dict[str, int] = {}
        self.published: list[Optional[int]] = [None] * slots
        self.sinks = [None if cell is None else [cell] for cell in self.binding]

    # ---- wiring ------------------------------------------------------

    def route(self, source: str | int, value: int) -> list[tuple[int, int]]:
        """Write a source's value into every cell serving one of its readers.

        Returns the ``(fn_idx, port)`` readers of ``source``.
        """
        readers = self.readers[source]
        sinks = self.sinks
        for fn_idx, port in readers:
            for cell in sinks[fn_idx]:
                cell.registers.write(port, value)
        return readers

    def source_value(self, config: CellConfig, sel: InputSelector) -> int:
        """Current value a port with selector ``sel`` of ``config`` draws."""
        if sel.kind is SelectorKind.PRIMARY_INPUT:
            return self.input_values.get(self.program.netlist.inputs[sel.index][0], 0)
        if sel.kind is SelectorKind.CELL_OUTPUT:
            return self.published[sel.index] or 0
        if sel.kind is SelectorKind.CONSTANT:
            return config.immediate
        return 0

    # ---- spare management --------------------------------------------

    def allocate_spare(self, from_layer: int) -> Optional[CellId]:
        """Nearest-layer idle, unreserved spare; None when none is left.

        The faulty cell's own layer comes first, the lower layer wins a
        tie of distance, and the lowest slot wins within a layer.
        """
        return min(
            self.free_spares(),
            key=lambda c: (abs(c.layer - from_layer), c.layer, c.slot),
            default=None,
        )

    def reserve(self, cell_id: CellId) -> None:
        self.reserved.add(str(cell_id))

    def free_spares(self) -> list[CellId]:
        out = []
        for layer in self.layers:
            for cell in layer.r_cells:
                if cell.health is CellHealth.SPARE_IDLE and str(cell.cell_id) not in self.reserved:
                    out.append(cell.cell_id)
        return out

    # ---- healing state transitions -----------------------------------

    def deactivate(self, syndrome: HealthSyndrome) -> None:
        cell = self.cells[str(syndrome.cell_id)]
        cell.health = CellHealth.FAULTY_DEACTIVATED
        self.sinks[syndrome.function_index].remove(cell)

    def reroute(self, syndrome: HealthSyndrome) -> None:
        config = self.program.configs[syndrome.function_index]
        spare = self.cells[str(syndrome.chosen_spare)]
        width = config.width_mode
        if spare.registers is None or spare.registers.width_mode is not width:
            spare.registers = InputRegisterBank(width)
        for port, sel in enumerate(config.selectors):
            spare.registers.write(port, self.source_value(config, sel))
        self.sinks[syndrome.function_index].append(spare)

    def restore(self, syndrome: HealthSyndrome) -> None:
        fn_idx = syndrome.function_index
        spare = self.cells[str(syndrome.chosen_spare)]
        registers = spare.registers  # keep the data routed in at reroute time
        spare.configure(self.program.configs[fn_idx])
        spare.registers = registers
        spare.health = CellHealth.SPARE_ACTIVE
        self.binding[fn_idx] = spare
        self.sinks[fn_idx] = [spare]
        self.reserved.discard(str(spare.cell_id))
