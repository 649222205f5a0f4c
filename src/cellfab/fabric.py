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
from .genetic import decode_genetic
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


class Fabric:
    """Run-time state of a configured fabric; owned by one simulation run.

    Every static table lives in the shared ``program``, which no run
    writes.  Each cell is restored from the program's ``initial_state``,
    with a bank and ``values`` list of its own, not configured.
    ``workers`` and ``spares`` hold the F and R cells by slot, ``layer *
    4 + slot``; a spare is idle until ``allocate_spare`` claims it.
    ``binding[fn_idx]`` is the cell evaluated for a function and
    ``banks[fn_idx]`` its one input bank for the whole run: healing
    changes only which cell holds it and which is evaluated.  The
    per-function lists (``binding``, ``banks``, ``published``) are
    indexed by function, None on a slot no function is placed in.
    """

    def __init__(self, program: FabricProgram):
        self.program = program
        self.workers: list[FunctionalCell] = []
        self.spares: list[FunctionalCell] = []
        for worker, config, values, pipeline, evaluate, spare in program.initial_state:
            bank = InputRegisterBank(config.width_mode, list(values))
            self.workers.append(FunctionalCell(worker, config, bank, pipeline, evaluate=evaluate))
            self.spares.append(FunctionalCell(spare, health=CellHealth.SPARE_IDLE))
        self.binding: list[Optional[FunctionalCell]] = [
            c if i in program.configs else None for i, c in enumerate(self.workers)]
        self.banks: list[Optional[InputRegisterBank]] = [c and c.registers for c in self.binding]
        self.published: list[Optional[int]] = [None] * len(self.binding)
        self.fail_safe = False  # latched once no spare is left for a syndrome

    def cell(self, cell_id: CellId) -> FunctionalCell:
        """The worker or spare ``cell_id``; KeyError if ``program.has_cell`` refuses it."""
        if not self.program.has_cell(cell_id):
            raise KeyError(str(cell_id))
        cells = self.workers if cell_id.kind == "F" else self.spares
        return cells[cell_id.layer * SLOTS_PER_LAYER + cell_id.slot]

    # ---- spare management --------------------------------------------

    def allocate_spare(self, from_layer: int) -> Optional[CellId]:
        """Claim the nearest-layer idle spare; None when none is left.

        The faulty cell's own layer comes first, the lower layer wins a
        tie of distance, and the lowest slot wins within a layer: ``min``
        keeps the first of equal keys in the (layer, slot) order of
        ``spares``.  The spare returned is active from here on, so no
        later syndrome gets it too.
        """
        chosen = min(
            (c for c in self.spares if c.health is CellHealth.SPARE_IDLE),
            key=lambda c: abs(c.cell_id.layer - from_layer),
            default=None,
        )
        if chosen is None:
            return None
        chosen.health = CellHealth.SPARE_ACTIVE
        return chosen.cell_id

    def free_spares(self) -> list[CellId]:
        return [c.cell_id for c in self.spares if c.health is CellHealth.SPARE_IDLE]

    # ---- healing state transitions -----------------------------------

    def deactivate(self, syndrome: HealthSyndrome) -> None:
        """Take the faulty cell out of service.  It is never evaluated
        again, and it holds its function's bank until reroute."""
        self.cell(syndrome.cell_id).health = CellHealth.FAULTY_DEACTIVATED

    def reroute(self, syndrome: HealthSyndrome) -> None:
        """Hand the function's bank to the spare; the deactivated cell
        keeps none.  A transient lives in the bank's overlay only, so the
        spare, with the overlay dropped, holds the values routed in.
        ``changed`` stays set: the faulty cell holds a permanent fault."""
        bank = self.banks[syndrome.function_index]
        bank.overlay.clear()
        self.cell(syndrome.cell_id).registers = None
        self.cell(syndrome.chosen_spare).registers = bank

    def restore(self, syndrome: HealthSyndrome) -> None:
        """Configure the spare from its function's genetic code, decoded
        and parity-checked here, and make it the function's evaluated
        cell; the data routed in since reroute stays in its bank."""
        fn_idx = syndrome.function_index
        spare = self.cell(syndrome.chosen_spare)
        spare.configure(decode_genetic(self.program.spare_codes[fn_idx]))
        spare.registers = self.banks[fn_idx]
        self.binding[fn_idx] = spare
