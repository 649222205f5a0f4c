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
from .place import FabricProgram


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
    with a bank and ``values`` list of its own, not configured.  ``spares`` lists
    the spare (R) cells in (layer, slot) order; a spare is idle until
    ``allocate_spare`` claims it.  Healing changes only which cell
    serves a function: ``binding[fn_idx]`` is the cell evaluated for
    it, ``sinks[fn_idx]`` the cell whose registers take its inputs.
    The two differ only between a syndrome's reroute and its restore.
    The per-function lists (``binding``, ``sinks``, ``published``) are
    indexed by function, None on a slot no function is placed in.
    """

    def __init__(self, program: FabricProgram):
        self.program = program
        self.binding: list[Optional[FunctionalCell]] = []
        self.cells: dict[str, FunctionalCell] = {}
        self.spares: list[FunctionalCell] = []
        for fn_idx, (worker_id, worker_key, config, values, pipeline, evaluate,
                     spare_id, spare_key) in enumerate(program.initial_state):
            bank = InputRegisterBank(config.width_mode, list(values))
            worker = self.cells[worker_key] = FunctionalCell(
                worker_id, config, bank, pipeline, evaluate=evaluate)
            self.binding.append(worker if fn_idx in program.configs else None)
            spare = self.cells[spare_key] = FunctionalCell(spare_id, health=CellHealth.SPARE_IDLE)
            self.spares.append(spare)
        self.sinks = list(self.binding)
        self.published: list[Optional[int]] = [None] * len(self.binding)
        self.fail_safe = False  # latched once no spare is left for a syndrome

    # ---- spare management --------------------------------------------

    def allocate_spare(self, from_layer: int) -> Optional[CellId]:
        """Claim the nearest-layer idle spare; None when none is left.

        The faulty cell's own layer comes first, the lower layer wins a
        tie of distance, and the lowest slot wins within a layer.  The
        spare returned is active from here on, so no later syndrome
        gets it too.
        """
        chosen = min(
            self.free_spares(),
            key=lambda c: (abs(c.layer - from_layer), c.layer, c.slot),
            default=None,
        )
        if chosen is not None:
            self.cells[str(chosen)].health = CellHealth.SPARE_ACTIVE
        return chosen

    def free_spares(self) -> list[CellId]:
        return [c.cell_id for c in self.spares if c.health is CellHealth.SPARE_IDLE]

    # ---- healing state transitions -----------------------------------

    def deactivate(self, syndrome: HealthSyndrome) -> None:
        """Take the faulty cell out of service.  It is never evaluated
        again, and it stays its function's sink until reroute."""
        self.cells[str(syndrome.cell_id)].health = CellHealth.FAULTY_DEACTIVATED

    def reroute(self, syndrome: HealthSyndrome) -> None:
        """Hand the function's inputs to the spare: it takes a copy of the
        sink's port values and becomes the sink.  A transient lives in the
        sink's overlay only, so the copy holds the values routed in."""
        fn_idx = syndrome.function_index
        sink = self.sinks[fn_idx]
        spare = self.cells[str(syndrome.chosen_spare)]
        spare.registers = InputRegisterBank(sink.registers.width_mode, list(sink.registers.values))
        self.sinks[fn_idx] = spare

    def restore(self, syndrome: HealthSyndrome) -> None:
        """Configure the spare from its function's genetic code, decoded
        and parity-checked here, and make it the function's evaluated
        cell; the data routed in since reroute stays in its ports."""
        fn_idx = syndrome.function_index
        spare = self.cells[str(syndrome.chosen_spare)]
        registers = spare.registers
        spare.configure(decode_genetic(self.program.spare_codes[fn_idx]))
        spare.registers = registers
        self.binding[fn_idx] = spare
