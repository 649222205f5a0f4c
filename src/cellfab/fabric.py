"""The layered cell fabric and its healing state machine.

A fabric is a stack of critical-service layers, each holding four worker
(F) cells and four spare (R) cells.  Application functions are bound to
worker cells; when a permanent fault kills a cell the local layer heals
it in three steps (deactivate, reroute, restore) using one of its
spares, and when local spares run out the global layer pulls the nearest
idle spare from any layer.  With no spare left anywhere the fabric drops
into fail-safe: every primary output is forced to 0 and an alarm is
latched while the simulation keeps recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .cell import (
    CellHealth,
    CellId,
    FunctionalCell,
    InputRegisterBank,
    Opcode,
    Port,
    PORT_ORDER,
    WidthMode,
)
from .genetic import CellConfig, SelectorKind, encode_genetic
from .netlist import NetNode, depth as depth_report, eval_level
from .place import FabricProgram, SLOTS_PER_LAYER


class HealAction(Enum):
    DEACTIVATE = "deactivate"
    REROUTE = "reroute"
    RESTORE = "restore"


@dataclass
class HealthSyndrome:
    """Record of one detected permanent fault and its healing action sequence."""

    cell_id: CellId
    detect_time: int
    function_index: Optional[int] = None
    chosen_spare: Optional[CellId] = None
    actions: list[tuple[HealAction, int]] = field(default_factory=list)

    def action_time(self, action: HealAction) -> Optional[int]:
        for a, t in self.actions:
            if a is action:
                return t
        return None


class Alarm(Enum):
    NONE = "none"
    DEGRADED = "degraded"
    FAIL_SAFE = "fail_safe"


@dataclass
class GlobalHealthMap:
    cells: dict[str, CellHealth]
    free_spares: list[CellId]
    alarm: Alarm


@dataclass
class CriticalServiceLayer:
    """Four worker cells plus four pre-generated spare cells."""

    index: int
    f_cells: list[FunctionalCell]
    r_cells: list[FunctionalCell]
    spare_codes: list[int]


@dataclass
class FabricFunction:
    """One placed application function (a netlist node on the fabric)."""

    index: int
    node: NetNode
    layer: int
    slot: int
    width: WidthMode
    level: int  # wave level; 0 for DELAY cells which capture on the clock
    config: CellConfig
    code: int


class Fabric:
    """Run-time state of a configured fabric; owned by one simulation run."""

    def __init__(self, program: FabricProgram):
        self.program = program
        self.netlist = program.netlist
        report = depth_report(self.netlist)
        self.layers: list[CriticalServiceLayer] = []
        self.functions: dict[int, FabricFunction] = {}
        self.binding: dict[int, FunctionalCell] = {}
        self.cells: dict[str, FunctionalCell] = {}
        self.reserved: set[str] = set()
        self.listeners: dict[int, FunctionalCell] = {}  # fn -> rerouted spare
        self.alarm = Alarm.NONE

        for lp in program.layers:
            f_cells, r_cells = [], []
            for slot in range(SLOTS_PER_LAYER):
                fcell = FunctionalCell(CellId(lp.index, slot, "F"))
                fcell.configure(lp.worker_configs[slot])
                f_cells.append(fcell)
                self.cells[str(fcell.cell_id)] = fcell
                rcell = FunctionalCell(CellId(lp.index, slot, "R"))
                rcell.health = CellHealth.SPARE_IDLE
                r_cells.append(rcell)
                self.cells[str(rcell.cell_id)] = rcell
            self.layers.append(
                CriticalServiceLayer(lp.index, f_cells, r_cells, list(lp.spare_codes))
            )
            for slot, name in enumerate(lp.worker_nodes):
                if name is None:
                    continue
                node = self.netlist.node(name)
                fn = FabricFunction(
                    index=lp.index * SLOTS_PER_LAYER + slot,
                    node=node,
                    layer=lp.index,
                    slot=slot,
                    width=self.netlist.widths[name],
                    level=eval_level(self.netlist, node, report),
                    config=lp.worker_configs[slot],
                    code=encode_genetic(lp.worker_configs[slot]),
                )
                self.functions[fn.index] = fn
                self.binding[fn.index] = f_cells[slot]

        self.input_index = dict(program.placement.input_binding)
        self.input_values: dict[str, int] = {}
        self.published: dict[int, Optional[int]] = {f: None for f in self.functions}
        self.output_binding = dict(program.output_binding)
        self._consumers: Optional[dict] = None

    # ---- wiring ------------------------------------------------------

    def rebuild_consumers(self) -> None:
        """(cell, port) sinks per source, for routing published values."""
        by_input: dict[str, list[tuple[FunctionalCell, Port]]] = {
            name: [] for name in self.input_index
        }
        by_fn: dict[int, list[tuple[FunctionalCell, Port]]] = {
            idx: [] for idx in self.functions
        }
        idx_to_name = {i: n for n, i in self.input_index.items()}

        def wire(cell: FunctionalCell, fn: FabricFunction) -> None:
            for port, sel in zip(PORT_ORDER, fn.config.selectors):
                if sel.kind is SelectorKind.PRIMARY_INPUT:
                    by_input[idx_to_name[sel.index]].append((cell, port))
                elif sel.kind is SelectorKind.CELL_OUTPUT:
                    by_fn[sel.index].append((cell, port))

        for fn_idx in sorted(self.functions):
            cell = self.binding[fn_idx]
            if cell.health is not CellHealth.FAULTY_DEACTIVATED:
                wire(cell, self.functions[fn_idx])
        for fn_idx in sorted(self.listeners):
            spare = self.listeners[fn_idx]
            if spare is not self.binding[fn_idx]:
                wire(spare, self.functions[fn_idx])
        self._consumers = {"input": by_input, "fn": by_fn}

    def consumers_of_input(self, name: str) -> list[tuple[FunctionalCell, Port]]:
        if self._consumers is None:
            self.rebuild_consumers()
        return self._consumers["input"].get(name, [])

    def consumers_of_fn(self, fn_idx: int) -> list[tuple[FunctionalCell, Port]]:
        if self._consumers is None:
            self.rebuild_consumers()
        return self._consumers["fn"].get(fn_idx, [])

    def fn_of_cell(self, cell: FunctionalCell) -> Optional[FabricFunction]:
        for fn_idx, bound in self.binding.items():
            if bound is cell:
                return self.functions[fn_idx]
        return None

    def source_value(self, fn: FabricFunction, port: Port) -> int:
        """Current value a port draws from its configured source."""
        sel = fn.config.selector(port)
        if sel.kind is SelectorKind.PRIMARY_INPUT:
            name = {i: n for n, i in self.input_index.items()}[sel.index]
            return self.input_values.get(name, 0)
        if sel.kind is SelectorKind.CELL_OUTPUT:
            return self.published.get(sel.index) or 0
        if sel.kind is SelectorKind.CONSTANT:
            return fn.config.immediate
        return 0

    # ---- spare management --------------------------------------------

    def allocate_spare(self, layer_index: int) -> Optional[CellId]:
        """Lowest-index idle, unreserved spare of one layer; deterministic."""
        layer = self.layers[layer_index]
        for cell in layer.r_cells:
            if cell.health is CellHealth.SPARE_IDLE and str(cell.cell_id) not in self.reserved:
                return cell.cell_id
        return None

    def allocate_spare_global(self, from_layer: int) -> Optional[CellId]:
        """Nearest-layer, lowest-slot idle spare anywhere in the fabric.

        Distance 0 (the faulty cell's own layer) is searched first so a
        failed active spare can still be replaced by a sibling spare.
        """
        order = sorted(range(len(self.layers)), key=lambda i: (abs(i - from_layer), i))
        for layer_index in order:
            found = self.allocate_spare(layer_index)
            if found is not None:
                return found
        return None

    def reserve(self, cell_id: CellId) -> None:
        self.reserved.add(str(cell_id))

    def free_spares(self) -> list[CellId]:
        out = []
        for layer in self.layers:
            for cell in layer.r_cells:
                if cell.health is CellHealth.SPARE_IDLE and str(cell.cell_id) not in self.reserved:
                    out.append(cell.cell_id)
        return out

    def health_map(self) -> GlobalHealthMap:
        return GlobalHealthMap(
            cells={cid: cell.health for cid, cell in sorted(self.cells.items())},
            free_spares=self.free_spares(),
            alarm=self.alarm,
        )

    # ---- healing state transitions -----------------------------------

    def deactivate(self, syndrome: HealthSyndrome, t: int) -> None:
        cell = self.cells[str(syndrome.cell_id)]
        cell.health = CellHealth.FAULTY_DEACTIVATED
        if self.alarm is Alarm.NONE:
            self.alarm = Alarm.DEGRADED
        syndrome.actions.append((HealAction.DEACTIVATE, t))
        self.rebuild_consumers()

    def reroute(self, syndrome: HealthSyndrome, t: int) -> None:
        fn = self.functions[syndrome.function_index]
        spare = self.cells[str(syndrome.chosen_spare)]
        if spare.registers is None or spare.registers.width_mode is not fn.width:
            spare.registers = InputRegisterBank(fn.width)
        for port in PORT_ORDER:
            spare.registers.write(port, self.source_value(fn, port))
        self.listeners[fn.index] = spare
        syndrome.actions.append((HealAction.REROUTE, t))
        self.rebuild_consumers()

    def restore(self, syndrome: HealthSyndrome, t: int) -> None:
        fn = self.functions[syndrome.function_index]
        spare = self.cells[str(syndrome.chosen_spare)]
        registers = spare.registers  # keep the data routed in at reroute time
        spare.configure(fn.config)
        spare.registers = registers
        spare.health = CellHealth.SPARE_ACTIVE
        self.binding[fn.index] = spare
        self.listeners.pop(fn.index, None)
        self.reserved.discard(str(spare.cell_id))
        syndrome.actions.append((HealAction.RESTORE, t))
        self.rebuild_consumers()

    def enter_fail_safe(self) -> bool:
        """Latch the fail-safe posture; returns False if already latched."""
        if self.alarm is Alarm.FAIL_SAFE:
            return False
        self.alarm = Alarm.FAIL_SAFE
        return True
