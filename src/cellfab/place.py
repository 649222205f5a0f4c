"""Mapping a netlist onto fabric layers of four worker slots.

Nodes fill layers greedily in (depth, declaration order) unless the
netlist pins an explicit ``# partition``.  Every placed node becomes a
cell configuration plus its packed genetic code; each layer's spare
cells are pre-loaded with the codes of the worker slots they mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cell import CellId, OP_DELAY, run_start
from .genetic import (
    CellConfig, InputSelector, NOP_CODE, NOP_CONFIG, SEL_CONSTANT, SEL_INPUT, SEL_OUTPUT,
    SelectorKind, UNUSED, encode_genetic, to_hex,
)
from .netlist import IMM_REF, MAX_LAYERS, SLOTS_PER_LAYER, Netlist


def _slot_ids(fn_idx: int) -> tuple[CellId, str, CellId, str]:
    """A slot's worker id, its ``cells`` key, spare id and its key."""
    layer, slot = divmod(fn_idx, SLOTS_PER_LAYER)
    worker, spare = CellId(layer, slot, "F"), CellId(layer, slot, "R")
    return worker, str(worker), spare, str(spare)


# they depend only on the function index, so they are made once per process
_SLOT_IDS = tuple(map(_slot_ids, range(MAX_LAYERS * SLOTS_PER_LAYER)))


@dataclass
class Placement:
    layer_count: int
    slots: dict[str, tuple[int, int]]  # node id -> (layer, worker slot)

    def function_index(self, node_id: str) -> int:
        layer, slot = self.slots[node_id]
        return layer * SLOTS_PER_LAYER + slot


@dataclass
class FabricProgram:
    """A compiled application: every table a run reads and none it writes.

    Built once by ``build_routing`` and shared by every run of the
    application.  The per-function tables are keyed by function index
    (``layer * 4 + slot``), ascending, over the placed nodes only:
    ``configs`` and trace ``signals`` (the function's output names, else
    ``fn.<node>``).  An empty worker slot has no entry; its cell holds
    ``NOP_CONFIG``.  ``wave`` holds one entry per combinational function
    in (level, fn index) order, the level being the node's depth: (level,
    fn index, signal names).  It holds no evaluator: each cell binds its
    own from its configuration, so a run evaluates what its cells hold.
    ``delays`` lists the DELAY functions, which capture on the clock, in
    index order.  ``spare_codes[fn_idx]`` is the genetic code pre-loaded
    into the spare beside every slot of the fabric, the NOP filler's on an
    empty one.  ``readers[source]``
    lists the ``(fn_idx, port)`` pairs that read a source, an input
    name or a function index, with ports as indices in PORT_ORDER.

    ``initial_state`` is derived from ``configs``: the run-start state
    that ``Fabric`` restores, so no run configures a cell.  Per slot it
    is (worker ``CellId``, its ``cells`` key, ``config``, port ``values``,
    ``pipeline``, ``evaluate``, spare ``CellId``, its key), all immutable:
    the ids are made once per process, and the rest is ``cell.run_start``
    of the slot's configuration, the one definition ``configure`` uses.
    """

    netlist: Netlist
    placement: Placement
    output_binding: dict[str, int] = field(default_factory=dict)  # name -> fn index
    configs: dict[int, CellConfig] = field(default_factory=dict)
    readers: dict[str | int, list[tuple[int, int]]] = field(default_factory=dict)
    signals: dict[int, list[str]] = field(default_factory=dict)
    spare_codes: list[int] = field(default_factory=list)
    wave: list[tuple] = field(default_factory=list)
    delays: list[int] = field(default_factory=list)
    initial_state: tuple[tuple, ...] = ()

    def has_cell(self, cell: CellId) -> bool:
        """Whether ``cell`` is a worker (F) or spare (R) of the fabric."""
        return (
            cell.kind in ("F", "R")
            and 0 <= cell.layer < self.placement.layer_count
            and 0 <= cell.slot < SLOTS_PER_LAYER
        )


def place(nl: Netlist) -> Placement:
    """Assign every node a (layer, slot); deterministic for a given netlist.

    ``nl`` must have passed ``validate_netlist`` (``parse_netlist`` runs
    it): the placer reads its ``depth`` and relies on its checks of at
    most four nodes per partition layer and of the fabric's capacity.
    """
    slots: dict[str, tuple[int, int]] = {}
    if nl.partition:
        for layer_idx, names in enumerate(nl.partition):
            for slot_idx, name in enumerate(names):
                slots[name] = (layer_idx, slot_idx)
        layer_count = len(nl.partition)
    else:
        # sorted() is stable: equal depths keep declaration order
        ordered = sorted(nl.nodes, key=lambda n: nl.depth[n.name])
        for i, node in enumerate(ordered):
            slots[node.name] = (i // SLOTS_PER_LAYER, i % SLOTS_PER_LAYER)
        layer_count = (len(ordered) + SLOTS_PER_LAYER - 1) // SLOTS_PER_LAYER
    return Placement(layer_count=layer_count, slots=slots)


def _selector_for(ref: str, inputs: dict[str, int], placement: Placement) -> InputSelector:
    if ref == IMM_REF:
        return InputSelector(SEL_CONSTANT)
    if ref in inputs:
        return InputSelector(SEL_INPUT, inputs[ref])
    return InputSelector(SEL_OUTPUT, placement.function_index(ref))


def build_routing(nl: Netlist, placement: Placement) -> FabricProgram:
    """Resolve operand references into port selectors and readers, pack
    genetic codes, and fill the per-function tables.

    ``nl`` must have passed ``validate_netlist``: its ``depth`` and
    ``widths`` are read here, and its arity check keeps every node
    within the cell's four ports.  Nodes are taken in (layer, slot)
    order, so every table and reader list comes out the same whatever
    the order of ``placement.slots``.
    """
    program = FabricProgram(netlist=nl, placement=placement)
    nodes = {node.name: node for node in nl.nodes}
    inputs = {name: i for i, name in enumerate(nl.input_names())}  # selector index
    output_names: dict[str, list[str]] = {}
    for out_name, node_id in nl.outputs.items():
        output_names.setdefault(node_id, []).append(out_name)
        program.output_binding[out_name] = placement.function_index(node_id)
    placed = sorted((placement.function_index(name), name) for name in placement.slots)
    readers = program.readers
    for source in [*inputs, *(fn_idx for fn_idx, _ in placed)]:
        readers[source] = []
    spare_codes = program.spare_codes = [NOP_CODE] * (placement.layer_count * SLOTS_PER_LAYER)
    # one frozen selector per operand source
    chosen = {ref: _selector_for(ref, inputs, placement)
              for ref in dict.fromkeys(ref for node in nl.nodes for ref in node.operands)}

    for fn_idx, name in placed:
        node = nodes[name]
        selectors = [chosen[ref] for ref in node.operands]
        for port, ref in enumerate(node.operands):  # in PORT_ORDER
            if ref != IMM_REF:  # an input's readers are keyed by name, a function's by index
                readers[ref if ref in inputs else selectors[port].index].append((fn_idx, port))
        while len(selectors) < 4:
            selectors.append(UNUSED)
        config = CellConfig(
            opcode=node.opcode,
            selectors=tuple(selectors),
            immediate=node.immediate,
            delay_cycles=node.delay_cycles,
            output_enable=True,
            width_mode=nl.widths[name],
        )
        program.configs[fn_idx] = config
        spare_codes[fn_idx] = encode_genetic(config)
        signals = program.signals[fn_idx] = output_names.get(name, [f"fn.{name}"])
        if node.opcode is OP_DELAY:
            program.delays.append(fn_idx)
        else:
            program.wave.append((nl.depth[name], fn_idx, signals))
    program.wave.sort(key=lambda entry: entry[:2])
    initial = []
    for fn_idx, (worker, worker_key, spare, spare_key) in enumerate(_SLOT_IDS[:len(spare_codes)]):
        config = program.configs.get(fn_idx, NOP_CONFIG)
        initial.append((worker, worker_key, config, *run_start(config), spare, spare_key))
    program.initial_state = tuple(initial)
    return program


def compile_netlist(nl: Netlist) -> FabricProgram:
    return build_routing(nl, place(nl))


def dump_program(program: FabricProgram) -> str:
    """Deterministic text listing: layer.slot kind opcode selectors code=<hex>."""
    names = {program.placement.function_index(name): name for name in program.placement.slots}
    codes = [to_hex(code) for code in program.spare_codes]
    lines = []
    for layer in range(program.placement.layer_count):
        first = layer * SLOTS_PER_LAYER
        for slot in range(SLOTS_PER_LAYER):
            fn_idx = first + slot
            cfg = program.configs.get(fn_idx, NOP_CONFIG)
            sels = ",".join(
                f"{port}={_fmt_selector(sel)}"
                for port, sel in zip("NWES", cfg.selectors)
            )
            label = names.get(fn_idx, "-")
            lines.append(
                f"{layer}.{slot} F {cfg.opcode.name:<5} {label:<16} {sels} code={codes[fn_idx]}"
            )
        for slot in range(SLOTS_PER_LAYER):
            lines.append(f"{layer}.{slot} R spare mirrors F{slot} code={codes[first + slot]}")
    return "\n".join(lines) + "\n"


def _fmt_selector(sel: InputSelector) -> str:
    return {
        SelectorKind.PRIMARY_INPUT: f"in{sel.index}",
        SelectorKind.CELL_OUTPUT: f"fn{sel.index}",
        SelectorKind.CONSTANT: "imm",
        SelectorKind.UNUSED: "-",
    }[sel.kind]
