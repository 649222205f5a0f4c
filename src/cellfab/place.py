"""Mapping a netlist onto fabric layers of four worker slots.

Nodes fill layers greedily in (depth, declaration order) unless the
netlist pins an explicit ``# partition``.  Every placed node becomes a
cell configuration plus its packed genetic code; each layer's spare
cells are pre-loaded with the codes of the worker slots they mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cell import Opcode
from .genetic import (
    CellConfig,
    InputSelector,
    SelectorKind,
    UNUSED,
    encode_genetic,
    nop_config,
    to_hex,
)
from .netlist import IMM_REF, Netlist, NetlistError

SLOTS_PER_LAYER = 4
MAX_LAYERS = 16  # selector indices are 6 bits: at most 64 addressable functions


class PlacementError(ValueError):
    pass


@dataclass
class Placement:
    layer_count: int
    slots: dict[str, tuple[int, int]]  # node id -> (layer, worker slot)
    input_binding: dict[str, int]  # primary input name -> global input index

    def function_index(self, node_id: str) -> int:
        layer, slot = self.slots[node_id]
        return layer * SLOTS_PER_LAYER + slot


@dataclass
class LayerProgram:
    """Configuration payload for one critical-service layer."""

    index: int
    worker_nodes: list[str | None]  # slot -> node id (None = filler)
    worker_configs: list[CellConfig]
    spare_codes: list[int]  # slot r mirrors worker slot r at load time


@dataclass
class FabricProgram:
    """A compiled application: every table a run reads and none it writes.

    Built once by ``build_routing`` and shared by every run of the
    application.  The per-function tables are keyed by function index,
    ascending, over the placed nodes only: ``configs``, wave
    ``levels`` (the node's depth; 0 marks a DELAY, which captures on the
    clock) and trace ``signals`` (the function's output names, else
    ``fn.<node>``).  ``readers[source]`` lists the ``(fn_idx, port)``
    pairs that read a source, an input name or a function index, with
    ports as indices in PORT_ORDER.
    """

    netlist: Netlist
    placement: Placement
    layers: list[LayerProgram] = field(default_factory=list)
    output_binding: dict[str, int] = field(default_factory=dict)  # name -> fn index
    configs: dict[int, CellConfig] = field(default_factory=dict)
    levels: dict[int, int] = field(default_factory=dict)
    readers: dict[str | int, list[tuple[int, int]]] = field(default_factory=dict)
    signals: dict[int, list[str]] = field(default_factory=dict)

    def spare_codes(self) -> list[int]:
        return [code for layer in self.layers for code in layer.spare_codes]


def place(nl: Netlist) -> Placement:
    """Assign every node a (layer, slot); deterministic for a given netlist."""
    slots: dict[str, tuple[int, int]] = {}
    if nl.partition:
        for layer_idx, names in enumerate(nl.partition):
            for slot_idx, name in enumerate(names):
                if slot_idx >= SLOTS_PER_LAYER:
                    raise PlacementError(f"partition layer {layer_idx} over capacity")
                slots[name] = (layer_idx, slot_idx)
        layer_count = len(nl.partition)
    else:
        # sorted() is stable: equal depths keep declaration order
        ordered = sorted(nl.nodes, key=lambda n: nl.depth[n.name])
        for i, node in enumerate(ordered):
            slots[node.name] = (i // SLOTS_PER_LAYER, i % SLOTS_PER_LAYER)
        layer_count = (len(ordered) + SLOTS_PER_LAYER - 1) // SLOTS_PER_LAYER
    if layer_count > MAX_LAYERS:
        raise PlacementError(
            f"netlist needs {layer_count} layers, fabric holds {MAX_LAYERS}"
        )
    input_binding = {name: i for i, (name, _) in enumerate(nl.inputs)}
    if len(input_binding) > 64:
        raise PlacementError("more than 64 primary inputs")
    return Placement(layer_count=layer_count, slots=slots, input_binding=input_binding)


def _selector_for(ref: str, nl: Netlist, placement: Placement) -> InputSelector:
    if ref == IMM_REF:
        return InputSelector(SelectorKind.CONSTANT)
    if ref in placement.input_binding:
        return InputSelector(SelectorKind.PRIMARY_INPUT, placement.input_binding[ref])
    return InputSelector(SelectorKind.CELL_OUTPUT, placement.function_index(ref))


def build_routing(nl: Netlist, placement: Placement) -> FabricProgram:
    """Resolve operand references into port selectors and readers, pack
    genetic codes, and fill the per-function tables."""
    program = FabricProgram(netlist=nl, placement=placement)
    nodes = {node.name: node for node in nl.nodes}
    by_layer: dict[int, dict[int, str]] = {}
    for name, (layer, slot) in placement.slots.items():
        by_layer.setdefault(layer, {})[slot] = name
    output_names: dict[str, list[str]] = {}
    for out_name, node_id in nl.outputs.items():
        output_names.setdefault(node_id, []).append(out_name)
    readers = program.readers
    for source in [*nl.input_names(), *map(placement.function_index, placement.slots)]:
        readers[source] = []

    for layer_idx in range(placement.layer_count):
        worker_nodes: list[str | None] = [None] * SLOTS_PER_LAYER
        worker_configs: list[CellConfig] = []
        for slot in range(SLOTS_PER_LAYER):
            name = by_layer.get(layer_idx, {}).get(slot)
            worker_nodes[slot] = name
            if name is None:
                worker_configs.append(nop_config())
                continue
            node = nodes[name]
            if len(node.operands) > 4:
                raise NetlistError("operand fan-in exceeds the cell's 4 ports", node.line)
            selectors = [_selector_for(ref, nl, placement) for ref in node.operands]
            fn_idx = layer_idx * SLOTS_PER_LAYER + slot
            for port, sel in enumerate(selectors):  # in PORT_ORDER
                if sel.kind is SelectorKind.PRIMARY_INPUT:
                    readers[node.operands[port]].append((fn_idx, port))
                elif sel.kind is SelectorKind.CELL_OUTPUT:
                    readers[sel.index].append((fn_idx, port))
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
            worker_configs.append(config)
            program.configs[fn_idx] = config
            program.levels[fn_idx] = 0 if node.opcode is Opcode.DELAY else nl.depth[name]
            program.signals[fn_idx] = output_names.get(name, [f"fn.{name}"])
        spare_codes = [encode_genetic(cfg) for cfg in worker_configs]
        program.layers.append(
            LayerProgram(
                index=layer_idx,
                worker_nodes=worker_nodes,
                worker_configs=worker_configs,
                spare_codes=spare_codes,
            )
        )

    for out_name, node_id in nl.outputs.items():
        program.output_binding[out_name] = placement.function_index(node_id)
    return program


def compile_netlist(nl: Netlist) -> FabricProgram:
    return build_routing(nl, place(nl))


def dump_program(program: FabricProgram) -> str:
    """Deterministic text listing: layer.slot kind opcode selectors code=<hex>."""
    lines = []
    for layer in program.layers:
        for slot in range(SLOTS_PER_LAYER):
            cfg = layer.worker_configs[slot]
            node = layer.worker_nodes[slot]
            sels = ",".join(
                f"{port}={_fmt_selector(sel)}"
                for port, sel in zip("NWES", cfg.selectors)
            )
            code = to_hex(encode_genetic(cfg))
            label = node or "-"
            lines.append(
                f"{layer.index}.{slot} F {cfg.opcode.name:<5} {label:<16} {sels} code={code}"
            )
        for slot, code in enumerate(layer.spare_codes):
            lines.append(f"{layer.index}.{slot} R spare mirrors F{slot} code={to_hex(code)}")
    return "\n".join(lines) + "\n"


def _fmt_selector(sel: InputSelector) -> str:
    return {
        SelectorKind.PRIMARY_INPUT: f"in{sel.index}",
        SelectorKind.CELL_OUTPUT: f"fn{sel.index}",
        SelectorKind.CONSTANT: "imm",
        SelectorKind.UNUSED: "-",
    }[sel.kind]
