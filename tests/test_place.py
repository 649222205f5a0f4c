"""Placement and routing: layer packing, selectors, spare pre-generation."""

import pytest

from cellfab.apps import resolve_netlist
from cellfab.cell import Opcode
from cellfab.genetic import SelectorKind, decode_genetic
from cellfab.netlist import parse_netlist
from cellfab.place import (
    PlacementError,
    build_routing,
    compile_netlist,
    dump_program,
    place,
)


@pytest.fixture(scope="module")
def edg():
    return resolve_netlist("edg")


def test_edg_fills_four_layers(edg):
    p = place(edg)
    assert p.layer_count == 4
    by_layer = {}
    for name, (layer, slot) in p.slots.items():
        by_layer.setdefault(layer, []).append(slot)
    assert sorted(by_layer[0]) == [0, 1, 2, 3]
    assert sorted(by_layer[1]) == [0, 1, 2, 3]
    assert sorted(by_layer[2]) == [0, 1, 2, 3]
    assert sorted(by_layer[3]) == [0, 1]


def test_placement_deterministic(edg):
    a = place(edg)
    b = place(resolve_netlist("edg"))
    assert a.slots == b.slots
    assert dump_program(build_routing(edg, a)) == dump_program(
        build_routing(resolve_netlist("edg"), b)
    )


def test_conservation(edg):
    p = place(edg)
    assert len(p.slots) == len(edg.nodes)
    assert len(set(p.slots.values())) == len(edg.nodes)


def test_empty_netlist_empty_placement():
    nl = parse_netlist("")
    p = place(nl)
    assert p.layer_count == 0 and p.slots == {}


def test_capacity_error():
    lines = ["input a : bit"] + [
        f"node g{i} = NOT(a)" for i in range(65)
    ] + ["output y = g0"]
    nl = parse_netlist("\n".join(lines))
    with pytest.raises(PlacementError, match="layers"):
        place(nl)


def test_selectors_operand_order():
    nl = parse_netlist(
        "input a : int16\n"
        "node g1 = NOT(a)\n"
        "node g2 = ADD(a, g1)\n"
        "output y = g2\n"
    )
    program = compile_netlist(nl)
    cfg = None
    for layer in program.layers:
        for slot, name in enumerate(layer.worker_nodes):
            if name == "g2":
                cfg = layer.worker_configs[slot]
    n, w, e, s = cfg.selectors
    assert n.kind is SelectorKind.PRIMARY_INPUT and n.index == 0
    assert w.kind is SelectorKind.CELL_OUTPUT
    assert e.kind is SelectorKind.UNUSED and s.kind is SelectorKind.UNUSED


def test_every_code_decodes_to_its_config(edg):
    program = compile_netlist(edg)
    for layer in program.layers:
        for slot in range(4):
            cfg = layer.worker_configs[slot]
            assert decode_genetic(layer.spare_codes[slot]) == cfg


def test_edg_build_counts(edg):
    program = compile_netlist(edg)
    assert len(program.configs) == 14
    assert len(program.spare_codes()) == 16


def test_spare_mirrors_worker_slot(edg):
    program = compile_netlist(edg)
    for layer in program.layers:
        for slot in range(4):
            mirrored = decode_genetic(layer.spare_codes[slot])
            assert mirrored == layer.worker_configs[slot]


def test_unfilled_slots_are_safe_nops(edg):
    program = compile_netlist(edg)
    last = program.layers[-1]
    assert last.worker_nodes[2] is None and last.worker_nodes[3] is None
    for slot in (2, 3):
        cfg = last.worker_configs[slot]
        assert cfg.opcode is Opcode.NOP and not cfg.output_enable


def test_partition_controls_layers():
    nl = resolve_netlist("ccs")
    p = place(nl)
    assert p.layer_count == 5
    assert p.slots["fc16"] == (4, 0)
    assert p.slots["fc1"] == (0, 0)


def test_dump_program_deterministic_text(edg):
    program = compile_netlist(edg)
    text = dump_program(program)
    assert text == dump_program(compile_netlist(resolve_netlist("edg")))
    first = text.splitlines()[0]
    assert first.startswith("0.0 F AND") and "code=" in first
