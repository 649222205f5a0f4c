"""Placement and routing: layer packing, selectors, spare pre-generation."""

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_netlist
from cellfab.cell import Opcode
from cellfab.fabric import Fabric
from cellfab.genetic import NOP_CONFIG, SelectorKind, decode_genetic
from cellfab.netlist import NetlistError, parse_netlist
from cellfab.place import (
    Placement,
    build_routing,
    compile_netlist,
    dump_program,
    place,
)

from helpers import cell_named
from test_wave_paths import scenarios


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
    with pytest.raises(NetlistError, match="^netlist needs 17 layers, fabric holds 16$"):
        parse_netlist("\n".join(lines))


def test_selectors_operand_order():
    nl = parse_netlist(
        "input a : int16\n"
        "node g1 = NOT(a)\n"
        "node g2 = ADD(a, g1)\n"
        "output y = g2\n"
    )
    program = compile_netlist(nl)
    cfg = program.configs[program.placement.function_index("g2")]
    n, w, e, s = cfg.selectors
    assert n.kind is SelectorKind.PRIMARY_INPUT and n.index == 0
    assert w.kind is SelectorKind.CELL_OUTPUT
    assert e.kind is SelectorKind.UNUSED and s.kind is SelectorKind.UNUSED


def test_every_code_decodes_to_its_config(edg):
    program = compile_netlist(edg)
    for fn_idx, code in enumerate(program.spare_codes):
        cfg = program.configs.get(fn_idx, NOP_CONFIG)
        assert decode_genetic(code) == cfg


def test_edg_build_counts(edg):
    program = compile_netlist(edg)
    assert len(program.configs) == 14
    assert len(program.spare_codes) == 16


def test_spare_mirrors_worker_slot(edg):
    program = compile_netlist(edg)
    fabric = Fabric(program)
    for layer in range(program.placement.layer_count):
        for slot in range(4):
            mirrored = decode_genetic(program.spare_codes[layer * 4 + slot])
            assert mirrored == cell_named(fabric, f"L{layer}.F{slot}").config


def test_unfilled_slots_are_safe_nops(edg):
    program = compile_netlist(edg)
    last = program.placement.layer_count - 1
    placed = set(program.placement.slots.values())
    assert (last, 2) not in placed and (last, 3) not in placed
    fabric = Fabric(program)
    for slot in (2, 3):
        assert last * 4 + slot not in program.configs
        cfg = cell_named(fabric, f"L{last}.F{slot}").config
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


def test_fabric_program_is_the_documented_fields(edg):
    # each static fact once: a spare's code is spare_codes[fn_idx], a
    # worker's configuration configs[fn_idx], an input's selector index
    # its position in the netlist's inputs.  ``initial_state`` is no second
    # static fact: it is the run-start state derived from ``configs`` by
    # ``FunctionalCell.configure``, which every run's Fabric restores
    assert set(vars(compile_netlist(edg))) == {
        "netlist", "placement", "output_binding", "configs", "readers",
        "signals", "spare_codes", "wave", "delays", "initial_state",
    }


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenarios(), st.data())
def test_program_does_not_depend_on_the_order_of_the_slots(case, data):
    program, _ = case
    nl, placement = program.netlist, program.placement
    shuffled = data.draw(st.permutations(list(placement.slots.items())))
    other = build_routing(nl, Placement(placement.layer_count, dict(shuffled)))
    assert list(other.readers.items()) == list(program.readers.items())
    assert other.configs == program.configs
    assert other.spare_codes == program.spare_codes
    assert other.wave == program.wave
    assert other.delays == program.delays
    assert dump_program(other) == dump_program(program)
    # the spare beside every slot holds the code of the worker cell there
    fabric = Fabric(other)
    assert len(other.spare_codes) == placement.layer_count * 4
    for fn_idx, code in enumerate(other.spare_codes):
        layer, slot = divmod(fn_idx, 4)
        assert decode_genetic(code) == cell_named(fabric, f"L{layer}.F{slot}").config
