"""Bundled generator-startup application: structure and ground-truth logic."""

import itertools

from cellfab.apps import resolve_netlist
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import Opcode
from cellfab.oracle import NetlistOracle
from cellfab.place import place

from references import reference_equations


def test_node_count_is_fourteen():
    assert len(resolve_netlist("edg").nodes) == 14


def test_io_counts():
    nl = resolve_netlist("edg")
    assert len(nl.inputs) == 14
    assert len(nl.outputs) == 2
    assert set(nl.outputs) == {"EngineStart", "OpenAirStartFuel_Valves"}


def test_combinational_depth_seven():
    assert resolve_netlist("edg").critical_path == 7


def test_opcodes_are_basic_gates():
    ops = {n.opcode for n in resolve_netlist("edg").nodes}
    assert ops <= {Opcode.AND, Opcode.OR, Opcode.NOT}


def test_both_outputs_at_full_depth():
    nl = resolve_netlist("edg")
    for node_id in nl.outputs.values():
        assert nl.depth[node_id] == 7


def test_places_into_four_layers():
    assert place(resolve_netlist("edg")).layer_count == 4


def test_every_input_is_referenced():
    nl = resolve_netlist("edg")
    used = {ref for n in nl.nodes for ref in n.operands}
    assert set(nl.input_names()) <= used


def test_start_permitted_fires_both_outputs():
    nl = resolve_netlist("edg")
    oracle = NetlistOracle(nl)
    out = oracle.outputs(oracle.step(START_PERMITTED))
    assert out == {"EngineStart": 1, "OpenAirStartFuel_Valves": 1}


def test_netlist_matches_documented_equations_exhaustively():
    nl = resolve_netlist("edg")
    names = nl.input_names()
    oracle = NetlistOracle(nl)
    for bits in itertools.product((0, 1), repeat=14):
        inputs = dict(zip(names, bits))
        assert oracle.outputs(oracle.step(inputs)) == reference_equations(inputs)
