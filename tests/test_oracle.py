"""The ideal reference evaluator, checked against hand math and the fabric."""

import itertools

import pytest

from cellfab.apps import resolve_netlist
from cellfab.apps.edg import START_PERMITTED
from cellfab.netlist import parse_netlist
from cellfab.oracle import NetlistOracle

from helpers import reference_eval, settled_reference
from references import reference_equations


def test_single_not():
    nl = parse_netlist("input a : bit\nnode g = NOT(a)\noutput y = g\n")
    outs, _ = reference_eval(nl, {"a": 1})
    assert outs == {"y": 0}


def test_incomplete_assignment_rejected():
    nl = parse_netlist("input a : bit\nnode g = NOT(a)\noutput y = g\n")
    with pytest.raises(ValueError, match="missing"):
        reference_eval(nl, {})


def test_edg_all_zero_inputs():
    nl = resolve_netlist("edg")
    outs, _ = reference_eval(nl, {name: 0 for name in nl.input_names()})
    assert outs == {"EngineStart": 0, "OpenAirStartFuel_Valves": 0}


def test_edg_start_permitted():
    nl = resolve_netlist("edg")
    outs, _ = reference_eval(nl, START_PERMITTED)
    assert outs == {"EngineStart": 1, "OpenAirStartFuel_Valves": 1}


def test_edg_exhaustive_against_documented_equations():
    # all 2^14 vectors against the documented boolean equations
    nl = resolve_netlist("edg")
    names = nl.input_names()
    oracle = NetlistOracle(nl)
    for bits in itertools.product((0, 1), repeat=14):
        inputs = dict(zip(names, bits))
        values = oracle.step(inputs)
        assert oracle.outputs(values) == reference_equations(inputs)


def test_delay_state_passing():
    nl = parse_netlist(
        "input a : int16\nnode d = DELAY(a) delay=2\noutput y = d\n"
    )
    outs, state = reference_eval(nl, {"a": 5})
    assert outs == {"y": 0}
    outs, state = reference_eval(nl, {"a": 6}, state)
    assert outs == {"y": 0}
    outs, state = reference_eval(nl, {"a": 7}, state)
    assert outs == {"y": 5}


def test_accumulator_loop():
    nl = parse_netlist(
        "input a : int16\n"
        "node acc = ADD(reg, a)\n"
        "node reg = DELAY(acc) delay=1\n"
        "output y = acc\n"
    )
    oracle = NetlistOracle(nl)
    seen = [oracle.outputs(oracle.step({"a": 3}))["y"] for _ in range(4)]
    assert seen == [3, 6, 9, 12]


def test_settled_reference_flushes_delays():
    nl = parse_netlist(
        "input a : int16\nnode d = DELAY(a) delay=3\noutput y = d\n"
    )
    assert settled_reference(nl, {"a": 9}, holds=4) == {"y": 9}
