"""Parsing and compiling a netlist hash no enum member.

A member as a dict key or set element is hashed by ``Enum.__hash__``, a
Python-level call on CPython, on every lookup, so the tables the parse
and compile look opcodes and widths up in are keyed by the member's
``_value_``.  The netlists are those of ops 0..31 of seed 1 of
cellbench's ``oracle_netlists``; a profile hook counts the calls.
"""

import importlib.util
import sys
from enum import Enum
from pathlib import Path

import pytest

from cellfab.cell import Opcode, WidthMode
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "cellbench" / "workloads.py"
NETLIST_OPS = 32


def enum_hashes(work) -> list[str]:
    """The function each ``Enum.__hash__`` call of ``work()`` comes from."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Enum.__hash__.__code__:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def texts():
    spec = importlib.util.spec_from_file_location("cellbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    w = module.WORKLOADS["oracle_netlists"](1)
    return [w.inputs(i) for i in range(NETLIST_OPS)]


def test_parse_and_compile_hash_no_enum_member(texts):
    def work():
        for inp in texts:
            compile_netlist(parse_netlist(inp["text"], inp["name"]))

    assert enum_hashes(work) == []


def test_a_member_lookup_is_counted():
    table = {(Opcode.ADD, WidthMode.INT16): 1}

    def lookup():
        return table[Opcode.ADD, WidthMode.INT16]

    assert enum_hashes(lookup) == ["lookup", "lookup"]
