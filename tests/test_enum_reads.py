"""The per-evaluation and per-record paths read no ``<Enum subclass>.<MEMBER>`` attribute.

On CPython before 3.12 such a class attribute read goes through
``EnumType.__getattr__``, so these functions compare against the
module-level member names that ``cellfab.cell`` and ``cellfab.oracle``
bind instead.  Only the stdlib ``ast`` module is used, so no linter is
needed.
"""

import ast
import importlib
import inspect
import textwrap
from enum import Enum

import pytest

HOT_PATH = [
    ("cellfab.cell", "fit"),
    ("cellfab.cell", "run_start"),
    ("cellfab.cell", "FunctionalCell.configure"),
    ("cellfab.cell", "FunctionalCell.step"),
    ("cellfab.engine", "Engine._handle_clock"),
    ("cellfab.engine", "Engine._handle_wave"),
    ("cellfab.engine", "Engine._event_clock"),
    ("cellfab.engine", "_route"),
    ("cellfab.engine", "Engine._handle_eval"),
    ("cellfab.engine", "Engine._evaluate"),
    ("cellfab.engine", "Engine._evaluate_cell"),
    ("cellfab.engine", "Engine._publish"),
    ("cellfab.netlist", "parse_netlist"),
    ("cellfab.netlist", "validate_netlist"),
    ("cellfab.netlist", "_resolve_widths"),
    ("cellfab.netlist", "_order_by_depth"),
    ("cellfab.place", "build_routing"),
    ("cellfab.place", "_selector_for"),
    ("cellfab.genetic", "encode_genetic"),
    ("cellfab.genetic", "InputSelector.__post_init__"),
    ("cellfab.oracle", "NetlistOracle.__init__"),
    ("cellfab.oracle", "NetlistOracle.step"),
    ("cellfab.report", "to_csv"),
    ("cellfab.report", "to_vcd"),
    ("cellfab.report", "_scan"),
]


def enum_member_reads(source: str, namespace: dict) -> list[str]:
    """Every ``Name.MEMBER`` in ``source`` whose name is, in ``namespace``,
    an Enum subclass that has that member."""
    reads = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = namespace.get(node.value.id)
            if isinstance(owner, type) and issubclass(owner, Enum) and node.attr in owner.__members__:
                reads.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize("module_name, qualname", HOT_PATH)
def test_hot_path_reads_no_enum_member(module_name, qualname):
    module = importlib.import_module(module_name)
    func = module
    for part in qualname.split("."):
        func = getattr(func, part)
    assert enum_member_reads(inspect.getsource(func), vars(module)) == []


def test_an_enum_member_read_is_caught():
    cell = importlib.import_module("cellfab.cell")
    source = (
        "def f(op, mode):\n"
        "    if op is cell.Opcode.ADD or op is OP_ADD:\n"
        "        return Opcode.ADD.value\n"
        "    return mode is WidthMode.BIT or Opcode.NOT_A_MEMBER\n"
    )
    assert enum_member_reads(source, vars(cell)) == ["line 3: Opcode.ADD", "line 4: WidthMode.BIT"]
