"""Byte-for-byte pins of the compiled programs.

Each program is written out whole, every table a run reads: the
``dump_program`` listing (configurations and genetic codes), ``readers``,
``wave``, ``delays``, ``signals``, ``output_binding`` and
``initial_state``, with each ``evaluate`` written as the
``OPCODE_FUNCTIONS`` keys it is bound under.  The programs are those of
the bundled applications and of the netlists of ops 0..31 of seed 1 of
cellbench's ``oracle_netlists``.  A compile change that alters any of
this must be deliberate: update the digest here and say why in
CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cellfab.apps import resolve_application
from cellfab.cell import OPCODE_FUNCTIONS
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist, dump_program

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "cellbench" / "workloads.py"
NETLIST_OPS = 32  # as the bench export pins

DIGESTS = {
    "edg": "6f4f10e4461d1dadb41fdf3d201c9d266a9247d7f4fbd62d47068c466f9988a5",
    "ccs": "7ece02f1a5eeb34179ca76094dbd63db95f9d8b5f528914073450cdacb58ab64",
    "oracle_netlists": "75eb5fe60eafde00355edf1acfc5403ce3cfd0ce2deebbe9db74ad61be8ae804",
}


def evaluator_name(evaluate) -> str:
    """The ``OPCODE_FUNCTIONS`` keys ``evaluate`` is, as ``OP.WIDTH|...``."""
    if evaluate is None:
        return "None"
    keys = [f"{op.name}.{width.name}" for (op, width), f in OPCODE_FUNCTIONS.items() if f is evaluate]
    assert keys, evaluate
    return "|".join(keys)


def program_text(program) -> str:
    initial = [
        (*state[:4], evaluator_name(state[4]), *state[5:]) for state in program.initial_state
    ]
    return "\n".join([
        dump_program(program),
        repr(program.readers),
        repr(program.wave),
        repr(program.delays),
        repr(program.signals),
        repr(program.output_binding),
        repr(initial),
    ])


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("cellbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["edg", "ccs"])
def test_bundled_program_bytes(name):
    text = program_text(resolve_application(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_oracle_netlist_program_bytes(workloads):
    w = workloads.WORKLOADS["oracle_netlists"](1)
    digest = hashlib.sha256()
    for i in range(NETLIST_OPS):
        inp = w.inputs(i)
        program = compile_netlist(parse_netlist(inp["text"], inp["name"]))
        digest.update(program_text(program).encode())
    assert digest.hexdigest() == DIGESTS["oracle_netlists"]
