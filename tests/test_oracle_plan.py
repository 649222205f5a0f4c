"""``NetlistOracle``'s plan against the node-by-node interpreter.

``references.InterpretedOracle`` is the oracle as it was before the plan:
one frame per node and per operand.  The property runs both on generated
netlists, a bit and an int16 sub-graph with ``imm`` operands and DELAY
feedback, and requires equal ``step`` results and equal ``state``.  The
oracle's refusals keep their text and come from ``step``.  Only the
stdlib ``ast`` module checks what the oracle imports, so no linter is
needed.
"""

import ast
import inspect
from dataclasses import replace
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from cellfab import cell, netlist, oracle
from cellfab.netlist import parse_netlist
from cellfab.oracle import NetlistOracle

from references import InterpretedOracle

# int16 operands at which a wrap, a sign or a Q8.8 shift turns
INT16_EDGES = [-32768, -1, 0, 1, 255, 256, 32767]
OPCODES = {
    "bit": ("AND", "OR", "NOT", "MUX", "NOP"),
    "int16": ("ADD", "SUB", "MUL", "CMP", "MUX", "NOT", "AND", "OR"),
}
ARITY = {"NOT": 1, "MUX": 3, "NOP": 0}


def values(width: str):
    if width == "bit":
        return st.integers(0, 1)
    return st.one_of(st.sampled_from(INT16_EDGES), st.integers(-32768, 32767))


@st.composite
def netlists(draw):
    """Netlist text and its input widths.

    Each combinational node has an anchor operand, an input or an earlier
    combinational node of its domain, so its width resolves and the
    combinational graph stays acyclic.  Any other operand is an ``imm``,
    an input, an earlier combinational node or any DELAY of the domain,
    a later one too; a DELAY reads any combinational node of its domain
    or an input (a bit DELAY also ``imm``), which closes feedback loops.
    """
    lines, widths = [], {}
    for width in OPCODES:
        for k in range(draw(st.integers(1, 3))):
            name = f"{width[0]}{k}"
            lines.append(f"input {name} : {width}")
            widths[name] = width
    domains = draw(st.lists(st.sampled_from(list(OPCODES)), min_size=1, max_size=20))
    kinds = draw(st.lists(st.booleans(), min_size=len(domains), max_size=len(domains)))
    nodes = {w: [f"n{j}" for j, d in enumerate(domains) if d == w] for w in OPCODES}
    delays = {f"n{j}" for j, is_delay in enumerate(kinds) if is_delay}
    comb = {w: [n for n in nodes[w] if n not in delays] for w in OPCODES}
    earlier = {w: [n for n in widths if widths[n] == w] for w in OPCODES}
    for j, width in enumerate(domains):
        name = f"n{j}"
        if name in delays:
            sources = comb[width] + [n for n in widths if widths[n] == width]
            src = draw(st.sampled_from(sources + ["imm"] * (width == "bit")))
            imm = draw(values(width)) if src == "imm" else 0
            lines.append(f"node {name} = DELAY({src}) delay={draw(st.integers(1, 3))} imm={imm}")
            continue
        op = draw(st.sampled_from(OPCODES[width]))
        arity = ARITY.get(op, 2)
        operands = []
        if arity:
            anchor = draw(st.integers(0, arity - 1))
            others = earlier[width] + [n for n in nodes[width] if n in delays]
            for i in range(arity):
                pool = earlier[width] if i == anchor else others + ["imm"]
                operands.append(draw(st.sampled_from(pool)))
        imm = draw(values(width)) if "imm" in operands else 0
        lines.append(f"node {name} = {op}({', '.join(operands)}) imm={imm}")
        earlier[width].append(name)
    for k, name in enumerate(draw(st.lists(st.sampled_from(sorted(set().union(*nodes.values()))),
                                           min_size=1, max_size=4, unique=True))):
        lines.append(f"output o{k} = {name}")
    return "\n".join(lines) + "\n", widths


@settings(derandomize=True, deadline=None, max_examples=300)
@given(netlists(), st.data())
def test_the_plan_equals_the_interpreter(case, data):
    text, widths = case
    nl = parse_netlist(text)
    planned, interpreted = NetlistOracle(nl), InterpretedOracle(nl)
    for _ in range(data.draw(st.integers(1, 8))):
        inputs = {name: data.draw(values(width)) for name, width in widths.items()}
        got, want = planned.step(inputs), interpreted.step(inputs)
        assert got == want
        assert list(got) == list(want)
        assert planned.state == interpreted.state
        assert planned.outputs(got) == interpreted.outputs(want)


def refusal(make, inputs):
    """The ``ValueError`` text each oracle's ``step`` raises; both build."""
    texts = []
    for cls in (NetlistOracle, InterpretedOracle):
        instance = cls(make())
        with pytest.raises(ValueError) as info:
            instance.step(inputs)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    return texts[0]


class Extra(Enum):
    SQRT = 10


def with_unknown_opcode():
    nl = parse_netlist("input a : int16\nnode g = NOT(a)\nnode h = ADD(g, a)\noutput y = h\n")
    nl.nodes[1] = replace(nl.nodes[1], opcode=Extra.SQRT)
    return nl


def test_a_missing_input_is_refused_by_step():
    text = "input a : int16\ninput b : int16\nnode g = ADD(a, b)\noutput y = g\n"
    assert refusal(lambda: parse_netlist(text), {"b": 1}) == (
        "incomplete input assignment: missing ['a']"
    )


def test_an_unevaluable_opcode_is_refused_by_step_not_the_constructor():
    assert refusal(with_unknown_opcode, {"a": 1}) == "oracle cannot evaluate Extra.SQRT"
    # the missing-input check comes first
    assert refusal(with_unknown_opcode, {}) == "incomplete input assignment: missing ['a']"


def test_a_refused_step_leaves_the_state():
    nl = with_unknown_opcode()
    nl.nodes.append(replace(nl.nodes[0], name="d", opcode=cell.Opcode.DELAY, delay_cycles=2))
    planned = NetlistOracle(nl)
    with pytest.raises(ValueError):
        planned.step({"a": 5})
    assert planned.state == {"d": (0, 0)}


# what the oracle may import from the modules of the model it checks
SHARED = {"WidthMode", "Opcode", "Netlist", "IMM_REF"}
MODEL = {"cell": cell, "netlist": netlist}


def imports_from_the_model(source: str) -> dict[str, object]:
    """Each name ``source`` imports from ``cellfab.cell`` or
    ``cellfab.netlist``, relatively or not, with the object it names."""
    names = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = MODEL.get(node.module.removeprefix("cellfab."))
            if module is not None and (node.level == 1 or node.module.startswith("cellfab.")):
                for alias in node.names:
                    names[alias.name] = getattr(module, alias.name)
    return names


def functions(names: dict[str, object]) -> list[str]:
    return [name for name, obj in names.items() if callable(obj) and not isinstance(obj, type)]


def test_the_oracle_imports_no_function_of_the_model():
    names = imports_from_the_model(inspect.getsource(oracle))
    assert set(names) <= SHARED
    assert functions(names) == []


def test_an_imported_function_is_caught():
    source = "from .cell import WidthMode, wrap16\nfrom cellfab.netlist import IMM_REF, parse_netlist\n"
    assert functions(imports_from_the_model(source)) == ["wrap16", "parse_netlist"]
