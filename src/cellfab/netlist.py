"""Function-block netlist: parsing, validation and depth analysis.

Line-oriented text format ('#' starts a comment):

    input <name> : bit|int16
    node <id> = <OPCODE>(<ref>{, <ref>}) [imm=<int>] [delay=<k>]
    output <name> = <id>
    # partition <layer>: <id> <id> ...

An operand reference is an input name, a node id, or the reserved word
``imm`` which wires the port to the node's immediate constant.
Attributes are whitespace-separated ``key=value`` pairs, and each
input and output name is declared once.  The
``# partition`` pragma pins nodes to fabric layers, each numbered in
ASCII digits; without it the placer packs nodes by depth.
``validate_netlist`` alone bounds a netlist by the fabric (64 nodes in
16 layers, 64 inputs), before any graph pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .cell import BIT, INT16, INT16_MAX, INT16_MIN, INT16_ONLY_OPCODES, OP_DELAY, OPCODE_ARITY
from .cell import Opcode, WidthMode, excerpt

IMM_REF = "imm"
SLOTS_PER_LAYER = 4
MAX_LAYERS = 16  # selector indices are 6 bits: at most 64 functions and 64 inputs
_VALUE_DIGITS = 5  # no in-range imm or delay value has more significant digits
_CYCLE_NAMES = 3  # a cycle error lists at most this many of its names


class NetlistError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class NetNode:
    name: str
    opcode: Opcode
    operands: tuple[str, ...]
    immediate: int = 0
    delay_cycles: int = 0
    line: int = 0


@dataclass
class Netlist:
    name: str
    inputs: list[tuple[str, WidthMode]] = field(default_factory=list)
    nodes: list[NetNode] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # output name -> node id
    partition: list[list[str]] = field(default_factory=list)  # layer -> node ids
    # filled by validate_netlist
    widths: dict[str, WidthMode] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)  # combinational evaluation order
    depth: dict[str, int] = field(default_factory=dict)  # node id -> combinational depth

    def input_names(self) -> list[str]:
        return [n for n, _ in self.inputs]

    @property
    def critical_path(self) -> int:
        """The deepest node's combinational depth (0 without nodes)."""
        return max(self.depth.values(), default=0)


_INPUT_RE = re.compile(r"^input\s+(\w+)\s*:\s*(bit|int16)$")
# no two adjacent quantifiers match the same text, so matching is linear
_NODE_RE = re.compile(r"^node\s+(\w+)\s*=\s*([A-Z]+)\s*\(([^)]*)\)(.*)$")
_ATTR_RE = re.compile(r"(\w+)=(-?)([0-9]+)")  # not \d, which also matches non-ASCII digits
_OUTPUT_RE = re.compile(r"^output\s+(\w+)\s*=\s*(\w+)$")
# a layer, ASCII digits, is checked after the match, so that any other text
# before the colon is refused, not read as a comment
_PARTITION_RE = re.compile(r"^#\s*partition(\s[^:]*):\s*(.+)$")
_OPCODES = dict(Opcode.__members__)  # a plain dict: ``Opcode[name]`` is Python code


def parse_netlist(text: str, name: str = "netlist") -> Netlist:
    """Parse and validate netlist text; raises NetlistError with line numbers."""
    nl = Netlist(name=name)
    partition: dict[int, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        pm = line.startswith("#") and _PARTITION_RE.match(line)
        if pm:
            layer = pm.group(1).strip()
            if not re.fullmatch("[0-9]+", layer):
                raise NetlistError(
                    f"partition layer {excerpt(repr(layer))} is not ASCII digits", lineno
                )
            # refused before any per-layer list is built; compared as text
            # first, since int() refuses a string of over 4300 digits
            layer = layer.lstrip("0") or "0"
            if len(layer) > len(str(MAX_LAYERS)) or int(layer) >= MAX_LAYERS:
                raise NetlistError(
                    f"partition layer {excerpt(layer)} is beyond the fabric's "
                    f"{MAX_LAYERS} layers",
                    lineno,
                )
            ids = pm.group(2).replace(",", " ").split()
            partition.setdefault(int(layer), []).extend(ids)
            continue
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        m = _INPUT_RE.match(line)
        if m:
            nl.inputs.append((m.group(1), BIT if m.group(2) == "bit" else INT16))
            continue
        m = _NODE_RE.match(line)
        if m:
            node_name, op_name, operand_text, attr_text = m.groups()
            opcode = _OPCODES.get(op_name)
            if opcode is None:
                raise NetlistError(f"unknown opcode {excerpt(repr(op_name))}", lineno)
            operands = tuple(
                o.strip() for o in operand_text.split(",") if o.strip()
            )
            values = {"imm": 0, "delay": 0}
            for attr in attr_text.split():
                am = _ATTR_RE.fullmatch(attr)
                if not am:
                    raise NetlistError(f"syntax error: {excerpt(repr(line))}", lineno)
                key, sign, digits = am.groups()
                if key not in values:
                    raise NetlistError(f"unknown attribute {excerpt(repr(key))}", lineno)
                # compared as text first, like the partition layer
                digits = digits.lstrip("0") or "0"
                if len(digits) > _VALUE_DIGITS:
                    raise NetlistError(f"{key} value of {len(digits)} digits is out of range", lineno)
                values[key] = int(sign + digits)
            nl.nodes.append(
                NetNode(node_name, opcode, operands, values["imm"], values["delay"], lineno)
            )
            continue
        m = _OUTPUT_RE.match(line)
        if m:
            if m.group(1) in nl.outputs:
                raise NetlistError(f"duplicate output {excerpt(repr(m.group(1)))}", lineno)
            nl.outputs[m.group(1)] = m.group(2)
            continue
        raise NetlistError(f"syntax error: {excerpt(repr(line))}", lineno)
    if partition:
        nl.partition = [partition.get(i, []) for i in range(max(partition) + 1)]
    validate_netlist(nl)
    return nl


def validate_netlist(nl: Netlist) -> None:
    input_names = set()
    for iname, _ in nl.inputs:
        if iname == IMM_REF:
            raise NetlistError(f"input name {IMM_REF!r} is reserved")
        if iname in input_names:
            raise NetlistError(f"duplicate input {excerpt(repr(iname))}")
        input_names.add(iname)
    node_names = set()
    for node in nl.nodes:
        if node.name in node_names or node.name in input_names:
            raise NetlistError(f"duplicate name {excerpt(repr(node.name))}", node.line)
        if node.name == IMM_REF:
            raise NetlistError(f"node name {IMM_REF!r} is reserved", node.line)
        node_names.add(node.name)

    for node in nl.nodes:
        arity = OPCODE_ARITY[node.opcode._value_]
        if len(node.operands) != arity:
            raise NetlistError(
                f"{node.opcode.name} takes {arity} operands, got {len(node.operands)}",
                node.line,
            )
        for ref in node.operands:
            if ref != IMM_REF and ref not in input_names and ref not in node_names:
                raise NetlistError(f"dangling reference {excerpt(repr(ref))}", node.line)
        if not (INT16_MIN <= node.immediate <= INT16_MAX):
            raise NetlistError("immediate out of int16 range", node.line)
        if node.opcode is OP_DELAY:
            if not (1 <= node.delay_cycles <= 255):
                raise NetlistError("DELAY requires delay=1..255", node.line)
        elif node.delay_cycles != 0:
            raise NetlistError("delay only valid on DELAY nodes", node.line)

    for oname, target in nl.outputs.items():
        if target not in node_names:
            raise NetlistError(
                f"output {excerpt(repr(oname))} references unknown node {excerpt(repr(target))}"
            )

    if nl.partition:
        placed = [n for layer in nl.partition for n in layer]
        if sorted(placed) != sorted(node_names):
            raise NetlistError("partition pragma must cover every node exactly once")
        for i, layer in enumerate(nl.partition):
            if len(layer) > SLOTS_PER_LAYER:
                raise NetlistError(f"partition layer {i} exceeds {SLOTS_PER_LAYER} worker slots")

    # the fabric's capacity bounds every graph pass below and the placer
    layers = len(nl.partition) or -(-len(nl.nodes) // SLOTS_PER_LAYER)
    if layers > MAX_LAYERS:
        raise NetlistError(f"netlist needs {layers} layers, fabric holds {MAX_LAYERS}")
    if len(nl.inputs) > 64:
        raise NetlistError("more than 64 primary inputs")

    _order_by_depth(nl)
    _resolve_widths(nl)


def _resolve_widths(nl: Netlist) -> None:
    """Propagate width modes to every node and enforce width rules.

    Forward references are legal (delay feedback loops need them) so
    widths settle by fixpoint iteration, which terminates in at most one
    pass per node.  Nodes fed only by constants default to BIT.  When
    the iteration stalls on delay loops fed by no input, each pending
    node with an int16-only opcode is INT16 and the iteration goes on;
    a loop with no such node defaults to BIT.
    """
    widths: dict[str, WidthMode] = dict(nl.inputs)
    pending = list(nl.nodes)
    while pending:
        progressed = False
        still_pending = []
        for node in pending:
            known = [
                widths[ref]
                for ref in node.operands
                if ref != IMM_REF and ref in widths
            ]
            unknown = [
                ref
                for ref in node.operands
                if ref != IMM_REF and ref not in widths
            ]
            if unknown and not known:
                still_pending.append(node)
                continue
            widths[node.name] = known[0] if known else BIT
            progressed = True
        if not progressed:
            # delay loops fed by no input: an int16-only opcode fixes its
            # node's width, and a loop without one defaults to BIT
            arithmetic = [n for n in still_pending if n.opcode._value_ in INT16_ONLY_OPCODES]
            if not arithmetic:
                for node in still_pending:
                    widths[node.name] = BIT
                break
            for node in arithmetic:
                widths[node.name] = INT16
            still_pending = [n for n in still_pending if n.name not in widths]
        pending = still_pending
    for node in nl.nodes:
        width = widths[node.name]
        for ref in node.operands:
            if ref != IMM_REF and widths[ref] is not width:
                raise NetlistError("operand width modes differ", node.line)
        if node.opcode._value_ in INT16_ONLY_OPCODES and width is BIT:
            raise NetlistError(
                f"{node.opcode.name} requires int16 operands", node.line
            )
        if width is BIT and node.immediate not in (0, 1):
            raise NetlistError(
                f"bit-wide constant imm={node.immediate} must be 0 or 1", node.line
            )
    nl.widths = widths


def _order_by_depth(nl: Netlist) -> None:
    """Fill ``nl.order`` and ``nl.depth``; the combinational graph must be acyclic.

    Only operands that propagate combinationally count: primary inputs
    and DELAY node outputs are wave sources, so a delay stage breaks both
    a cycle and a path.  A node's depth is 1 + the greatest depth of its
    combinational operands, for DELAY nodes too (where their captured
    input settles).
    """
    sources = {IMM_REF, *nl.input_names()}
    sources.update(n.name for n in nl.nodes if n.opcode is OP_DELAY)
    deps = {n.name: [ref for ref in n.operands if ref not in sources] for n in nl.nodes}
    lines = {n.name: n.line for n in nl.nodes}
    depths: dict[str, int] = {}
    order: list[str] = []
    stack: list[str] = []

    def visit(name: str) -> None:
        if name in depths:
            return
        if name in stack:
            cycle = [excerpt(n) for n in stack[stack.index(name):]]
            if len(cycle) > _CYCLE_NAMES:
                cycle[_CYCLE_NAMES:] = ["..."]
            raise NetlistError(
                "combinational cycle through: " + " -> ".join(cycle), lines[name]
            )
        stack.append(name)
        for dep in deps[name]:
            visit(dep)
        stack.pop()
        depths[name] = 1 + max((depths[dep] for dep in deps[name]), default=0)
        order.append(name)

    for node in nl.nodes:
        visit(node.name)
    nl.order = order
    nl.depth = depths
