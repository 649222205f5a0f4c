"""Ideal netlist evaluator used as the independent reference.

Evaluates a netlist directly on integers in topological order with
fault-free, redundancy-free semantics: one value per node, DELAY nodes
read prior state.  Deliberately shares no evaluation code with the cell
model so the two can check each other: from the cell and netlist
modules it imports the ``Opcode`` and ``WidthMode`` enums, the
``Netlist`` type and ``IMM_REF``, never a function.

The constructor compiles the netlist once into a plan, which belongs to
that oracle object and is kept for no other netlist: one row per
combinational node in ``nl.order``, ``(name, opcode, is_bit, a, b, c)``
with the operand keys padded to three by ``None``, and one
``(name, source)`` capture per DELAY node.  An ``imm`` operand's key is
its constant itself, an int, which no signal name equals; ``step`` seeds
the values with those constants and drops them before it returns.  So
``step`` is one loop over the rows with the opcode tested in line: no
call per node or per operand.  An opcode the loop does not know is
refused by ``step``, when a row of it is reached.
"""

from __future__ import annotations

from .cell import WidthMode
from .netlist import IMM_REF, Netlist, Opcode


# module-level names for the members step compares against: an
# ``<Enum>.<MEMBER>`` read costs an EnumType.__getattr__ call before 3.12
BIT = WidthMode.BIT
OP_NOP, OP_AND, OP_OR, OP_NOT = Opcode.NOP, Opcode.AND, Opcode.OR, Opcode.NOT
OP_ADD, OP_SUB, OP_MUL, OP_CMP = Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP
OP_DELAY, OP_MUX = Opcode.DELAY, Opcode.MUX


class NetlistOracle:
    """Stateful step-by-step reference evaluation of a netlist."""

    def __init__(self, nl: Netlist):
        self.netlist = nl
        self.input_names = nl.input_names()
        nodes = {n.name: n for n in nl.nodes}
        constants = {}

        def key(node, ref: str):
            if ref != IMM_REF:
                return ref
            constants[node.immediate] = node.immediate
            return node.immediate

        self.plan = []
        for name in nl.order:
            node = nodes[name]
            if node.opcode is not OP_DELAY:
                keys = [key(node, ref) for ref in node.operands]
                keys += [None] * (3 - len(keys))
                self.plan.append((name, node.opcode, nl.widths[name] is BIT, *keys))
        delays = [n for n in nl.nodes if n.opcode is OP_DELAY]
        self.captures = [(n.name, key(n, n.operands[0])) for n in delays]
        self.constants = constants
        self.state: dict[str, tuple[int, ...]] = {n.name: (0,) * n.delay_cycles for n in delays}

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        """Advance one stimulus period; returns every node's settled value."""
        missing = [n for n in self.input_names if n not in inputs]
        if missing:
            raise ValueError(f"incomplete input assignment: missing {missing}")
        values: dict = dict(self.constants)
        values.update(inputs)
        state = self.state
        for name, _ in self.captures:
            values[name] = state[name][0]
        for name, op, bit, a, b, c in self.plan:
            if op is OP_AND:
                r = values[a] & values[b]
            elif op is OP_OR:
                r = values[a] | values[b]
            elif op is OP_NOT:
                r = ~values[a]
            elif op is OP_ADD:
                r = values[a] + values[b]
            elif op is OP_SUB:
                r = values[a] - values[b]
            elif op is OP_MUL:  # Q8.8, truncated toward zero
                r = values[a] * values[b]
                r = -(-r >> 8) if r < 0 else r >> 8
            elif op is OP_CMP:
                values[name] = 1 if values[a] >= values[b] else 0
                continue
            elif op is OP_MUX:
                values[name] = values[b] if values[a] == 0 else values[c]
                continue
            elif op is OP_NOP:
                values[name] = 0
                continue
            else:
                raise ValueError(f"oracle cannot evaluate {op}")
            values[name] = r & 1 if bit else ((r + 32768) & 0xFFFF) - 32768  # INT16 wrap
        for name, source in self.captures:
            state[name] = state[name][1:] + (values[source],)
        for constant in self.constants:
            del values[constant]
        return values

    def outputs(self, values: dict[str, int]) -> dict[str, int]:
        return {name: values[node] for name, node in self.netlist.outputs.items()}
