"""Ideal netlist evaluator used as the independent reference.

Evaluates a netlist directly on integers in topological order with
fault-free, redundancy-free semantics: one value per node, DELAY nodes
read prior state.  Deliberately shares no evaluation code with the cell
model so the two can check each other.
"""

from __future__ import annotations

from .cell import WidthMode, wrap16
from .netlist import IMM_REF, Netlist, Opcode


# module-level names for the members _eval_node compares against: an
# ``<Enum>.<MEMBER>`` read costs an EnumType.__getattr__ call before 3.12
BIT = WidthMode.BIT
OP_NOP, OP_AND, OP_OR, OP_NOT = Opcode.NOP, Opcode.AND, Opcode.OR, Opcode.NOT
OP_ADD, OP_SUB, OP_MUL, OP_CMP, OP_MUX = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP, Opcode.MUX
)


def _trunc_q88(p: int) -> int:
    q = abs(p) >> 8
    return -q if p < 0 else q


class NetlistOracle:
    """Stateful step-by-step reference evaluation of a netlist."""

    def __init__(self, nl: Netlist):
        self.netlist = nl
        nodes = {n.name: n for n in nl.nodes}
        self.combinational = [
            nodes[name] for name in nl.order if nodes[name].opcode is not Opcode.DELAY
        ]
        self.delay_nodes = [n for n in nl.nodes if n.opcode is Opcode.DELAY]
        self.state: dict[str, tuple[int, ...]] = {
            n.name: (0,) * n.delay_cycles for n in self.delay_nodes
        }

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        """Advance one stimulus period; returns every node's settled value."""
        missing = [n for n in self.netlist.input_names() if n not in inputs]
        if missing:
            raise ValueError(f"incomplete input assignment: missing {missing}")
        values: dict[str, int] = dict(inputs)
        for node in self.delay_nodes:
            values[node.name] = self.state[node.name][0]
        for node in self.combinational:
            values[node.name] = self._eval_node(node, values)
        for node in self.delay_nodes:
            captured = self._operand(node, 0, values)
            self.state[node.name] = self.state[node.name][1:] + (captured,)
        return values

    def outputs(self, values: dict[str, int]) -> dict[str, int]:
        return {name: values[node] for name, node in self.netlist.outputs.items()}

    def _operand(self, node, i: int, values: dict[str, int]) -> int:
        ref = node.operands[i]
        return node.immediate if ref == IMM_REF else values[ref]

    def _eval_node(self, node, values: dict[str, int]) -> int:
        bit = self.netlist.widths[node.name] is BIT
        ops = [self._operand(node, i, values) for i in range(len(node.operands))]
        op = node.opcode
        if op is OP_NOP:
            return 0
        if op is OP_AND:
            r = ops[0] & ops[1]
        elif op is OP_OR:
            r = ops[0] | ops[1]
        elif op is OP_NOT:
            r = ~ops[0]
        elif op is OP_ADD:
            r = ops[0] + ops[1]
        elif op is OP_SUB:
            r = ops[0] - ops[1]
        elif op is OP_MUL:
            r = _trunc_q88(ops[0] * ops[1])
        elif op is OP_CMP:
            return 1 if ops[0] >= ops[1] else 0
        elif op is OP_MUX:
            return ops[1] if ops[0] == 0 else ops[2]
        else:
            raise ValueError(f"oracle cannot evaluate {op}")
        return r & 1 if bit else wrap16(r)

