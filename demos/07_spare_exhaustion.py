"""Driving a single-layer fabric past its spares and into fail-safe.

Four workers and four spares serve a toy 4-gate netlist.  Nine
sequential permanent faults burn through every cell; once no idle spare
remains anywhere, the fabric latches its alarm and pins all primary
outputs to the safe value 0 while the trace keeps recording.
"""

from cellfab.cell import CellId
from cellfab.engine import Engine, FaultSpec, Scenario
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist
from cellfab.report import metrics

NETLIST = """
input a : bit
input b : bit
node g1 = AND(a, b)
node g2 = OR(a, b)
node g3 = NOT(a)
node g4 = AND(g1, g2)
output y1 = g4
output y2 = g3
"""

program = compile_netlist(parse_netlist(NETLIST, "single"))
targets = [CellId(0, s, "F") for s in range(4)] + [CellId(0, s, "R") for s in range(4)]
faults = [
    FaultSpec(kind="permanent_gfb", cell=c, time=400 + 400 * i, flip=1)
    for i, c in enumerate(targets + [targets[0]])  # ninth hits a dead cell
]
scenario = Scenario(
    name="exhaustion",
    application="single",
    stimulus=[(0, "a", 1), (0, "b", 1)],
    faults=faults,
    run_until=4400,
    seed=1,
)
result = Engine(program, scenario).run()

for r in result.trace.records:
    if r.annotation in ("syndrome_action", "alarm"):
        label = "ALARM fail_safe" if r.annotation == "alarm" else r.signal
        print(f"t={r.time:5d} ns  {label}")

print(f"\nfinal alarm state: {metrics(result.trace).alarm}")
finals = {}
for r in result.trace.records:
    if r.annotation == "data" and r.signal in ("y1", "y2"):
        finals[r.signal] = r.value
print(f"final outputs (pinned safe): {finals}")
print(f"idle spares remaining: {len(result.fabric.free_spares())}")
