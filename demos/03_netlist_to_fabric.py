"""From a function-block netlist to configured fabric layers.

The generator-startup netlist has 14 gates; the placer packs them four
per layer by logic depth and mirrors each worker's configuration word
into the spare cell sitting beside it.
"""

from cellfab.apps import resolve_netlist
from cellfab.place import build_routing, dump_program, place

nl = resolve_netlist("edg")
print(f"netlist: {len(nl.nodes)} nodes over {len(nl.inputs)} inputs, "
      f"combinational depth {nl.critical_path}")

placement = place(nl)
print(f"placement: {placement.layer_count} layers of 4 worker slots\n")

program = build_routing(nl, placement)
print(dump_program(program))

print(f"{len(program.configs)} worker configurations, "
      f"{len(program.spare_codes)} pre-generated spare codes")
