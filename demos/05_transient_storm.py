"""Three register transients in a row, all masked in place.

Transients land in three different replica registers of the first
worker cell at 180, 240 and 300 ns.  The voters absorb every one of
them: the output trace is byte-for-byte the fault-free trace.
"""

from cellfab.report import metrics
from cellfab.scenarios import load_scenario
from cellfab.sim import run_raw


def output_records(trace):
    """The primary-output data samples: the comparable output trace."""
    return [r for r in trace.records if r.annotation == "data" and r.signal in trace.outputs]


scenario = load_scenario("edg_transient3")
faulted = run_raw(scenario)
golden = run_raw(load_scenario("edg_faultfree"))

for r in faulted.trace.records:
    if r.annotation == "masked_transient":
        print(f"t={r.time:4d} ns  {r.signal}: replica dissent mask {r.value:03b} (masked)")

same = output_records(faulted.trace) == output_records(golden.trace)
m = metrics(faulted.trace, scenario)
print(f"\noutput trace identical to golden: {same}")
print(f"erroneous output samples: {m.erroneous_output_samples}")
print(f"faults injected/detected/tolerated: "
      f"{m.faults_injected}/{m.faults_detected}/{m.faults_healed}")
