"""``report.to_vcd`` writes the bytes of its plain reference.

``to_vcd`` folds only the samples that change a signal, builds an int16
value line from a 256-entry byte table and a 1-bit line from a pair of
strings per signal, and stamps a time at its first real change.
``references.reference_vcd`` does each of these the plain way.  The
generated traces hold bit and int16 inputs and outputs, negative int16
values, a signal that changes and changes back at one time (whose stamp
must vanish), non-``data`` rows, declared signals never sampled, and
first samples after t=0.
"""

from hypothesis import given, settings, strategies as st

from cellfab.cell import BIT, INT16
from cellfab.engine import ANNOTATIONS, TimingParams, Trace, TraceRecord
from cellfab.report import to_vcd

from references import reference_vcd

VALUES = {BIT: st.integers(0, 1), INT16: st.integers(-32768, 32767)}


@st.composite
def traces(draw):
    """A trace of time-ordered records over a drawn signal table.  Each
    step samples one signal, or is a blip: a new value and then, at the
    same time, the value the signal held before."""
    widths = st.sampled_from([BIT, INT16])
    n_in, n_out = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    inputs = {f"i{k}": draw(widths) for k in range(n_in)}
    outputs = {f"o{k}": draw(widths) for k in range(n_out)}
    declared = {f"in.{name}": mode for name, mode in inputs.items()} | outputs
    # undeclared signals are recorded too and must be left out
    signals = [*declared, "fn.n0", "fault.L0.F0"]
    t = draw(st.integers(0, 100))
    held: dict[str, int] = {}
    records = []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from([0, 0, 1, 35]))
        signal = draw(st.sampled_from(signals))
        mode = declared.get(signal, INT16)
        annotation = draw(st.sampled_from(["data", "data", "data", *ANNOTATIONS]))
        value = draw(st.sampled_from([0, 1]) if draw(st.booleans()) else VALUES[mode])
        value = value & 1 if mode is BIT else value
        records.append(TraceRecord(t, signal, value, annotation))
        if annotation == "data" and draw(st.booleans()) and signal in held:
            records.append(TraceRecord(t, signal, held[signal], "data"))
        elif annotation == "data":
            held[signal] = value
    return Trace(scenario_name="generated", application="generated", timing=TimingParams(),
                 seed=0, inputs=inputs, outputs=outputs, records=records, complete=True)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(traces())
def test_to_vcd_writes_the_reference_bytes(trace):
    assert to_vcd(trace) == reference_vcd(trace)

