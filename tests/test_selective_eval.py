"""A cell evaluated only when its inputs changed leaves the trace of one evaluated always.

One flag decides whether a cell evaluates: its register bank's
``changed``, which ``FunctionalCell.step`` keeps set while the cell
holds fault state (an overlay port or an injected permanent fault).
With the flag clear, the kernel republishes the function's
``published`` value without an evaluation; ``step`` itself always
evaluates.  The reference, ``helpers.AlwaysEvaluateEngine``, sets the
flag before a local evaluation's quiet test and runs every wave slot
through ``step``, so it evaluates every cell at every wave and local
event; the two must leave equal traces and equal cell state.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from cellfab import cell as cell_module
from cellfab.cell import CellId, Opcode, Port, WidthMode
from cellfab.engine import Engine, FaultSpec, Scenario, TimingParams
from cellfab.genetic import NOP_CONFIG
from cellfab.netlist import parse_netlist
from cellfab.place import SLOTS_PER_LAYER, compile_netlist

from helpers import AlwaysEvaluateEngine, FullRecord, FullRecordEngine, plant_speeds
from test_wave_paths import scenarios


def cell_state(fabric) -> dict[str, tuple]:
    """Each cell's health, streak, pipeline and register bank."""
    state = {}
    for cell in fabric.workers + fabric.spares:
        bank = cell.registers
        registers = None if bank is None else (bank.values, bank.overlay, bank.changed)
        state[str(cell.cell_id)] = (cell.health, cell.mismatch_streak, cell.pipeline, registers)
    return state


class FullAlwaysEvaluateEngine(FullRecord, AlwaysEvaluateEngine):
    """The always-evaluating reference, recording every publish."""


def assert_same_as_always_evaluating(program, sc: Scenario):
    # both record every publish, so an unchanged republish must match too
    selective = FullRecordEngine(program, sc).run()
    reference = FullAlwaysEvaluateEngine(program, sc).run()
    assert selective.trace.records == reference.trace.records
    assert plant_speeds(selective.trace, sc.plant) == plant_speeds(reference.trace, sc.plant)
    assert cell_state(selective.fabric) == cell_state(reference.fabric)
    return selective


def assert_fault_state_keeps_the_flag(fabric):
    """Every bank whose cell holds fault state must evaluate at its next step."""
    for cell in fabric.workers + fabric.spares:
        bank = cell.registers
        if bank is not None and (bank.overlay or cell.injected_permanent is not None):
            assert bank.changed, cell.cell_id


def test_rewriting_a_corrupted_majority_port_evaluates_again():
    # two replicas of L0.F0's N port flipped alike out-vote the third, so
    # the cell reads 5 ^ 255 = 250 and publishes 251 at 100.  Each clock
    # rewrites a = 5, an unchanged value that drops the corrupted port:
    # the cell must evaluate again and read 6, not keep its last output
    nl = parse_netlist("input a : int16\nnode y = ADD(a, imm) imm=1\noutput o = y\n")
    program = compile_netlist(nl)
    faults = [
        FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=100,
                  port=Port.NORTH, replica=replica, flip=255)
        for replica in (1, 2)
    ]
    sc = Scenario(
        name="pinned", application="inline", stimulus=[(t, "a", 5) for t in (0, 300, 600, 900)],
        faults=faults, timing=TimingParams(stimulus_period=300), run_until=1200,
    )
    res = assert_same_as_always_evaluating(program, sc)
    samples = [(r.time, r.value) for r in res.trace.records if r.signal == "o"]
    assert samples == [(35, 6), (100, 251), (335, 6), (635, 6), (935, 6)]


def test_unchanged_inputs_skip_the_evaluation(monkeypatch):
    # the same input every period: after the first wave no port of the
    # ADD cell changes, so it is never evaluated again, yet it publishes.
    # Both evaluation paths, the pristine pass and FunctionalCell.step, call
    # the evaluator the cell bound from EVALUATORS, so it counts them all
    evaluated = []
    key = (Opcode.ADD._value_, WidthMode.INT16._value_)
    add = cell_module.EVALUATORS[key]

    def counting_add(n, w, e):
        evaluated.append((n, w))
        return add(n, w, e)

    monkeypatch.setitem(cell_module.EVALUATORS, key, counting_add)
    nl = parse_netlist("input a : int16\nnode y = ADD(a, imm) imm=1\noutput o = y\n")
    sc = Scenario(name="steady", application="inline", stimulus=[(0, "a", 5)], run_until=1200)
    res = Engine(compile_netlist(nl), sc).run()
    assert evaluated == [(5, 1)]
    assert [(r.time, r.value) for r in res.trace.records if r.signal == "o"] == [
        (35, 6), (335, 6), (635, 6), (935, 6),
    ]


@st.composite
def faulted_scenarios(draw):
    """The wave-path scenarios with bursts, permanent faults on workers
    and spares, and at times a flip on every cell: heals and fail-safe."""
    program, sc = draw(scenarios())

    def bit(cell):  # a spare has the width of the worker in its slot
        config = program.configs.get(cell.layer * SLOTS_PER_LAYER + cell.slot, NOP_CONFIG)
        return config.width_mode is WidthMode.BIT

    def flip(cell):
        return st.just(1) if bit(cell) else st.integers(1, 0xFFFF)

    def value(cell):
        return st.integers(0, 1) if bit(cell) else st.integers(-0x8000, 0x7FFF)

    run_until = sc.run_until
    workers = [CellId(layer, slot, "F") for layer, slot in sorted(program.placement.slots.values())]
    spares = [
        CellId(layer, slot, "R")
        for layer in range(program.placement.layer_count) for slot in range(SLOTS_PER_LAYER)
    ]
    faults = list(sc.faults)
    for _ in range(draw(st.integers(0, 1))):
        period = draw(st.integers(1, max(1, run_until // 4)))
        count = draw(st.integers(1, min(4, 1 + run_until // period)))
        cell = draw(st.sampled_from(workers))
        faults.append(FaultSpec(
            kind="intermittent_burst", cell=cell,
            time=draw(st.integers(0, run_until - (count - 1) * period)),
            port=draw(st.sampled_from(list(Port))), replica=draw(st.integers(0, 2)),
            flip=draw(flip(cell)), period=period, count=count,
        ))
    for _ in range(draw(st.integers(0, 3))):  # flip or stuck, latent on an idle spare
        cell = draw(st.sampled_from(workers + spares))
        use_flip = draw(st.booleans())
        faults.append(FaultSpec(
            kind="permanent_gfb", cell=cell, time=draw(st.integers(0, run_until)),
            flip=draw(flip(cell)) if use_flip else None,
            stuck=None if use_flip else draw(value(cell)),
        ))
    if draw(st.integers(0, 3)) == 0:  # every cell fails: the spares run out
        t = draw(st.integers(0, run_until // 2))
        faults += [
            FaultSpec(kind="permanent_gfb", cell=cell, time=t, flip=draw(flip(cell)))
            for cell in workers + spares
        ]
    timing = replace(
        sc.timing,
        check_threshold=draw(st.integers(1, 3)),
        reroute_delay=draw(st.integers(1, 40)),
        restore_delay=draw(st.integers(1, 40)),
    )
    return program, replace(sc, faults=faults, timing=timing)


def test_selective_evaluation_matches_always_evaluating():
    # the property holds only as far as its cases reach, so they must
    # mask transients, mismatch, heal and run out of spares
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(faulted_scenarios())
    def check(case):
        res = assert_same_as_always_evaluating(*case)
        assert_fault_state_keeps_the_flag(res.fabric)
        seen.update(r.annotation for r in res.trace.records)
        if any(r.signal.endswith(".restore") for r in res.trace.records):
            seen.add("healed")

    check()
    assert {"masked_transient", "mismatch", "syndrome_action", "alarm", "healed"} <= seen
