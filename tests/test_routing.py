"""Routing faithfulness: the configured fabric tracks the ideal reference."""

import random

from cellfab.apps import resolve_netlist
from cellfab.engine import Engine, Scenario, TimingParams
from cellfab.oracle import NetlistOracle
from cellfab.place import compile_netlist
from cellfab.sim import run_raw
from cellfab.scenarios import load_scenario

from helpers import compare_steady_state


def drive_vectors(nl, vectors, holds=1, period=2000):
    program = compile_netlist(nl)
    stim = []
    t = 0
    ends = []
    for vec in vectors:
        stim.extend((t, name, value) for name, value in vec.items())
        t += holds * period
        ends.append(t)
    sc = Scenario(
        name="vectors",
        application=nl.name,
        stimulus=stim,
        timing=TimingParams(stimulus_period=period),
        run_until=t,
        seed=1,
    )
    res = Engine(program, sc).run()
    outputs = sorted(nl.outputs)
    samples = {o: [] for o in outputs}
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in samples:
            samples[r.signal].append((r.time, r.value))

    settled = []
    cursor = {o: 0 for o in outputs}
    value = {o: None for o in outputs}
    for end in ends:
        for o in outputs:
            lst = samples[o]
            i = cursor[o]
            while i < len(lst) and lst[i][0] < end:
                value[o] = lst[i][1]
                i += 1
            cursor[o] = i
        settled.append(dict(value))
    return settled


def test_edg_fabric_equivalence_ten_thousand_vectors():
    nl = resolve_netlist("edg")
    rng = random.Random(123)
    names = nl.input_names()
    vectors = [{n: rng.randint(0, 1) for n in names} for _ in range(10_000)]
    got = drive_vectors(nl, vectors)
    oracle = NetlistOracle(nl)
    for i, vec in enumerate(vectors):
        expect = oracle.outputs(oracle.step(vec))
        assert got[i] == expect, f"vector {i}"


def test_ccs_fabric_equivalence_thousand_vectors():
    nl = resolve_netlist("ccs")
    rng = random.Random(321)
    names = nl.input_names()
    holds = sum(n.delay_cycles for n in nl.nodes) + 3
    vectors = []
    for _ in range(1000):
        vec = {n: rng.randint(0, 1) for n in names}
        vec["actual_speed"] = rng.randint(-200, 200)
        vectors.append(vec)
    got = drive_vectors(nl, vectors, holds=holds)
    oracle = NetlistOracle(nl)
    for i, vec in enumerate(vectors):
        values = {}
        for _ in range(holds):
            values = oracle.step(vec)
        expect = oracle.outputs(values)
        assert got[i] == expect, f"vector {i}"


def test_compare_steady_state_lists_divergent_output():
    res = run_raw(load_scenario("edg_faultfree"))
    wrong = {"EngineStart": 0, "OpenAirStartFuel_Valves": 1}
    bad = compare_steady_state(res.trace, wrong, 245)
    assert bad == [("EngineStart", 1, 0)]
