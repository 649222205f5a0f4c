"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion; any assertion failure marks its criterion failed.
"""

import random
import time
from dataclasses import replace

import pytest

from cellfab.apps import resolve_application
from cellfab.cell import CellId, Opcode, WidthMode, vote, wrap16
from cellfab.engine import Engine, FaultSpec, Scenario, TimingParams
from cellfab.genetic import (
    CorruptedCodeError,
    InvalidCodeError,
    decode_genetic,
    encode_genetic,
)
from cellfab.netlist import Netlist, NetNode, validate_netlist
from cellfab.oracle import NetlistOracle
from cellfab.place import compile_netlist, place
from cellfab.report import metrics, to_csv, to_vcd
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario
from cellfab.sim import run_raw

from helpers import compare_steady_state, held_at, plant_speeds
from test_genetic import random_config


def report(n: int, text: str) -> None:
    print(f"criterion {n:>2}: PASS  {text}")


def output_rows(trace) -> str:
    return "\n".join(
        f"{r.time},{r.signal},{r.value},{r.annotation}"
        for r in trace.output_records()
    )


def restore_times(result):
    return [s.restore_time for s in metrics(result.trace).syndromes if s.restore_time is not None]


def test_criterion_01_fault_free_latency():
    t0 = time.time()
    res = run_raw(load_scenario("edg_faultfree"))
    elapsed = time.time() - t0
    firsts = {}
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in ("EngineStart", "OpenAirStartFuel_Valves"):
            firsts.setdefault(r.signal, r.time)
    assert firsts == {"EngineStart": 245, "OpenAirStartFuel_Valves": 245}
    assert elapsed < 1.0
    report(1, f"both outputs first valid at exactly 245 ns ({elapsed:.3f}s)")


def test_criterion_02_transient_masking():
    faulted = run_raw(load_scenario("edg_transient3"))
    golden = run_raw(load_scenario("edg_faultfree"))
    assert output_rows(faulted.trace) == output_rows(golden.trace)
    m = metrics(faulted.trace, load_scenario("edg_transient3"))
    assert m.erroneous_output_samples == 0
    report(2, "transient trio masked: output trace byte-identical, 0 erroneous samples")


def test_criterion_03_permanent_healing():
    sc = load_scenario("edg_permanent_bt")
    res = run_raw(sc)
    assert len(res.syndromes) == 2
    for s in metrics(res.trace).syndromes:
        times = [s.deactivate_time, s.reroute_time, s.restore_time]
        assert None not in times and times == sorted(times)
    nl = resolve_application("edg").netlist
    oracle = NetlistOracle(nl)
    from cellfab.apps.edg import START_PERMITTED

    expect = oracle.outputs(oracle.step(START_PERMITTED))
    assert compare_steady_state(res.trace, expect, max(restore_times(res))) == []
    report(3, "two syndromes healed in deactivate->reroute->restore order, steady state clean")


def test_criterion_04_multifault_timing():
    sc = load_scenario("edg_multifault4")
    res = run_raw(sc)
    m = metrics(res.trace, sc)
    assert m.heal_complete is not None and m.heal_complete <= 570
    assert m.heal_ratio is not None and 2.0 <= m.heal_ratio <= 2.6
    assert m.faults_injected == 4 and m.faults_healed == 4
    report(4, f"4 faults healed by {m.heal_complete} ns, ratio {m.heal_ratio:.4f}")


def test_criterion_05_constant_incremental_latency():
    from cellfab.apps.edg import START_PERMITTED

    targets = [CellId(0, s, "F") for s in range(4)] + [CellId(0, s, "R") for s in range(4)]
    fault_times = [400 + 400 * i for i in range(8)]
    faults = [
        FaultSpec(kind="permanent_gfb", cell=c, time=t, flip=1)
        for c, t in zip(targets, fault_times)
    ]
    sc = Scenario(
        name="edg_seq8",
        application="edg",
        stimulus=[(0, n, v) for n, v in START_PERMITTED.items()],
        faults=faults,
        run_until=4200,
        seed=1,
    )
    res = run_raw(sc)
    healed = metrics(res.trace).syndromes
    assert len(res.syndromes) == len(healed) == 8
    latencies = []
    for s, t_inject in zip(healed, fault_times):
        restore = s.restore_time
        assert restore is not None
        latencies.append(restore - t_inject)
    spread = max(latencies) - min(latencies)
    assert spread <= sc.timing.cell_delay
    report(5, f"8 sequential faults, per-fault heal latency {latencies[0]} ns, spread {spread} ns")


# ---- criterion 6: randomized oracle equivalence ---------------------------

BIT_OPS = [Opcode.AND, Opcode.OR, Opcode.NOT, Opcode.MUX, Opcode.DELAY]
INT_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP,
    Opcode.MUX, Opcode.NOT, Opcode.AND, Opcode.OR, Opcode.DELAY,
]


def random_netlist(rng: random.Random, index: int) -> Netlist:
    width = rng.choice((WidthMode.BIT, WidthMode.INT16))
    ops = BIT_OPS if width is WidthMode.BIT else INT_OPS
    n_inputs = rng.randint(2, 5)
    inputs = [(f"i{k}", width) for k in range(n_inputs)]
    refs = [name for name, _ in inputs]
    nodes = []
    n_nodes = rng.randint(3, 20)
    for k in range(n_nodes):
        opcode = rng.choice(ops)
        if opcode is Opcode.DELAY and rng.random() > 0.25:
            opcode = rng.choice([op for op in ops if op is not Opcode.DELAY])
        arity = {Opcode.NOT: 1, Opcode.DELAY: 1, Opcode.MUX: 3}.get(opcode, 2)
        operands = []
        immediate = 0
        for a in range(arity):
            if a > 0 and rng.random() < 0.15:
                operands.append("imm")
                immediate = rng.randint(0, 1) if width is WidthMode.BIT else rng.randint(-500, 500)
            else:
                operands.append(rng.choice(refs))
        nodes.append(
            NetNode(
                name=f"n{k}",
                opcode=opcode,
                operands=tuple(operands),
                immediate=immediate,
                delay_cycles=rng.randint(1, 2) if opcode is Opcode.DELAY else 0,
                line=k + 1,
            )
        )
        refs.append(f"n{k}")
    out_nodes = rng.sample([n.name for n in nodes], k=min(2, len(nodes)))
    # declared in random order: a node may come before an operand of its own
    rng.shuffle(nodes)
    nodes = [replace(node, line=k + 1) for k, node in enumerate(nodes)]
    nl = Netlist(
        name=f"rand{index}",
        inputs=inputs,
        nodes=nodes,
        outputs={f"o{j}": name for j, name in enumerate(out_nodes)},
    )
    validate_netlist(nl)
    return nl


def random_vector(rng: random.Random, nl: Netlist) -> dict[str, int]:
    bit = nl.widths[nl.input_names()[0]] is WidthMode.BIT if nl.inputs else True
    return {
        name: (rng.randint(0, 1) if bit else rng.randint(-2000, 2000))
        for name in nl.input_names()
    }


def run_vectors(program, nl, vectors, holds, faults):
    period = 2000
    stim = []
    t = 0
    boundaries = []
    for vec in vectors:
        stim.extend((t, name, value) for name, value in vec.items())
        boundaries.append((t, t + holds * period))
        t += holds * period
    sc = Scenario(
        name="prop",
        application=nl.name,
        stimulus=stim,
        faults=faults,
        timing=TimingParams(stimulus_period=period),
        run_until=t,
        seed=1,
    )
    res = Engine(program, sc).run()
    held: dict[str, list] = {}
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in res.trace.outputs:
            held.setdefault(r.signal, []).append((r.time, r.value))

    def settled(upto: int) -> dict[str, int]:
        out = {}
        for sig, samples in held.items():
            value = None
            for st, sv in samples:
                if st >= upto:
                    break
                value = sv
            out[sig] = value
        return out

    return [settled(hi) for _, hi in boundaries], res


def test_criterion_06_oracle_equivalence():
    rng = random.Random(20240806)
    t0 = time.time()
    n_netlists = 1000
    reordered = 0
    for i in range(n_netlists):
        nl = random_netlist(rng, i)
        reordered += nl.order != [n.name for n in nl.nodes]
        program = compile_netlist(nl)
        delay_stages = sum(n.delay_cycles for n in nl.nodes)
        holds = 1 if delay_stages == 0 else delay_stages + 3
        vectors = [random_vector(rng, nl) for _ in range(10)]

        oracle = NetlistOracle(nl)
        expected = []
        for vec in vectors:
            values = {}
            for _ in range(holds):
                values = oracle.step(vec)
            expected.append(oracle.outputs(values))

        got, _ = run_vectors(program, nl, vectors, holds, [])
        assert got == expected, f"fault-free divergence on netlist {i}"

        placement = place(nl)
        by_layer: dict[int, list[int]] = {}
        for name, (layer, slot) in placement.slots.items():
            by_layer.setdefault(layer, []).append(slot)
        faults = []
        for j, (layer, slots) in enumerate(sorted(by_layer.items())):
            slot = rng.choice(sorted(slots))
            flip = 1 if nl.widths[nl.input_names()[0]] is WidthMode.BIT else rng.randint(1, 0xFFFF)
            faults.append(
                FaultSpec(
                    kind="permanent_gfb",
                    cell=CellId(layer, slot, "F"),
                    time=200 + 67 * j,
                    flip=flip,
                )
            )
        got_f, res_f = run_vectors(program, nl, vectors, holds, faults)
        assert len(res_f.syndromes) == len(faults), f"netlist {i}: not all faults healed"
        assert got_f[1:] == expected[1:], f"post-healing divergence on netlist {i}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert reordered, "no netlist declares a node after a reader of it"
    report(6, f"{n_netlists} random netlists x 10 vectors, fault-free and healed ({elapsed:.1f}s)")


def test_criterion_07_voter_property():
    for good in (0, 1):
        for bad in (0, 1):
            if bad == good:
                continue
            for pos in range(3):
                reps = [good] * 3
                reps[pos] = bad
                v, mask = vote(*reps)
                assert v == good and mask == 1 << pos
    rng = random.Random(7)
    trials = 10_000
    for _ in range(trials):
        good = rng.randint(-32768, 32767)
        bad = wrap16(good + rng.randint(1, 0xFFFF))
        pos = rng.randrange(3)
        reps = [good] * 3
        reps[pos] = bad
        v, mask = vote(*reps)
        assert v == good and mask == 1 << pos
    report(7, f"voter masks every single-replica corruption (exhaustive bit, {trials} word cases)")


def test_criterion_08_genetic_code():
    rng = random.Random(8)
    trials = 10_000
    for _ in range(trials):
        cfg = random_config(rng)
        assert decode_genetic(encode_genetic(cfg)) == cfg
    flip_words = 64
    for _ in range(flip_words):
        word = encode_genetic(random_config(rng))
        for bit in range(2, 66):
            with pytest.raises((CorruptedCodeError, InvalidCodeError)):
                decode_genetic(word ^ (1 << bit))
    report(8, f"{trials} roundtrips; all 64 flips x {flip_words} words rejected")


def test_criterion_09_ccs_structure_and_semantics():
    from collections import Counter

    from references import CCS_CELL_OPCODES, ModeCondition, PiParams, ccs_mode, pi_reference

    nl = resolve_application("ccs").netlist
    got = {n.name: n.opcode.name for n in nl.nodes}
    assert got == CCS_CELL_OPCODES
    assert Counter(got.values()) == Counter(CCS_CELL_OPCODES.values())
    assert place(nl).layer_count == 5

    assert ccs_mode(ModeCondition.SET, 0, 55) == 55
    assert ccs_mode(ModeCondition.INCREMENT, 55, 0) == 56
    assert ccs_mode(ModeCondition.DECREMENT, 55, 0) == 54
    assert ccs_mode(ModeCondition.CANCEL_BRAKE, 80, 0) == 0

    sc = load_scenario("ccs_step")
    res = run_raw(sc)
    # the values held at each period's end: fn.fc10 is sampled only when
    # it changes, throttle at every publish
    period = sc.timing.stimulus_period
    ends = [k * period + period - 1 for k in range(sc.run_until // period)]
    fc10 = held_at(res.trace, "fn.fc10", ends)
    throttle = held_at(res.trace, "throttle", ends)
    ks = [k for k in range(len(ends)) if fc10[k] is not None and throttle[k] is not None]
    assert len(ks) >= 299
    sim_u = [throttle[k] for k in ks]
    ref_u = pi_reference(PiParams(), [fc10[k] for k in ks])
    assert sim_u == ref_u
    report(9, f"17-cell inventory, 5 layers, mode table, throttle == PI reference over {len(ks)} samples")


def test_criterion_10_ccs_healing_transparency():
    golden = run_raw(load_scenario("ccs_step"))
    faulted = run_raw(load_scenario("ccs_fc16_permanent"))
    assert len(faulted.syndromes) == 1
    restore = max(restore_times(faulted))
    gv = dict(plant_speeds(golden.trace, golden.scenario.plant))
    fv = dict(plant_speeds(faulted.trace, faulted.scenario.plant))
    assert set(gv) == set(fv)
    post = [t for t in gv if t >= restore]
    assert post and all(gv[t] == fv[t] for t in post)
    diverged = [t for t in gv if gv[t] != fv[t]]
    report(
        10,
        f"FC16 healed at {restore} ns; speed trajectory equal post-restore"
        f" ({'no samples diverged at all' if not diverged else f'{len(diverged)} pre-restore samples diverged'})",
    )


def test_criterion_11_determinism():
    for name in BUNDLED_SCENARIOS:
        sc = load_scenario(name)
        a = run_raw(sc)
        b = run_raw(load_scenario(name))
        assert to_csv(a.trace).encode() == to_csv(b.trace).encode(), name
        assert to_vcd(a.trace).encode() == to_vcd(b.trace).encode(), name
    report(11, f"all {len(BUNDLED_SCENARIOS)} bundled scenarios byte-identical across repeated runs")
