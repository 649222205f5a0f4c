"""Seeded inputs, ops and correctness checks of the cellfab benchmark.

Each workload is a class with the same shape:

* ``__init__(seed)`` makes the inputs every op shares (untimed);
* ``inputs(i)`` makes op ``i``'s inputs from ``(seed, i)`` (untimed);
* ``op(inp, span)`` is the timed op; it calls the package only through
  public functions, in the order ``cellfab run`` uses them, and wraps
  each call in ``span(<layer metric>)``;
* ``check(inp, out)`` raises ``CheckFailed`` unless the op's outputs
  equal an independent reference (untimed; on oracle_netlists the
  comparison is part of the op and ``check`` has nothing left to do);
* ``exports(out)`` gives the exported text the byte-identity digest
  covers;
* ``diagnose(inp, out, span)`` re-runs single layers on the op's inputs
  for the per-layer metrics of a traced run (untimed for the op).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from cellfab.apps import resolve_application, resolve_netlist
from cellfab.apps.edg import START_PERMITTED
from cellfab.engine import Engine, plant_step_raw
from cellfab.netlist import parse_netlist
from cellfab.oracle import NetlistOracle
from cellfab.place import compile_netlist, place
from cellfab.report import format_metrics, metrics, to_csv, to_vcd
from cellfab.scenarios import scenario_from_dict


class CheckFailed(Exception):
    """An op completed but its outputs differ from the reference."""


@dataclass
class Outcome:
    """What one op produced."""

    scenario: object
    program: object
    result: object
    metrics: object = None
    exported: Optional[tuple[str, ...]] = None
    campaign: Optional[str] = None  # masked / healed / fail_safe / silent


def held_at_period_ends(trace, names, period: int, periods: int) -> dict[str, list]:
    """Value of each named data signal held at the end of every period."""
    samples: dict[str, list[tuple[int, int]]] = {n: [] for n in names}
    for r in trace.records:
        if r.annotation == "data" and r.signal in samples:
            samples[r.signal].append((r.time, r.value))
    held = {}
    for name, seq in samples.items():
        out, j, value = [], 0, None
        for k in range(periods):
            end = (k + 1) * period
            while j < len(seq) and seq[j][0] < end:
                value = seq[j][1]
                j += 1
            out.append(value)
        held[name] = out
    return held


def layer_counts(out: Outcome) -> dict[str, int]:
    """Exact per-op counts read from the run result and its trace."""
    result = out.result
    output_names = set(out.program.output_binding)
    kinds = Counter(r.annotation for r in result.trace.records)
    publishes = sum(
        1
        for r in result.trace.records
        if r.annotation == "data"
        and (r.signal.startswith("fn.") or r.signal in output_names)
    )
    return {
        "engine.publishes": publishes,
        "engine.sim_ns": out.scenario.run_until,
        "engine.records_masked": kinds["masked_transient"],
        "engine.records_mismatch": kinds["mismatch"],
        "engine.records_heal": kinds["syndrome_action"],
        "engine.records_alarm": kinds["alarm"],
        "fabric.syndromes": len(result.syndromes),
        "fabric.spares_activated": sum(
            1 for r in result.trace.records
            if r.annotation == "syndrome_action" and r.signal.endswith(".restore")
        ),
    }


class _ScenarioWorkload:
    """Ops that follow ``cellfab run``: load, resolve, build, run, metrics, export."""

    def op(self, inp: dict, span) -> Outcome:
        with span("scenarios.load_ms"):
            sc = scenario_from_dict(inp["scenario"], inp["name"])
        with span("apps.resolve_ms"):
            program = resolve_application(sc.application)
        with span("fabric.build_ms"):
            engine = Engine(program, sc)
        with span("engine.run_ms"):
            result = engine.run()
        with span("report.metrics_call_ms"):
            m = metrics(result.trace, sc)
        with span("report.export_ms"):
            exported = (to_csv(result.trace), to_vcd(result.trace), format_metrics(m, sc.timing))
        return Outcome(sc, program, result, m, exported)

    def exports(self, out: Outcome) -> tuple[str, ...]:
        return out.exported

    def diagnose(self, inp: dict, out: Outcome, span) -> None:
        with span("netlist.parse_ms"):
            nl = resolve_netlist(self.app)
        with span("place.compile_ms"):
            compile_netlist(nl)
        twin = Engine(out.program, out.scenario.without_faults())  # build timed apart
        with span("sim.golden_ms"):
            golden = twin.run().trace
        with span("report.metrics_ms"):
            metrics(out.result.trace, out.scenario, golden=golden)
        with span("oracle.check_ms"):
            self.check(inp, out)


# ---- ccs_cruise ----------------------------------------------------------

CCS_PERIOD = 1000  # ns: a 1 us control period
CCS_PERIODS = 100
CCS_BUTTONS = ("set_btn", "inc_btn", "dec_btn", "cancel_btn", "brake")
CCS_PLANT = {"gain": 128, "drag": 64, "dt": 256}


class CcsCruise(_ScenarioWorkload):
    """Closed-loop cruise-control drives of a fixed length, no faults."""

    name = "ccs_cruise"
    app = "ccs"

    def __init__(self, seed: int):
        self.seed = seed
        nl = resolve_netlist("ccs")
        self.reference_netlist = nl
        self.outputs = tuple(nl.outputs)

    def inputs(self, i: int) -> dict:
        rng = random.Random(f"ccs_cruise:{self.seed}:{i}")
        v0 = rng.randint(0, 120)
        stim = [{"t": 0, "name": b, "value": 0} for b in CCS_BUTTONS]
        stim.append({"t": 0, "name": "actual_speed", "value": v0})
        k = 0
        while True:
            k += rng.randint(1, 8)
            button = rng.choices(CCS_BUTTONS, weights=(3, 5, 3, 1, 1))[0]
            hold = rng.randint(1, 12) if button in ("inc_btn", "dec_btn") else 1
            if k + hold >= CCS_PERIODS:
                break
            stim.append({"t": k * CCS_PERIOD, "name": button, "value": 1})
            k += hold
            stim.append({"t": k * CCS_PERIOD, "name": button, "value": 0})
        scenario = {
            "application": "ccs",
            "timing": {"stimulus_period": CCS_PERIOD},
            "stimulus": stim,
            "faults": [],
            "run_until": CCS_PERIODS * CCS_PERIOD,
            "seed": self.seed,
            "plant": {"input_name": "actual_speed", "output_name": "throttle", "v0": v0, **CCS_PLANT},
        }
        return {"name": f"drive{i}", "scenario": scenario}

    def check(self, inp: dict, out: Outcome) -> None:
        """Throttle and active at every period end equal a closed-loop
        NetlistOracle + plant_step_raw replay of the same drive."""
        held = held_at_period_ends(out.result.trace, self.outputs, CCS_PERIOD, CCS_PERIODS)
        buttons = {b: 0 for b in CCS_BUTTONS}
        presses: dict[int, list] = {}
        for s in inp["scenario"]["stimulus"]:
            presses.setdefault(s["t"] // CCS_PERIOD, []).append(s)
        oracle = NetlistOracle(self.reference_netlist)
        speed = inp["scenario"]["plant"]["v0"]
        throttle = 0
        for k in range(CCS_PERIODS):
            for s in presses.get(k, []):
                if s["name"] in buttons:
                    buttons[s["name"]] = s["value"]
            if k > 0:
                speed = plant_step_raw(speed, throttle, **CCS_PLANT)
            expected = oracle.outputs(oracle.step({**buttons, "actual_speed": speed}))
            throttle = expected["throttle"]
            for name in self.outputs:
                if held[name][k] != expected[name]:
                    raise CheckFailed(
                        f"{inp['name']}: {name} at period {k} is {held[name][k]}, "
                        f"reference {expected[name]}"
                    )


# ---- oracle_netlists -----------------------------------------------------

NET_PERIOD = 1000  # ns; longer than the deepest wave (24 levels x 35 ns)
NET_PERIODS = 16
NET_NODES_PER_DOMAIN = 12
NET_DELAYS_PER_DOMAIN = 2
NET_OPCODES = {  # per width; operand widths must agree, so the two sub-graphs stay apart
    "bit": ("AND", "OR", "NOT", "MUX"),
    "int16": ("ADD", "SUB", "MUL", "CMP", "MUX", "NOT", "AND", "OR"),
}
_ARITY = {"NOT": 1, "DELAY": 1, "MUX": 3}


def random_netlist_text(rng: random.Random) -> str:
    """A netlist with a bit and an int16 sub-graph, DELAY feedback included.

    Operand 0 of a combinational node is an input or an earlier
    combinational node, so every width resolves and the non-DELAY graph
    is acyclic; a DELAY may read any combinational node of its domain,
    later ones too, which closes feedback loops through the register.
    """
    lines = []
    refs: dict[str, list[str]] = {}
    for dom in NET_OPCODES:
        names = [f"{dom[0]}{k}" for k in range(3)]
        lines += [f"input {n} : {dom}" for n in names]
        refs[dom] = names
    order = [d for d in NET_OPCODES for _ in range(NET_NODES_PER_DOMAIN)]
    rng.shuffle(order)
    names = {d: [] for d in NET_OPCODES}
    for j, dom in enumerate(order):
        names[dom].append(f"n{j}")
    delays = {n for d in NET_OPCODES for n in rng.sample(names[d], NET_DELAYS_PER_DOMAIN)}
    comb = {d: [n for n in names[d] if n not in delays] for d in NET_OPCODES}
    earlier = {d: list(refs[d]) for d in NET_OPCODES}  # inputs + earlier nodes
    earlier_comb = {d: list(refs[d]) for d in NET_OPCODES}
    for j, dom in enumerate(order):
        node = f"n{j}"
        if node in delays:
            src = rng.choice(comb[dom] + refs[dom])
            lines.append(f"node {node} = DELAY({src}) delay={rng.randint(1, 2)}")
        else:
            op = rng.choice(NET_OPCODES[dom])
            operands = [rng.choice(earlier_comb[dom])]
            imm = None
            for _ in range(_ARITY.get(op, 2) - 1):
                if imm is None and rng.random() < 0.15:
                    imm = rng.randint(0, 1) if dom == "bit" else rng.randint(-500, 500)
                    operands.append("imm")
                else:
                    operands.append(rng.choice(earlier[dom]))
            attr = f" imm={imm}" if imm is not None else ""
            lines.append(f"node {node} = {op}({', '.join(operands)}){attr}")
            earlier_comb[dom].append(node)
        earlier[dom].append(node)
    out_nodes = [n for d in NET_OPCODES for n in rng.sample(names[d], 2)]
    lines += [f"output o{k} = {n}" for k, n in enumerate(out_nodes)]
    return "\n".join(lines) + "\n"


class OracleNetlists:
    """Fresh random netlists per op: parse, compile, run, compare to the oracle."""

    name = "oracle_netlists"
    app = None

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        rng = random.Random(f"oracle_netlists:{self.seed}:{i}")
        text = random_netlist_text(rng)
        stim = []
        for k in range(NET_PERIODS):
            for dom in NET_OPCODES:
                for n in range(3):
                    v = rng.randint(0, 1) if dom == "bit" else rng.randint(-2000, 2000)
                    stim.append({"t": k * NET_PERIOD, "name": f"{dom[0]}{n}", "value": v})
        scenario = {
            "application": f"rand{i}",
            "timing": {"stimulus_period": NET_PERIOD},
            "stimulus": stim,
            "faults": [],
            "run_until": NET_PERIODS * NET_PERIOD,
            "seed": self.seed,
        }
        return {"name": f"rand{i}", "text": text, "scenario": scenario}

    def op(self, inp: dict, span) -> Outcome:
        with span("scenarios.load_ms"):
            sc = scenario_from_dict(inp["scenario"], inp["name"])
        with span("netlist.parse_ms"):
            nl = parse_netlist(inp["text"], inp["name"])
        with span("place.compile_ms"):
            program = compile_netlist(nl)
        with span("fabric.build_ms"):
            engine = Engine(program, sc)
        with span("engine.run_ms"):
            result = engine.run()
        out = Outcome(sc, program, result)
        with span("oracle.check_ms"):
            self.compare(inp, out)
        return out

    def check(self, inp: dict, out: Outcome) -> None:
        """Nothing left to do: the op itself compared against the oracle."""

    def compare(self, inp: dict, out: Outcome) -> None:
        """Every output held at every period end equals NetlistOracle."""
        nl = out.program.netlist
        held = held_at_period_ends(out.result.trace, tuple(nl.outputs), NET_PERIOD, NET_PERIODS)
        vectors: list[dict] = [{} for _ in range(NET_PERIODS)]
        for s in inp["scenario"]["stimulus"]:
            vectors[s["t"] // NET_PERIOD][s["name"]] = s["value"]
        oracle = NetlistOracle(nl)
        for k, vec in enumerate(vectors):
            expected = oracle.outputs(oracle.step(vec))
            for name, value in expected.items():
                if held[name][k] != value:
                    raise CheckFailed(
                        f"{inp['name']}: {name} at period {k} is {held[name][k]}, oracle {value}"
                    )

    def exports(self, out: Outcome) -> tuple[str, ...]:
        return (to_csv(out.result.trace), to_vcd(out.result.trace))

    def diagnose(self, inp: dict, out: Outcome, span) -> None:
        twin = Engine(out.program, out.scenario.without_faults())  # build timed apart
        with span("sim.golden_ms"):
            twin.run()
        # the op makes no metrics call and its netlist is no resolvable
        # application, so the report layer is timed on the scenario-less path
        with span("report.metrics_ms"):
            metrics(out.result.trace)
        with span("report.export_ms"):
            self.exports(out)


# ---- edg_fault_campaign --------------------------------------------------

EDG_PERIOD = 300
EDG_PERIODS = 12
EDG_SPARES_PER_LAYER = 4
CHAIN_SPACING = 150  # ns between chained faults: detect + reroute + restore is 105 ns


def spare_chain(layer: int, slot: int, n_layers: int, length: int) -> list[str]:
    """Cells that serve one function after each of ``length - 1`` heals.

    Mirrors the documented allocation policy: a worker cell takes the
    lowest idle spare of its own layer, an active spare that fails takes
    the nearest-layer, lowest-slot idle spare.  The chain stops at the
    cell whose failure leaves no spare, which must drive fail-safe.
    """
    free = [[True] * EDG_SPARES_PER_LAYER for _ in range(n_layers)]
    cells = [f"L{layer}.F{slot}"]
    cur = layer
    for _ in range(length - 1):
        order = sorted(range(n_layers), key=lambda i: (abs(i - cur), i))
        found = next(((i, s) for i in order for s in range(EDG_SPARES_PER_LAYER) if free[i][s]), None)
        if found is None:
            break
        cur, s = found
        free[cur][s] = False
        cells.append(f"L{cur}.R{s}")
    return cells


class EdgFaultCampaign(_ScenarioWorkload):
    """One edg program and stimulus, one fault variant per op."""

    name = "edg_fault_campaign"
    app = "edg"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"edg_fault_campaign:{seed}")
        nl = resolve_netlist("edg")
        self.reference_netlist = nl
        self.outputs = tuple(nl.outputs)
        placement = place(nl)
        self.n_layers = placement.layer_count
        self.placed = sorted((placement.slots[n.name], n) for n in nl.nodes)
        self.total_spares = self.n_layers * EDG_SPARES_PER_LAYER
        # mostly start-permitted, so faults on the start path are sensitized
        self.stimulus = []
        self.expected = []
        oracle = NetlistOracle(nl)
        for k in range(EDG_PERIODS):
            vec = {n: v ^ (rng.random() < 0.1) for n, v in START_PERMITTED.items()}
            self.stimulus += [{"t": k * EDG_PERIOD, "name": n, "value": v} for n, v in vec.items()]
            self.expected.append(oracle.outputs(oracle.step(vec)))

    def inputs(self, i: int) -> dict:
        """Cycles through the fault classes; cell, phase and k vary by seed."""
        rng = random.Random(f"edg_fault_campaign:{self.seed}:{i}")
        (layer, slot), node = rng.choice(self.placed)
        cell = f"L{layer}.F{slot}"
        t = rng.randint(1, EDG_PERIODS - 4) * EDG_PERIOD + rng.randrange(EDG_PERIOD)
        kind = ("flip", "stuck0", "stuck1", "transient", "chain")[i % 5]
        if kind == "transient":
            port = rng.choice("NWES"[: max(1, len(node.operands))])
            faults = [{"kind": "transient_register", "cell": cell, "t": t, "port": port,
                       "replica": rng.randrange(3), "flip": 1}]
            expect = {"masked"}
        elif kind == "chain":
            # a third of the chains use every spare and must end in fail-safe
            k = self.total_spares + 1 if rng.random() < 1 / 3 else rng.randint(5, self.total_spares)
            t = EDG_PERIOD + rng.randrange(EDG_PERIOD)
            faults = [{"kind": "permanent_gfb", "cell": c, "t": t + j * CHAIN_SPACING, "flip": 1}
                      for j, c in enumerate(spare_chain(layer, slot, self.n_layers, k))]
            expect = {"fail_safe"} if k > self.total_spares else {"healed"}
        else:
            value = {"flip": {"flip": 1}, "stuck0": {"stuck": 0}, "stuck1": {"stuck": 1}}[kind]
            faults = [{"kind": "permanent_gfb", "cell": cell, "t": t, **value}]
            expect = {"healed"} if kind == "flip" else {"healed", "masked"}
        scenario = {
            "application": "edg",
            "timing": {"stimulus_period": EDG_PERIOD},
            "stimulus": self.stimulus,
            "faults": faults,
            "run_until": EDG_PERIODS * EDG_PERIOD,
            "seed": self.seed,
        }
        return {"name": f"fault{i}", "scenario": scenario, "expect": sorted(expect)}

    def check(self, inp: dict, out: Outcome) -> None:
        """Classify the op and hold it to its fault class's contract.

        Transients leave no syndrome and no erroneous sample; healed ops
        match the reference at the end of every period that starts after
        heal_complete; fail-safe happens only with no spare left.
        """
        m, res = out.metrics, out.result
        if m.alarm == "fail_safe":
            outcome = "fail_safe"
        elif res.syndromes:
            outcome = "healed"
        elif m.erroneous_output_samples:
            outcome = "silent"  # wrong outputs and no syndrome
        else:
            outcome = "masked"
        out.campaign = outcome
        if outcome not in inp["expect"]:
            raise CheckFailed(f"{inp['name']}: {outcome}, expected {inp['expect']}")
        if outcome == "fail_safe" and res.fabric.free_spares():
            raise CheckFailed(f"{inp['name']}: fail-safe with spares left")
        since = -1
        if outcome == "healed":
            if m.heal_complete is None:
                raise CheckFailed(f"{inp['name']}: syndrome never healed")
            since = m.heal_complete
        if outcome in ("healed", "masked"):
            held = held_at_period_ends(res.trace, self.outputs, EDG_PERIOD, EDG_PERIODS)
            for k, expected in enumerate(self.expected):
                if k * EDG_PERIOD < since:  # a period's wave must start after the heal
                    continue
                for name, value in expected.items():
                    if held[name][k] != value:
                        raise CheckFailed(
                            f"{inp['name']}: {name} at period {k} is {held[name][k]}, "
                            f"reference {value}"
                        )


WORKLOADS = {w.name: w for w in (CcsCruise, OracleNetlists, EdgFaultCampaign)}
