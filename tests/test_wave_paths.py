"""A wave that yields to interleaving events leaves the same trace as one that does not.

A wave is one heap event that runs its evaluations until another event
comes first.  A no-op transient on an idle spare at every wave slot from
level 2 on makes each wave yield before those levels without changing
anything else; the traces with and without them must then differ only in
their ``fault.`` rows.  A wave that runs in one pop is called flat.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellId, Opcode, Port, WidthMode
from cellfab.engine import Engine, FaultSpec, Scenario, TimingParams
from cellfab.netlist import Netlist, NetlistError, parse_netlist, validate_netlist
from cellfab.place import SLOTS_PER_LAYER, compile_netlist

from helpers import PassLog, clock_times
from test_acceptance import random_netlist, random_vector


class CountingEngine(PassLog, Engine):
    """An engine that counts the pops of each clock's wave event; a
    pristine clock runs its whole wave in one pass, and counts as one."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.wave_pops = Counter()

    def _handle_wave(self, t, clock):
        self.wave_pops[clock] += 1
        super()._handle_wave(t, clock)

    def run(self):
        super().run()
        if self._rows:
            self.wave_pops.update(self.pristine)
        return self


def bit_worker(program, layer: int, slot: int) -> bool:
    """Whether the worker placed at ``(layer, slot)`` is a bit cell; an
    int16 netlist may place bit cells too."""
    return program.configs[layer * SLOTS_PER_LAYER + slot].width_mode is WidthMode.BIT


def wave_levels(program) -> list[int]:
    return sorted({level for level, *_ in program.wave})


def noop_transients(program, sc: Scenario, spare: CellId) -> list[FaultSpec]:
    """One transient on an idle spare at every wave slot from level 2 on."""
    delta = sc.timing.cell_delay
    times = {t + level * delta for t in clock_times(sc) for level in wave_levels(program)
             if level >= 2 and t + level * delta <= sc.run_until}
    return [
        FaultSpec(kind="transient_register", cell=spare, time=t,
                  port=Port.NORTH, replica=0, flip=1)
        for t in sorted(times)
    ]


def run(program, sc: Scenario):
    """The run's result, its trace without fault rows, and its wave pops per clock."""
    engine = CountingEngine(program, sc)
    res = engine.run()
    records = [r for r in res.trace.records if not r.signal.startswith("fault.")]
    return res, records, engine.wave_pops


def flat_clocks(pops: Counter) -> list[int]:
    return sorted(t for t, n in pops.items() if n == 1)


def assert_paths_agree(program, sc: Scenario, spare: CellId) -> list[int]:
    """Run ``sc`` as is and made to yield; returns the first run's flat clocks."""
    forced = replace(sc, faults=sc.faults + noop_transients(program, sc, spare))
    _, plain_records, plain_pops = run(program, sc)
    _, forced_records, forced_pops = run(program, forced)
    # a no-op transient sits at the first wave's level-2 slot
    if max(wave_levels(program), default=0) >= 2 and 2 * sc.timing.cell_delay <= sc.run_until:
        assert forced_pops[0] >= 2
    assert plain_records == forced_records
    return flat_clocks(plain_pops)


def close_a_loop(nl: Netlist, rng) -> Netlist:
    """``nl`` with one DELAY's operand retargeted to a node that reads the
    DELAY, directly or through other nodes, so a loop closes through the
    register; ``nl`` itself when no DELAY has a reader or the netlist
    check rejects the loop."""
    readers = {n.name: [m.name for m in nl.nodes if n.name in m.operands] for n in nl.nodes}
    loops = []
    for node in nl.nodes:
        if node.opcode is Opcode.DELAY:
            downstream, stack = set(), [node.name]
            while stack:
                new = set(readers[stack.pop()]) - downstream
                downstream |= new
                stack.extend(new)
            if downstream:
                loops.append((node, sorted(downstream)))
    if not loops:
        return nl
    delay, downstream = rng.choice(loops)
    target = rng.choice(downstream)
    nodes = [replace(n, operands=(target,)) if n is delay else n for n in nl.nodes]
    looped = Netlist(nl.name, nl.inputs, nodes, nl.outputs)
    try:
        validate_netlist(looped)
    except NetlistError:  # a loop fed by no input and holding no int16-only node is bit
        return nl
    return looped


@st.composite
def scenarios(draw):
    rng = draw(st.randoms(use_true_random=False))
    nl = random_netlist(rng, 0)
    if draw(st.booleans()):  # feedback through a delay register
        nl = close_a_loop(nl, rng)
    if draw(st.booleans()):  # shuffled layers: function index order is not level order
        names = [node.name for node in nl.nodes]
        rng.shuffle(names)
        nl.partition = [names[i:i + 3] for i in range(0, len(names), 3)]
    program = compile_netlist(nl)
    delta = draw(st.integers(1, 40))
    wave = nl.critical_path * delta
    period = draw(st.one_of(st.integers(wave + 1, 3 * wave), st.integers(1, wave)))
    run_until = period * draw(st.integers(2, 5))
    stimulus = [(0, name, v) for name, v in random_vector(rng, nl).items()]
    for _ in range(draw(st.integers(0, 4))):  # on a clock or between two
        t = draw(st.integers(1, run_until))
        name = rng.choice(nl.input_names())
        stimulus.append((t, name, random_vector(rng, nl)[name]))
    cells = sorted(program.placement.slots.values())
    faults = []
    for _ in range(draw(st.integers(0, 2))):  # transients on placed workers
        layer, slot = draw(st.sampled_from(cells))
        port = draw(st.sampled_from(list(Port)))
        # two replicas of one word port can leave no majority
        for replica in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)):
            faults.append(FaultSpec(
                kind="transient_register", cell=CellId(layer, slot, "F"),
                time=draw(st.integers(0, run_until)), port=port, replica=replica,
                flip=1 if bit_worker(program, layer, slot) else draw(st.integers(1, 0xFFFF)),
            ))
    sc = Scenario(
        name="paths", application=nl.name, stimulus=stimulus, faults=faults,
        timing=TimingParams(cell_delay=delta, stimulus_period=period),
        run_until=run_until,
    )
    return program, sc


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenarios())
def test_flat_waves_match_the_heap(case):
    program, sc = case
    assert_paths_agree(program, sc, CellId(0, 0, "R"))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(scenarios(), st.data())
def test_flat_waves_match_the_heap_around_a_heal(case, data):
    # one permanent fault takes the R0 spare of its layer, so R3 stays idle
    program, sc = case
    layer, slot = data.draw(st.sampled_from(sorted(program.placement.slots.values())))
    bit = bit_worker(program, layer, slot)
    value = st.integers(0, 1) if bit else st.integers(-0x8000, 0x7FFF)
    # a stuck fault may stay latent through several clean-looking waves
    flip, stuck = data.draw(st.one_of(
        st.tuples(st.just(1) if bit else st.integers(1, 0xFFFF), st.none()),
        st.tuples(st.none(), value),
    ))
    fault = FaultSpec(
        kind="permanent_gfb", cell=CellId(layer, slot, "F"),
        time=data.draw(st.integers(0, sc.run_until)), flip=flip, stuck=stuck,
    )
    sc = replace(sc, faults=sc.faults + [fault])
    assert_paths_agree(program, sc, CellId(layer, 3, "R"))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(scenarios(), st.randoms(use_true_random=False))
def test_combinational_operands_come_first_and_shallower(case, rng):
    # the same nodes are also checked in a second declaration order
    nl = case[0].netlist
    shuffled = Netlist(nl.name, nl.inputs, rng.sample(nl.nodes, len(nl.nodes)), nl.outputs)
    validate_netlist(shuffled)
    assert shuffled.depth == nl.depth
    delays = {n.name for n in nl.nodes if n.opcode is Opcode.DELAY}
    for net in (nl, shuffled):
        assert sorted(net.order) == sorted(n.name for n in net.nodes)
        position = {name: i for i, name in enumerate(net.order)}
        for node in net.nodes:
            for ref in node.operands:
                if ref in position and ref not in delays:
                    assert position[ref] < position[node.name]
                    assert net.depth[ref] < net.depth[node.name]


def edg_scenario(faults=()):
    return Scenario(
        name="edg", application="edg",
        stimulus=[(0, n, v) for n, v in START_PERMITTED.items()] + [(1200, "estop", 1)],
        faults=list(faults), run_until=2100,
    )


def test_fault_free_waves_go_flat():
    program = resolve_application("edg")
    sc = edg_scenario()
    flat = assert_paths_agree(program, sc, CellId(0, 0, "R"))
    # the wave at 2100 would start after run_until and never pops
    assert flat == [t for t in range(0, 2100, 300)]
    forced = replace(sc, faults=noop_transients(program, sc, CellId(0, 0, "R")))
    _, _, forced_pops = run(program, forced)
    # depth 7: one pop per level
    assert [forced_pops[t] for t in flat] == [7] * len(flat)


def test_healed_run_goes_flat_again():
    # L0.F0 is detected at 435 and restored onto L0.R0 at 505; the cascade
    # from the restore runs into the 600 wave, and the periods after it are
    # flat again
    program = resolve_application("edg")
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    sc = edg_scenario([fault])
    res, _, _ = run(program, sc)
    assert [s.detect_time for s in res.syndromes] == [435]
    assert res.fabric.binding[res.syndromes[0].function_index].cell_id == CellId(0, 0, "R")
    flat = assert_paths_agree(program, sc, CellId(0, 3, "R"))
    assert flat == [0, 900, 1200, 1500, 1800]


def test_latent_stuck_fault_yields_only_where_events_interleave():
    # a stuck-0 on trips (L0.F3) is latent until estop rises at 1200; the
    # injection at 100 falls inside the first wave and the first mismatch
    # at 1235 schedules a re-check inside the 1200 one.  The waves in which
    # the fault only sits run flat, and so does the 1500 one: the restore's
    # cascade ends at 1515, before that wave's first slot
    program = resolve_application("edg")
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 3, "F"), time=100, stuck=0)
    sc = edg_scenario([fault])
    res, _, _ = run(program, sc)
    assert [s.detect_time for s in res.syndromes] == [1270]
    flat = assert_paths_agree(program, sc, CellId(0, 3, "R"))
    assert flat == [300, 600, 900, 1500, 1800]


def test_restore_on_a_slot_its_wave_has_passed_is_evaluated():
    # power_ok (L2.F0, level 3) is detected at 105, inside the second wave,
    # and restored at 205, its slot in that wave.  The wave has skipped the
    # deactivated cell there before the restore runs, so the restore's own
    # evaluation must run and cascade, not be merged into the wave
    program = resolve_application("edg")
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(2, 0, "F"), time=0, flip=1)
    sc = Scenario(
        name="edg", application="edg",
        stimulus=[(0, n, v) for n, v in START_PERMITTED.items()], faults=[fault],
        timing=TimingParams(check_threshold=1, reroute_delay=50, restore_delay=50,
                            stimulus_period=100),
        run_until=400,
    )
    res, records, _ = run(program, sc)
    assert [s.detect_time for s in res.syndromes] == [105]
    data = [(r.time, r.signal, r.value) for r in records if r.annotation == "data"]
    assert (205, "fn.power_ok", 1) in data
    assert (240, "fn.crank_seq", 1) in data and (275, "fn.perm_ok", 1) in data


def test_restore_on_a_slot_its_wave_has_not_reached_is_left_to_the_wave():
    # every cell of a one-layer bit fabric holds a flip from 0.  The three
    # workers are detected at 1 and restored at 3 onto L0.R0..R2, before
    # the wave of the clock at 2 runs its first slot, at 3: the wave still
    # holds every slot there, evaluation 0 (L0.R0) included, so each spare
    # is evaluated once by the wave and mismatches once
    nl = parse_netlist("input i0 : bit\n"
                       + "".join(f"node n{k} = AND(i0, imm) imm=1\n" for k in range(3))
                       + "output o0 = n0\noutput o1 = n1\n")
    program = compile_netlist(nl)
    cells = [CellId(0, slot, "F") for slot in range(3)] + [CellId(0, slot, "R") for slot in range(4)]
    sc = Scenario(
        name="hold", application=nl.name, stimulus=[(0, "i0", 1)],
        faults=[FaultSpec(kind="permanent_gfb", cell=cell, time=0, flip=1) for cell in cells],
        timing=TimingParams(cell_delay=1, check_threshold=1, reroute_delay=1, restore_delay=1,
                            stimulus_period=2),
        run_until=4,
    )
    res, records, _ = run(program, sc)
    assert [(r.time, r.signal) for r in records if r.annotation == "mismatch"] == [
        (1, "cell.L0.F0"), (1, "cell.L0.F1"), (1, "cell.L0.F2"),
        (3, "cell.L0.R0"), (3, "cell.L0.R1"), (3, "cell.L0.R2"),
    ]
    assert [(str(s.cell_id), s.detect_time) for s in res.syndromes] == [
        ("L0.F0", 1), ("L0.F1", 1), ("L0.F2", 1), ("L0.R0", 3), ("L0.R1", 3), ("L0.R2", 3),
    ]
