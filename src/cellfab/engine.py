"""Deterministic discrete-event simulation kernel.

Evaluation follows level-synchronous waves: every stimulus (clock) event
first shifts the delay registers, then applies input changes, then
evaluates each combinational cell exactly once at clock + level x Delta.
Fault injections and healing steps run as local events that re-evaluate
one cell and cascade downstream only when its output actually changed.
A fault is re-evaluated at injection only once the cell's wave slot of
the current period has passed; before that, the pending wave evaluation
sees it, so the cell never publishes a mid-wave value.  One flag, its
register bank's ``changed``, says a cell must evaluate, and it stays set
while the cell holds fault state.  A publish of a function that drives
a primary output is recorded always, any other function's only when it
changes the function's published value (the first always does); a
publish is routed to the readers only when it changes that value, since
every reader's port already holds the last one, or while a sink's bank
holds an overlay port, which a write of even an equal value drops.
Events are totally ordered by (time, sequence number), so two runs of
the same scenario produce byte-identical traces.  ``Engine`` lays the
clocks, injects and stop event down when built; ``Engine.run`` pops each
event and calls its kind's handler at its one dispatch point (the
pristine pass pops the clocks it runs back to back itself).

A wave is one heap event.  Its evaluations run in (level, function
index) order, each at its slot without cascading, under sequence numbers
taken at the clock; before each one the wave yields to any event that
sorts first, so every evaluation keeps the place it would have as an
event of its own.  An open wave records how far it has run, ``[base,
next_n]``; a local evaluation of a slot it has not run, ``n >= next_n``,
is dropped: the wave evaluates it there anyway.

A wave slot and a local evaluation both run ``Engine._evaluate``, which
finds one of two kinds of cell:

- quiet: the bank's ``changed`` flag is clear, and the function's
  ``published`` value is republished unevaluated;
- monitored: the flag is set, and ``Engine._evaluate_cell`` votes,
  self-checks and raises syndromes through ``FunctionalCell.step``.

Either value is published by ``Engine._publish``, the one rule that
records, routes and zeroes an output in fail-safe.  ``Engine._handle_wave``
walks the rows of ``FabricProgram.wave``, each level scaled by the cell
delay into a slot offset, and holds only the yield and resume logic; a
delay register steps at every clock.  A cell evaluates with the
``evaluate`` its configuration bound, on either path, so a restored
spare runs its own decoded code.

A run is pristine until it applies a fault (an inject that lands
nowhere leaves it so), and again from the first clock at which repeats
are not routed and no bound cell holds an injected permanent fault or
is ``SUSPECT_TRANSIENT``, so a healed run returns to the pass.  Then
every bound cell holds its function's bank and nothing is in fail-safe:
the faulted cell is bound until restore, a deactivated one holds its
fault, and a run in fail-safe, latched with one bound, skips the test.
A pristine clock whose wave's last slot and sequence number sort before
the heap's first event runs whole in one pass of ``Engine._handle_clock``,
in the event path's order and with its sequence numbers, so every later
key and record is the same; while the heap's next event is a clock, the
same loop pops it, as ``run`` would, and runs its plant step and test,
so a fault-free stretch pays no dispatch or handler call per clock.  The
first clock that fails the test takes the event path, ``_event_clock``.
Both paths walk the same rows, bound once when the run starts
(``Engine._bind_table``): ``_delay_rows``, one per DELAY, whose pipeline
the pass shifts itself, and ``_rows``, one per wave slot at its n, with
its offset and the bound cell's ``evaluate``; a row holds its function's
bank (``Fabric.banks``) and sink list, which the pass writes in its own
loop, port by changed port, and the event path routes through with
``_route``.  Reroute hands a bank on and restore rebinds its row, so the
rows are valid at every event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional

from . import __version__
from .cell import (
    CellId,
    FAULTY_DEACTIVATED,
    FunctionalCell,
    HEALTHY,
    PORT_ORDER,
    Port,
    SUSPECT_TRANSIENT,
    StuckBehavior,
    WidthMode,
    excerpt,
    fit,
)
from .fabric import Fabric, HealAction, HealthSyndrome
from .genetic import NOP_CONFIG
from .place import FabricProgram, SLOTS_PER_LAYER


@dataclass(frozen=True)
class TimingParams:
    """All timing knobs of a run; defaults are the calibration set.

    The bundled EDG netlist has combinational depth 7 and the default
    cell delay is 35 ns, so a fault-free wave settles in 245 ns.  With
    the check threshold at 2 the second confirming self-check lands one
    cell delay after detection, and reroute/restore each add one more.
    """

    cell_delay: int = 35
    check_threshold: int = 2
    reroute_delay: int = 35
    restore_delay: int = 35
    stimulus_period: int = 300

    def validate(self) -> None:
        if self.cell_delay <= 0 or self.reroute_delay <= 0 or self.restore_delay <= 0:
            raise ValueError("all delays must be > 0")
        if self.stimulus_period <= 0:
            raise ValueError("stimulus_period must be > 0")
        if self.check_threshold < 1:
            raise ValueError("check_threshold must be >= 1")

    def describe(self) -> str:
        return " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


class FaultKind(str, Enum):
    """Injectable fault kinds; each member equals its scenario-file string."""

    TRANSIENT_REGISTER = "transient_register"
    PERMANENT_GFB = "permanent_gfb"
    INTERMITTENT_BURST = "intermittent_burst"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    transient_register corrupts a single replica of one port and lasts
    until the next write to that port; permanent_gfb installs a stuck or
    bit-flip behaviour on the cell's primary evaluation path from its
    injection time onward; intermittent_burst expands into ``count``
    transients spaced ``period`` apart.

    A fault, transient or permanent, is first evaluated at injection if
    the cell's wave slot of the current period has passed, otherwise at
    that slot.  A fault on a deactivated cell is a no-op.  On a spare
    before its reroute a transient is a no-op too (the spare holds no
    data and reroute loads every port), while a permanent fault is
    installed and stays latent until the spare takes over a function.

    A fault is checked only as part of its scenario
    (``Scenario.validate``); ``expand_faults`` then splits its bursts.
    """

    kind: str
    cell: CellId
    time: int
    port: Optional[Port] = None
    replica: Optional[int] = None
    flip: Optional[int] = None
    stuck: Optional[int] = None
    period: Optional[int] = None
    count: Optional[int] = None

    def validate(self, run_until: int) -> None:
        """Check the fault on its own; no fault, and no transient of a
        burst, may start after ``run_until``.  ``Scenario.validate``
        calls it, then checks the fault's cell and width."""
        if self.kind not in tuple(FaultKind):
            raise ValueError(f"unknown fault kind {excerpt(repr(self.kind))}")
        if self.time < 0:
            raise ValueError("fault time must be >= 0")
        if (self.flip is None) == (self.stuck is None):
            raise ValueError("exactly one of flip/stuck must be set")
        if self.kind != FaultKind.PERMANENT_GFB:
            if self.port is None or self.replica not in (0, 1, 2):
                raise ValueError("register faults need a port and replica 0..2")
        last = self.time
        if self.kind == FaultKind.INTERMITTENT_BURST:
            if not self.period or not self.count or self.period <= 0 or self.count < 1:
                raise ValueError("burst needs period > 0 and count >= 1")
            last += (self.count - 1) * self.period
        if last > run_until:
            raise ValueError(
                f"fault on {self.cell} at t={excerpt(str(last))}"
                f" is after run_until={excerpt(str(run_until))}"
            )


def expand_faults(faults: list[FaultSpec]) -> list[FaultSpec]:
    """Expand intermittent bursts into their individual transients.

    The faults must be checked already (``Scenario.validate``): a burst's
    ``count`` is bounded by ``MAX_CLOCKS`` and its last transient's
    ``run_until``."""
    out: list[FaultSpec] = []
    for f in faults:
        if f.kind == FaultKind.INTERMITTENT_BURST:
            for i in range(f.count):
                out.append(
                    replace(
                        f,
                        kind=FaultKind.TRANSIENT_REGISTER,
                        time=f.time + i * f.period,
                        period=None,
                        count=None,
                    )
                )
        else:
            out.append(f)
    return out


@dataclass
class PlantFeedback:
    """Closed-loop vehicle model driving one input from one output.

    At every stimulus clock the speed integrates the previous period's
    settled actuator command: v' = v + (gain*u - drag*v)*dt in Q8.8.
    """

    input_name: str
    output_name: str
    v0: int = 0
    gain: int = 128
    drag: int = 64
    dt: int = 256


# A run lays down its clocks, and a burst its transients, when its engine is
# built: 10**5 fault-free edg clocks peaked at 38 MB in ``cellfab run``, so
# 10**6 take about 0.3 GB
MAX_CLOCKS = 10**6


@dataclass
class Scenario:
    name: str
    application: str  # bundled app name or a netlist path
    stimulus: list[tuple[int, str, int]] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    timing: TimingParams = field(default_factory=TimingParams)
    run_until: int = 1000
    seed: int = 0  # recorded in the trace header; nothing random consumes it
    plant: Optional[PlantFeedback] = None

    def validate(self, program: FabricProgram) -> dict[int, list[tuple[str, int]]]:
        """The one check of a scenario, against the compiled application it
        runs on: timing, ``run_until``, stimulus up to ``run_until``, plant,
        each fault (``FaultSpec.validate``, then that its cell is a cell of
        the fabric and its value fits that cell), then the run's clock count
        and each burst's count against ``MAX_CLOCKS``, in that order; the
        first error raises ValueError.  ``Engine`` calls it before it builds
        anything, and ``metrics`` for a scenario the trace did not run, so
        ``cellfab run`` and ``cellfab report --scenario`` refuse the same
        scenarios.  It returns the stimulus grouped by time in file order,
        ``{t: [(name, value), ...]}``, built as each entry is checked."""
        netlist = program.netlist
        self.timing.validate()
        if self.run_until <= 0:
            raise ValueError("run_until must be > 0")
        widths = dict(netlist.inputs)
        at_zero = {name for t, name, _ in self.stimulus if t == 0}
        missing = [n for n in widths if n not in at_zero]
        if missing:
            raise ValueError(
                f"stimulus must cover all primary inputs at t=0: {excerpt(str(missing))}"
            )
        timeline: dict[int, list[tuple[str, int]]] = {}
        for t, name, value in self.stimulus:
            if t < 0:
                raise ValueError("stimulus time must be >= 0")
            if name not in widths:
                raise ValueError(f"unknown input {excerpt(repr(name))} in stimulus")
            if type(value) is not int or fit(widths[name], value) != value:
                raise ValueError(
                    f"stimulus {excerpt(name)}={excerpt(repr(value))} at t={excerpt(str(t))}"
                    f" does not fit {widths[name].name.lower()}"
                )
            if t > self.run_until:
                raise ValueError(
                    f"stimulus {excerpt(name)} at t={excerpt(str(t))}"
                    f" is after run_until={excerpt(str(self.run_until))}"
                )
            timeline.setdefault(t, []).append((name, value))
        if self.plant is not None and widths.get(self.plant.input_name) is not WidthMode.INT16:
            raise ValueError(
                f"plant input {excerpt(repr(self.plant.input_name))} is not an int16 input"
            )
        if self.plant is not None and self.plant.output_name not in netlist.outputs:
            raise ValueError(f"unknown plant output {excerpt(repr(self.plant.output_name))}")
        for fault in self.faults:
            fault.validate(self.run_until)
            if not program.has_cell(fault.cell):
                raise ValueError(f"fault on unknown cell {excerpt(str(fault.cell))}")
            # an idle spare has no width yet; it is pre-loaded with the code
            # of the worker in its own slot, the NOP filler's on an empty one
            fn_idx = fault.cell.layer * SLOTS_PER_LAYER + fault.cell.slot
            width = program.configs.get(fn_idx, NOP_CONFIG).width_mode
            if fault.flip is not None:  # a mask of the cell's bits
                key, value = "flip", fault.flip
                fits = 0 <= value <= (1 if width is WidthMode.BIT else 0xFFFF)
            else:  # one of the cell's values
                key, value = "stuck", fault.stuck
                fits = fit(width, value) == value
            if not fits:
                raise ValueError(
                    f"fault {key}={excerpt(str(value))} on {fault.cell}"
                    f" does not fit {width.name.lower()}"
                )
        # last, so that every refusal above keeps its line
        clocks = self.run_until // self.timing.stimulus_period + 1
        if clocks > MAX_CLOCKS:
            raise ValueError(f"a run of {excerpt(str(clocks))} clocks"
                             f" is over the limit of {MAX_CLOCKS}")
        for fault in self.faults:
            if fault.kind == FaultKind.INTERMITTENT_BURST and fault.count > MAX_CLOCKS:
                raise ValueError(f"a burst on {fault.cell} of {excerpt(str(fault.count))}"
                                 f" transients is over the limit of {MAX_CLOCKS}")
        return timeline

    def without_faults(self) -> "Scenario":
        return replace(self, faults=[], name=self.name + "+golden")


ANNOTATIONS = ("data", "masked_transient", "mismatch", "syndrome_action", "alarm")


@dataclass(slots=True)
class TraceRecord:
    time: int
    signal: str
    value: int
    annotation: str


@dataclass
class Trace:
    """A run's record stream and its signal table.

    ``inputs`` and ``outputs`` map each primary input and output name to
    its declared width, in netlist declaration order.  Input samples are
    recorded as ``in.<name>``, output samples under the output name, at
    every publish.  An internal function's samples, ``fn.<node>``, are
    recorded only when its value changes, so its value at a time is the
    one it holds there: its last sample at or before that time.

    A trace an ``Engine`` returns also holds the ``program`` and the
    ``scenario`` it ran and the run's expanded ``faults``, so that
    ``metrics`` needs no compile for it and counts the run's own faults;
    they stay in memory (no export writes them, so a parsed
    trace has None) and take no part in comparison.
    """

    scenario_name: str
    application: str
    timing: TimingParams
    seed: int
    version: str = __version__
    inputs: dict[str, WidthMode] = field(default_factory=dict)
    outputs: dict[str, WidthMode] = field(default_factory=dict)
    records: list[TraceRecord] = field(default_factory=list)
    complete: bool = False
    program: Optional[FabricProgram] = field(default=None, repr=False, compare=False)
    scenario: Optional[Scenario] = field(default=None, repr=False, compare=False)
    faults: Optional[list[FaultSpec]] = field(default=None, repr=False, compare=False)


# event kinds, processed in (time, seq) order; a heap entry is (time, seq,
# kind, payload), and run() calls handlers[kind](time, payload)
_CLOCK, _INJECT, _EVAL, _WAVE, _HEAL, _STOP = range(6)

_STOP_SEQ = 1 << 62


class Engine:
    """One scenario run over one fabric; single-threaded, deterministic.

    The scenario is checked against ``program`` (``Scenario.validate``)
    before any table is built, so a bad one raises ValueError from the
    constructor.  It lays the schedule down from the stimulus the check
    groups by time: the clocks as one sorted list, a heap already, then
    the injects and the stop event.  ``run`` only binds and pops, and
    returns the engine: its ``trace`` (the run's one log), ``fabric``
    and ``syndromes``.
    """

    def __init__(self, program: FabricProgram, scenario: Scenario):
        timeline = scenario.validate(program)
        self.program = program
        self.fabric = Fabric(program)
        self.scenario = scenario
        self.timing = scenario.timing
        faults = expand_faults(scenario.faults)
        # an unchanged write drops a corrupted port: set when a transient
        # lands, cleared at the first clock at which no sink's bank holds one
        self._route_repeats = False
        netlist = program.netlist
        self.trace = Trace(
            scenario_name=scenario.name,
            application=scenario.application,
            timing=scenario.timing,
            seed=scenario.seed,
            inputs=dict(netlist.inputs),
            outputs={name: netlist.widths[node] for name, node in netlist.outputs.items()},
            program=program,
            scenario=scenario,
            faults=faults,
        )
        self.syndromes: list[HealthSyndrome] = []
        # the clocks, the period's grid and every stimulus time, in time order:
        # a heap already, with seq n the n-th clock
        times = sorted({*range(0, scenario.run_until + 1, self.timing.stimulus_period), *timeline})
        self._heap = [(t, seq, _CLOCK, timeline.get(t, [])) for seq, t in enumerate(times)]
        self._seq = len(times)
        for fault in faults:
            self._push(fault.time, _INJECT, fault)
        self._push(scenario.run_until, _STOP, None, seq=_STOP_SEQ)
        self._pending_evals: set[tuple[int, int]] = set()  # local evaluations (fn, t)
        self._waves: dict[int, list[int]] = {}  # open waves: clock -> [base seq, next_n]
        self._last_clock = 0
        self.plant_speed = scenario.plant.v0 if scenario.plant else 0
        # the functions fail-safe zeroes and every publish samples (any other
        # only on a change); a reference engine widens ``_recorded_always`` alone
        self._output_fns = self._recorded_always = frozenset(program.output_binding.values())
        # each function's wave slot at this run's timing: (slot offset, n),
        # n counting the program's wave from 0
        delta = self.timing.cell_delay
        self._wave_entry = {i: (level * delta, n) for n, (level, i, _) in enumerate(program.wave)}
        self._pristine = True

    # ---- scheduling ----------------------------------------------------

    def _push(self, time: int, kind: int, payload: object, seq: Optional[int] = None) -> None:
        if seq is None:
            seq = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (time, seq, kind, payload))

    def _schedule_eval(self, fn_idx: int, time: int) -> None:
        """Schedule a local evaluation unless the slot is already pending,
        as a local evaluation or as one an open wave has yet to run."""
        entry = self._wave_entry.get(fn_idx)
        if entry is None:
            return  # a delay register shifts on the clock only
        key = (fn_idx, time)
        if key in self._pending_evals:
            return
        offset, n = entry
        wave = self._waves.get(time - offset)
        if wave is not None and n >= wave[1]:
            return
        self._pending_evals.add(key)
        self._push(time, _EVAL, fn_idx)

    # ---- run loop -------------------------------------------------------

    def run(self) -> Engine:
        self._bind_table()

        handlers = (self._handle_clock, self._handle_inject, self._handle_eval,
                    self._handle_wave, self._handle_heal)  # in kind order
        while self._heap:
            # the stop event sorts before every event after run_until
            time, _, kind, payload = heapq.heappop(self._heap)
            if kind == _STOP:
                break
            handlers[kind](time, payload)
        self.trace.complete = True
        return self

    # ---- handlers -------------------------------------------------------

    def _handle_clock(self, t: int, assignments: list[tuple[str, int]]) -> None:
        """A clock, then each next clock that the pristine pass takes, back
        to back (see the module docstring); the first clock that fails the
        pass test takes the event path, ``_event_clock``."""
        fabric, heap = self.fabric, self._heap
        if self._route_repeats:
            self._route_repeats = any(b is not None and b.overlay for b in fabric.banks)
        if not (self._pristine or self._route_repeats or fabric.fail_safe):  # fail-safe is latched
            self._pristine = all(c.injected_permanent is None and c.health is not SUSPECT_TRANSIENT
                                 for c in fabric.binding if c is not None)
        published, records = fabric.published, self.trace.records
        delays, input_sinks, rows = self._delay_rows, self._sinks, self._rows
        # the wave's last (offset, n); with no wave, no event of time t waits
        end_offset, end_n = (rows[-1][0], len(rows) - 1) if rows else (0, 0)
        plant = self.scenario.plant
        if plant is not None:  # looked up once per call, not at every clock
            throttle_fn = self.program.output_binding[plant.output_name]
            speed_signal, speed_sinks = f"in.{plant.input_name}", input_sinks[plant.input_name]
        while True:
            self._last_clock = t
            stepped = plant is not None and t > 0
            if stepped:  # off the throttle before the shift: it may be a DELAY's
                speed = self.plant_speed = plant_step_raw(
                    self.plant_speed, published[throttle_fn] or 0, plant.gain, plant.drag, plant.dt
                )
            if not (self._pristine and heap[0] > (t + end_offset, self._seq + end_n)):
                if stepped:  # only the event path takes a list with the speed in it
                    assignments = assignments + [(plant.input_name, speed)]
                self._event_clock(t, assignments)
                return
            shifted = []
            for _fn_idx, cell, bank, values, *_ in delays:
                pipeline = cell.pipeline = cell.pipeline[1:] + (values[0],)
                bank.changed = False
                shifted.append(pipeline[0])
            for (fn_idx, *_, names, sinks, always), value in zip(delays, shifted):
                if published[fn_idx] != value:
                    published[fn_idx] = value
                    # no bank holds an overlay port: an equal write is skipped
                    for sink, sink_values, port in sinks:
                        if sink_values[port] != value:
                            sink_values[port] = value
                            sink.changed = True
                elif not always:
                    continue
                for name in names:
                    records.append(TraceRecord(t, name, value, "data"))
            for name, value in assignments:
                records.append(TraceRecord(t, f"in.{name}", value, "data"))
                for sink, sink_values, port in input_sinks[name]:
                    if sink_values[port] != value:
                        sink_values[port] = value
                        sink.changed = True
            if stepped:
                records.append(TraceRecord(t, speed_signal, speed, "data"))
                for sink, sink_values, port in speed_sinks:
                    if sink_values[port] != speed:
                        sink_values[port] = speed
                        sink.changed = True
            for offset, fn_idx, bank, values, names, evaluate, sinks, always in rows:
                if bank.changed:
                    value = evaluate(values[0], values[1], values[2])
                    bank.changed = False
                    if published[fn_idx] != value:
                        published[fn_idx] = value
                        for sink, sink_values, port in sinks:
                            if sink_values[port] != value:
                                sink_values[port] = value
                                sink.changed = True
                    elif not always:
                        continue
                elif always:
                    value = published[fn_idx]
                else:
                    continue
                slot = t + offset
                for name in names:
                    records.append(TraceRecord(slot, name, value, "data"))
            self._seq += len(rows)
            if heap[0][2] != _CLOCK:  # the rule's inputs change at other events only
                return
            t, _, _, assignments = heapq.heappop(heap)

    def _event_clock(self, t: int, assignments: list[tuple[str, int]]) -> None:
        """Phases 1 to 3 of a clock on the event path."""
        # phase 1: clock every delay register off last period's port values
        shifted: list[tuple[int, int]] = []
        for fn_idx, cell, *_ in self._delay_rows:
            if cell.health is FAULTY_DEACTIVATED:
                continue
            shifted.append((fn_idx, self._evaluate_cell(fn_idx, cell, t)))
        for fn_idx, value in shifted:
            self._publish(fn_idx, value, t, cascade=False)

        # phase 2: apply stimulus
        records = self.trace.records
        for name, value in assignments:
            records.append(TraceRecord(t, f"in.{name}", value, "data"))
            _route(self._sinks[name], value)

        # phase 3: one wave, each combinational cell at its level; no local
        # evaluation holds a slot of it, as none is scheduled more than one
        # cell delay ahead and no other event of time t has run yet
        rows = self._rows
        if rows:
            self._waves[t] = [self._seq, 0]
            self._push(t + rows[0][0], _WAVE, t, seq=self._seq)
            self._seq += len(rows)

    def _bind_table(self) -> None:
        """Bind the run's sink lists and rows once, when the run starts,
        after every table they read is set.  A sink is a reader's ``(bank,
        bank.values, port)``, the bank its function's one bank, so no heal
        step changes a list.  ``_delay_rows`` holds a row per DELAY and
        ``_rows`` one per wave slot, the run's one wave, at its n
        (``_bind_row``); a row shares its function's sink list."""
        banks = self.fabric.banks
        self._sinks = {
            source: [(banks[i], banks[i].values, port) for i, port in readers]
            for source, readers in self.program.readers.items()
        }
        self._delay_rows = [None] * len(self.program.delays)
        self._rows = [None] * len(self._wave_entry)
        for i in (*self.program.delays, *self._wave_entry):
            self._bind_row(i)

    def _bind_row(self, i: int) -> None:
        """Set function ``i``'s row from its bank and bound cell, as restore
        does for the healed function: for a DELAY (fn index, cell, bank,
        values, signal names, sinks, recorded always), for a wave slot
        (offset, fn index, bank, values, signal names, the cell's
        ``evaluate``, sinks, recorded always)."""
        cell, bank = self.fabric.binding[i], self.fabric.banks[i]
        names, sinks, always = self.program.signals[i], self._sinks[i], i in self._recorded_always
        entry = self._wave_entry.get(i)
        if entry is None:
            self._delay_rows[self.program.delays.index(i)] = (
                i, cell, bank, bank.values, names, sinks, always)
        else:
            offset, n = entry
            self._rows[n] = offset, i, bank, bank.values, names, cell.evaluate, sinks, always

    def _handle_wave(self, t: int, clock: int) -> None:
        """Run the clock's wave from its ``next_n``, at ``t``, on until an
        event on the heap comes first; evaluation n runs ``_rows[n]``'s
        function at its offset under sequence number base + n, moves
        ``next_n`` past itself and calls ``_evaluate`` without a cascade."""
        heap, rows = self._heap, self._rows
        wave = self._waves[clock]
        base = wave[0]
        for n in range(wave[1], len(rows)):
            row = rows[n]
            slot = clock + row[0]
            top = heap[0]
            if top[0] <= slot and (top[0] < slot or top[1] < base + n):
                self._push(slot, _WAVE, clock, seq=base + n)
                return
            wave[1] = n + 1
            self._evaluate(row[1], slot, cascade=False)
        del self._waves[clock]

    def _handle_inject(self, t: int, fault: FaultSpec) -> None:
        """Apply one expanded fault to its cell.  It lands nowhere, and is
        recorded with value 0, on a deactivated cell, and as a transient
        on a spare before its reroute: that holds no data, and reroute
        loads every port.  Only an applied fault ends a pristine run."""
        fabric = self.fabric
        cell = fabric.cell(fault.cell)
        permanent = fault.kind == FaultKind.PERMANENT_GFB
        applied = cell.health is not FAULTY_DEACTIVATED and (
            permanent or cell.registers is not None
        )
        self.trace.records.append(TraceRecord(t, f"fault.{fault.cell}", int(applied), "data"))
        if not applied:
            return
        self._pristine = False
        if permanent:
            cell.injected_permanent = StuckBehavior(flip=fault.flip, stuck=fault.stuck)
            if cell.registers is not None:  # an idle spare takes its bank at reroute
                cell.registers.changed = True
        else:
            port = PORT_ORDER.index(fault.port)
            cell.registers.corrupt(port, fault.replica, fault.flip, fault.stuck)
            self._route_repeats = True
        fn_idx = next((i for i, bound in enumerate(fabric.binding) if bound is cell), None)
        entry = self._wave_entry.get(fn_idx)
        # an unbound cell and a delay register have no wave slot; before its
        # slot, this period's wave evaluation is still pending and sees it
        if entry is not None and t >= self._last_clock + entry[0]:
            self._schedule_eval(fn_idx, t)

    def _handle_eval(self, t: int, fn_idx: int) -> None:
        """A local evaluation: ``_evaluate`` with a cascade."""
        self._pending_evals.remove((fn_idx, t))
        self._evaluate(fn_idx, t, cascade=True)

    def _evaluate(self, fn_idx: int, t: int, cascade: bool) -> None:
        """Evaluate and publish a function on the event path, a wave slot or
        a local evaluation; a deactivated cell is skipped.  A quiet cell
        (its bank's ``changed`` clear) republishes ``published[fn_idx]``
        unevaluated, which ``_publish`` records or routes only for a
        function sampled at every publish or while repeats are routed.  A
        quiet cell is never SUSPECT_TRANSIENT, since a mismatch and a
        three-way dissent keep the flag set (``FunctionalCell.step``)."""
        cell = self.fabric.binding[fn_idx]
        if cell.health is FAULTY_DEACTIVATED:
            return
        if cell.registers.changed:
            self._publish(fn_idx, self._evaluate_cell(fn_idx, cell, t), t, cascade)
        elif self._route_repeats or fn_idx in self._recorded_always:
            self._publish(fn_idx, self.fabric.published[fn_idx], t, cascade)

    def _evaluate_cell(self, fn_idx: int, cell: FunctionalCell, t: int) -> int:
        """Monitored evaluation: vote, evaluate, self-check; a streak of
        ``check_threshold`` mismatches raises a syndrome.  It always steps:
        ``_evaluate`` skips a quiet cell before the call, and a delay
        register shifts at every clock."""
        registers = cell.registers
        primary, mismatch, masks = cell.step()
        cid = cell.cell_id
        three_way = False
        if registers.overlay:  # only overlay ports can dissent
            for port, mask in zip(PORT_ORDER, masks):
                if mask:
                    signal = f"cell.{cid}.{port.value}"
                    self.trace.records.append(TraceRecord(t, signal, mask, "masked_transient"))
                    three_way = three_way or mask == 0b111
        if mismatch:
            self.trace.records.append(TraceRecord(t, f"cell.{cid}", 1, "mismatch"))
            if cell.mismatch_streak >= self.timing.check_threshold:
                self._raise_syndrome(fn_idx, cell, t)
                return primary
            self._schedule_eval(fn_idx, t + self.timing.cell_delay)
        if mismatch or three_way:
            # a streak below the threshold, or a port whose three replicas
            # disagree: that stays so until the port is rewritten, so only a
            # mismatch is checked again
            if cell.health is HEALTHY:
                cell.health = SUSPECT_TRANSIENT
        elif cell.health is SUSPECT_TRANSIENT:
            cell.health = HEALTHY
        return primary

    def _raise_syndrome(self, fn_idx: int, cell: FunctionalCell, t: int) -> None:
        fabric = self.fabric
        cid = cell.cell_id
        syndrome = HealthSyndrome(cell_id=cid, detect_time=t, function_index=fn_idx)
        self.syndromes.append(syndrome)
        self._push(t, _HEAL, (syndrome, HealAction.DEACTIVATE))
        spare = fabric.allocate_spare(cid.layer)
        if spare is None:
            self._fail_safe(t)
            return
        syndrome.chosen_spare = spare
        reroute_t = t + self.timing.reroute_delay
        restore_t = reroute_t + self.timing.restore_delay
        self._push(reroute_t, _HEAL, (syndrome, HealAction.REROUTE))
        self._push(restore_t, _HEAL, (syndrome, HealAction.RESTORE))

    def _handle_heal(self, t: int, payload: tuple[HealthSyndrome, HealAction]) -> None:
        syndrome, action = payload
        fabric = self.fabric
        fn_idx = syndrome.function_index
        self.trace.records.append(
            TraceRecord(t, f"heal.{syndrome.cell_id}.{action.value}", fn_idx, "syndrome_action")
        )
        if action is HealAction.DEACTIVATE:
            fabric.deactivate(syndrome)
            self._publish(fn_idx, 0, t, cascade=True)
        elif action is HealAction.REROUTE:
            fabric.reroute(syndrome)
        elif action is HealAction.RESTORE:
            fabric.restore(syndrome)  # the spare holds the function's bank already
            self._bind_row(fn_idx)
            self._schedule_eval(fn_idx, t)

    def _fail_safe(self, t: int) -> None:
        fabric = self.fabric
        if fabric.fail_safe:
            return
        fabric.fail_safe = True
        self.trace.records.append(TraceRecord(t, "alarm", 2, "alarm"))
        for fn_idx in sorted(self._output_fns):
            self._publish(fn_idx, 0, t, cascade=False)

    # ---- value propagation ----------------------------------------------

    def _publish(self, fn_idx: int, value: int, t: int, cascade: bool) -> None:
        """Record a function's value and route it to its readers.

        An unchanged value is recorded only for a function sampled at
        every publish.  Every reader's sink port already holds
        ``published[fn_idx]``, so it is routed only while a sink may hold
        a corrupted port, which the write drops (see the module docstring)."""
        fabric = self.fabric
        if fabric.fail_safe and fn_idx in self._output_fns:
            value = 0
        published = fabric.published
        changed = published[fn_idx] != value
        if changed or fn_idx in self._recorded_always:
            records = self.trace.records
            for name in self.program.signals[fn_idx]:
                records.append(TraceRecord(t, name, value, "data"))
        if changed:
            published[fn_idx] = value
        elif not self._route_repeats:
            return
        _route(self._sinks[fn_idx], value)
        if changed and cascade:
            # a reader with several ports is scheduled once: _schedule_eval
            # merges evaluations of one function at one time
            for reader, _port in self.program.readers[fn_idx]:
                if fabric.binding[reader].health is not FAULTY_DEACTIVATED:
                    self._schedule_eval(reader, t + self.timing.cell_delay)


def _route(sinks: list[tuple], value: int) -> None:
    """Route an event-path value to its ``(bank, values, port)`` sinks;
    a write also drops an overlay port (``InputRegisterBank.write``)."""
    for bank, _values, port in sinks:
        bank.write(port, value)


def plant_step_raw(v: int, u: int, gain: int, drag: int, dt: int) -> int:
    """v' = v + (gain*u - drag*v)*dt, all factors Q8.8, truncated toward zero
    as ``OP_MUL`` does, in one frame (tests/references.py composes it)."""
    f, g = gain * u, drag * v
    f = ((((f + 255 if f < 0 else f) >> 8) + 32768) & 0xFFFF) - 32768
    g = ((((g + 255 if g < 0 else g) >> 8) + 32768) & 0xFFFF) - 32768
    p = dt * (f - g)  # wrapping the last product adds a multiple of 2**16
    return ((v + ((p + 255 if p < 0 else p) >> 8) + 32768) & 0xFFFF) - 32768

