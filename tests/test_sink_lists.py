"""A run's sink lists and rows are bound once and stay valid.

When a run starts, ``Engine._bind_table`` binds, per source in
``program.readers``, a list of ``(bank, bank.values, port)`` sinks, and
the rows, one per DELAY and one per wave slot, which share those lists.
Both paths route through the lists and walk the rows, so no heal step
may leave one stale: a sink's bank is its reader's one bank
(``Fabric.banks``), which reroute hands to the spare, so no list
changes, and restore replaces the function's own row.  No run binds
again.
"""

import contextlib

from hypothesis import given, settings

from cellfab.apps import resolve_application
from cellfab.cell import FAULTY_DEACTIVATED
from cellfab.engine import Engine
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario

from test_bench_traffic import load_workloads
from test_selective_eval import faulted_scenarios

HEALED_SCENARIOS = ("edg_permanent_bt", "edg_multifault4", "ccs_fc16_permanent")
HANDLERS = ("_handle_clock", "_handle_inject", "_handle_eval", "_handle_wave", "_handle_heal")


def test_every_run_binds_once(monkeypatch):
    engines = []
    bind = Engine._bind_table

    def counting(self):
        engines.append(self)
        return bind(self)

    monkeypatch.setattr(Engine, "_bind_table", counting)
    for name in BUNDLED_SCENARIOS:
        sc = load_scenario(name)
        engines.clear()
        Engine(resolve_application(sc.application), sc).run()
        assert len(engines) == 1, name
    # each campaign op runs once and once more as its golden twin
    w = load_workloads().WORKLOADS["edg_fault_campaign"](1)
    engines.clear()
    for i in range(200):
        inp = w.inputs(i)
        w.check(inp, w.op(inp, lambda _name: contextlib.nullcontext()))
    assert len({id(engine) for engine in engines}) == len(engines) == 400


def assert_sinks_match_the_fabric(engine: Engine) -> None:
    """Each source's sink list holds, for each of its ``(reader, port)``
    readers, the reader's bank, that bank's ``values`` and the port; and
    each function's bank is held by exactly one cell."""
    fabric = engine.fabric
    for source, readers in engine.program.readers.items():
        sinks = engine._sinks[source]
        assert len(sinks) == len(readers), source
        for (bank, values, port), (reader, reader_port) in zip(sinks, readers):
            assert bank is fabric.banks[reader], (source, reader)
            assert values is bank.values and port == reader_port, (source, reader)
    held = [id(c.registers) for c in fabric.workers + fabric.spares]
    for i, bank in enumerate(fabric.banks):
        assert bank is None or held.count(id(bank)) == 1, i


def assert_rows_match_the_fabric(engine: Engine) -> None:
    """Each row holds its function's bank, ``values`` and bound cell's
    ``evaluate``, a DELAY row the cell too, and shares the function's
    sink list; wave row n is the program's wave slot n.  The bound cell
    holds the bank, but after reroute a deactivated one holds None."""
    binding, banks, sinks = engine.fabric.binding, engine.fabric.banks, engine._sinks

    def holds(cell, bank):
        if cell.registers is None:
            return cell.health is FAULTY_DEACTIVATED
        return cell.registers is bank

    for i, cell, bank, values, _names, row_sinks, _always in engine._delay_rows:
        assert cell is binding[i] and bank is banks[i] and values is bank.values, i
        assert holds(cell, bank) and row_sinks is sinks[i], i
    delta = engine.timing.cell_delay
    assert [row[:2] for row in engine._rows] == [
        (level * delta, i) for level, i, _ in engine.program.wave
    ]
    for _offset, i, bank, values, _names, evaluate, row_sinks, _always in engine._rows:
        cell = binding[i]
        assert bank is banks[i] and values is bank.values and holds(cell, bank), i
        assert evaluate is cell.evaluate and row_sinks is sinks[i], i


class CheckedEngine(Engine):
    """An engine that checks its sink lists and rows after every handled
    event, and its rows at every clock the pass test finds pristine too:
    the pass runs clocks back to back with no call per clock, so that
    check runs where it reads ``_pristine``.  ``pass_clocks`` lists those
    clocks."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.pass_clocks = []
        for name in HANDLERS:
            setattr(self, name, self._checked(getattr(self, name)))

    def _checked(self, handler):
        def checked(t, payload):
            handler(t, payload)
            assert_sinks_match_the_fabric(self)
            assert_rows_match_the_fabric(self)
        return checked

    @property
    def _pristine(self):
        pristine = self.__dict__["_pristine"]
        if pristine:
            assert_rows_match_the_fabric(self)
            self.pass_clocks.append(self._last_clock)
        return pristine

    @_pristine.setter
    def _pristine(self, value):
        self.__dict__["_pristine"] = value


def test_sink_lists_and_rows_match_the_fabric_at_every_event():
    # the property holds only as far as its cases reach: they must reroute
    # and return to the pass after a restore
    seen = set()

    def check(program, sc):
        engine = CheckedEngine(program, sc).run()
        restores = [r.time for r in engine.trace.records
                    if r.annotation == "syndrome_action" and r.signal.endswith(".restore")]
        if restores:
            seen.add("restore")
            if engine.pass_clocks and engine.pass_clocks[-1] > min(restores):
                seen.add("pristine again after a restore")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(faulted_scenarios())
    def drawn(case):
        check(*case)

    drawn()
    for name in HEALED_SCENARIOS:
        sc = load_scenario(name)
        check(resolve_application(sc.application), sc)
    assert seen == {"restore", "pristine again after a restore"}
