"""The benchmark's fault-free workloads stay on the pristine pass.

Seed-1 ops 0..19 of ``ccs_cruise`` and ``oracle_netlists`` from
``cellbench/workloads.py`` run on an engine that counts its work.  Every
clock but each op's last runs whole in the pristine pass; the last one's
wave lies past the stop, so no wave slot runs on the event path and no
local evaluation runs at all.  The pass runs clocks back to back in
``Engine._handle_clock``, so a run's clocks are read off the period grid
and the stimulus times, and its pristine clocks are those that do not
take the event path (``helpers.PassLog``).  A change that moves benchmark
clocks off the pass then fails here, where a count does not move with
the host, instead of hiding in timing noise.

Seed-1 ops 0..199 of ``edg_fault_campaign`` heal, exhaust spares and
mask transients; their count of pristine clocks pins the rule by which a
faulted run returns to the pass.

A run restores its fabric from the program's initial state, so once the
bundled program is compiled ``FunctionalCell.configure`` runs only on
the heal path: never in a fault-free op, and once per restore (a spare
configured from its genetic code) in a campaign op.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cellfab.apps import resolve_application
from cellfab.cell import FunctionalCell
from cellfab.engine import Engine

from helpers import PassLog, clock_times

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "cellbench" / "workloads.py"
OPS = 20


def load_workloads():
    name = "cellbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


class TrafficEngine(PassLog, Engine):
    """The kernel listing its clocks, its pristine clocks (``PassLog``) and
    every event-path evaluation, a wave slot's or a local one's."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.clocks = clock_times(scenario)
        self.evaluations = []

    def _evaluate(self, fn_idx, t, cascade):
        self.evaluations.append((fn_idx, t, cascade))
        super()._evaluate(fn_idx, t, cascade)


@pytest.mark.parametrize("name", ["ccs_cruise", "oracle_netlists"])
def test_benchmark_clocks_take_the_pristine_pass(monkeypatch, name):
    workloads = load_workloads()
    monkeypatch.setattr(workloads, "Engine", TrafficEngine)
    w = workloads.WORKLOADS[name](1)
    for i in range(OPS):
        inp = w.inputs(i)
        out = w.op(inp, lambda _name: contextlib.nullcontext())
        w.check(inp, out)
        engine = out.result
        assert type(engine) is TrafficEngine
        assert len(engine.clocks) > 1
        assert engine.pristine == engine.clocks[:-1], f"op {i}"
        assert engine.evaluations == [], f"op {i}"


def test_campaign_clocks_that_take_the_pristine_pass(monkeypatch):
    # a healed run takes the pass again once its restored spare holds no
    # injected fault and no cell is suspect
    workloads = load_workloads()
    monkeypatch.setattr(workloads, "Engine", TrafficEngine)
    w = workloads.WORKLOADS["edg_fault_campaign"](1)
    clocks = pristine = 0
    for i in range(200):
        inp = w.inputs(i)
        out = w.op(inp, lambda _name: contextlib.nullcontext())
        w.check(inp, out)
        clocks += len(out.result.clocks)
        pristine += len(out.result.pristine)
    assert (clocks, pristine) == (2600, 1751)


@pytest.fixture
def configured(monkeypatch):
    """The cells ``FunctionalCell.configure`` is called on from here on;
    both bundled programs are compiled first, as by a process's first op."""
    for app in ("ccs", "edg"):
        resolve_application(app)
    cells, configure = [], FunctionalCell.configure

    def counting(cell, config):
        cells.append(cell.cell_id)
        configure(cell, config)

    monkeypatch.setattr(FunctionalCell, "configure", counting)
    return cells


def test_a_fault_free_op_configures_no_cell(configured):
    w = load_workloads().WORKLOADS["ccs_cruise"](1)
    for i in range(OPS):
        w.op(w.inputs(i), lambda _name: contextlib.nullcontext())
        assert configured == [], f"op {i}"


def test_a_campaign_op_configures_one_spare_per_restore(configured):
    w = load_workloads().WORKLOADS["edg_fault_campaign"](1)
    total = 0
    for i in range(200):
        configured.clear()
        out = w.op(w.inputs(i), lambda _name: contextlib.nullcontext())
        restored = {r.signal for r in out.result.trace.records
                    if r.annotation == "syndrome_action" and r.signal.endswith(".restore")}
        # the restored syndromes' spares, in restore order
        spares = [s.chosen_spare for s in out.result.syndromes
                  if f"heal.{s.cell_id}.restore" in restored]
        assert configured == spares, f"op {i}"
        total += len(spares)
    assert total > 0
