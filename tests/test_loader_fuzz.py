"""Fuzzed loader input ends in a ValueError, never in another exception.

Each loader is fed mutations of a valid document: spliced characters from
the format's own alphabet, deleted or duplicated lines.  Whatever the
mutation, the loader either accepts the text or raises a ``ValueError``
subclass (``GeneticCodeError``, or a plain ``ValueError`` naming the CSV
line or the missing header line); a ``TypeError``, ``KeyError`` or
``IndexError`` escaping would reach the command line as a traceback.  A
netlist either compiles or raises ``NetlistError`` alone, which is all
``cellfab validate`` catches, also when a long run of digits, spaces or
run-together attributes is spliced in.  A CSV trace that loads is also
measured.
A scenario document is mutated as JSON instead, and run when it loads; a
missing netlist file may also end in an ``OSError``.
"""

import copy
import json
from dataclasses import fields, replace

import pytest

from hypothesis import given, settings, strategies as st

from cellfab.apps import netlist_text
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellId
from cellfab.engine import FaultSpec, PlantFeedback, Scenario, TimingParams
from cellfab.genetic import decode_genetic, encode_genetic, from_hex, to_hex
from cellfab.netlist import NetlistError, parse_netlist
from cellfab.place import compile_netlist
from cellfab.report import _header_value, from_csv, metrics, to_csv
from cellfab.scenarios import load_scenario, scenario_from_dict, scenario_to_dict
from cellfab.sim import run, run_raw

from test_genetic import random_config

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def mutated(draw, text: str, alphabet: str):
    """``text`` with a few spliced spans and line edits."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
    out = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        j = draw(st.integers(i, min(len(out), i + 10)))
        out = out[:i] + draw(st.text(alphabet, max_size=6)) + out[j:]
    return out


NETLIST_ALPHABET = "abinoptuwyz_019 :=(),#\n\t-ANDORTMUXCPSBLYE"


@st.composite
def with_long_run(draw, text: str):
    """``text`` with a run of up to 5,000 characters of one unit spliced
    into a node line: after its ``(`` or its last ``=``, or at its end."""
    lines = text.splitlines()
    nodes = [i for i, line in enumerate(lines) if line.startswith("node")]
    if not nodes:
        return text
    i = draw(st.sampled_from(nodes))
    line = lines[i]
    at = draw(st.sampled_from([line.find("(") + 1, line.rfind("=") + 1, len(line)]))
    unit = draw(st.sampled_from(["x=11", "9", "0", " "]))
    longest = 5000 // len(unit)
    count = draw(st.integers(1, longest) | st.just(longest))
    lines[i] = line[:at] + unit * count + line[at:]
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.sampled_from([netlist_text("edg"), netlist_text("ccs")]).flatmap(
    lambda text: mutated(text, NETLIST_ALPHABET) | with_long_run(text)
    | mutated(text, NETLIST_ALPHABET).flatmap(with_long_run)))
def test_netlist_loader_raises_only_value_errors(text):
    try:
        compile_netlist(parse_netlist(text))
    except NetlistError:
        pass


@FUZZ
@given(st.randoms(use_true_random=False), st.integers(0, (1 << 66) - 1),
       st.integers(-(1 << 70), 1 << 70), st.booleans())
def test_code_word_decoder_raises_only_value_errors(rng, mask, raw, use_raw):
    word = raw if use_raw else encode_genetic(random_config(rng)) ^ mask
    try:
        decode_genetic(word)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(
    st.text("0123456789abcdefABCDEFxX_+- \t", max_size=20),
    st.integers(0, (1 << 68) - 1).map(to_hex),
))
def test_hex_loader_raises_only_value_errors(text):
    try:
        decode_genetic(from_hex(text))
    except ValueError:
        pass


def short_trace_csv() -> str:
    """A healed permanent fault: data, mismatch and syndrome_action rows."""
    sc = Scenario(
        name="fuzz", application="edg",
        stimulus=[(0, n, v) for n, v in START_PERMITTED.items()], run_until=300,
        faults=[FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=0, flip=1)],
    )
    return to_csv(run_raw(sc).trace)


CSV_TEXT = short_trace_csv()
CSV_ALPHABET = "0123456789,.-#: =\nabcdefilmnostu_" + "EOS"
COLUMNS = "time_ns,signal,value,annotation\n"
CSV_HEADER, CSV_ROWS = CSV_TEXT.split(COLUMNS)  # the header alone is mutated too


@FUZZ
@given(mutated(CSV_TEXT, CSV_ALPHABET) | mutated(CSV_HEADER, CSV_ALPHABET).map(
    lambda header: header + COLUMNS + CSV_ROWS))
def test_csv_loader_raises_only_value_errors(text):
    try:
        trace = from_csv(text)
    except ValueError as exc:
        assert str(exc).startswith(("line ", "missing '# "))
        return
    try:
        metrics(trace)
    except ValueError:
        pass


def test_unmutated_documents_load():
    m = metrics(from_csv(CSV_TEXT))
    assert (m.fault_free_latency, m.heal_complete, len(m.syndromes)) == (245, 140, 1)
    compile_netlist(parse_netlist(netlist_text("ccs")))
    with pytest.raises(ValueError, match="^line "):
        from_csv(CSV_TEXT.replace("data", "dat", 1))


@pytest.mark.parametrize(
    "fault",
    [
        {"kind": "transient_register", "cell": "L0.F0", "t": 400, "port": "N", "replica": 1,
         "flip": 1},
        {"kind": "permanent_gfb", "cell": "L1.F2", "t": 400, "stuck": 0},
        {"kind": "intermittent_burst", "cell": "L0.F1", "t": 100, "port": "W", "replica": 2,
         "stuck": 1, "period": 50, "count": 3},
    ],
    ids=lambda fault: fault["kind"],
)
def test_scenario_document_round_trips_each_fault_kind(fault):
    data = scenario_to_dict(load_scenario("edg_faultfree")) | {"faults": [fault]}
    assert scenario_to_dict(scenario_from_dict(data, "round_trip")) == data


TIMINGS = st.builds(TimingParams, **{f.name: st.integers(1) for f in fields(TimingParams)})
PLANTS = st.builds(PlantFeedback, **{
    f.name: st.integers() if f.type == "int" else st.text() for f in fields(PlantFeedback)
})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(TIMINGS, st.none() | PLANTS)
def test_timing_and_plant_round_trip_through_json_and_the_csv_header(timing, plant):
    sc = replace(load_scenario("ccs_step"), timing=timing, plant=plant)
    data = json.loads(json.dumps(scenario_to_dict(sc)))
    assert scenario_from_dict(data, sc.name) == sc
    assert _header_value("timing", timing.describe()) == timing


SCENARIOS = [
    scenario_to_dict(load_scenario(name)) | {"run_until": 600}
    for name in ("edg_multifault4", "ccs_step")  # ccs_step has a plant section
]
SCENARIO_KEYS = [
    "application", "timing", "stimulus", "faults", "run_until", "seed", "plant",
    "cell_delay", "stimulus_period", "t", "name", "value", "kind", "cell", "port",
    "replica", "flip", "stuck", "period", "count", "input_name", "output_name", "v0",
]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 600)
    | st.sampled_from(["edg", "estop", "L0.F0", "L1.R0", "N", "flip", "throttle", "x.nl"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCENARIO_KEYS), inner, max_size=3),
    max_leaves=6,
)


def containers(node):
    """``node`` and every object or array inside it."""
    yield node
    for value in node.values() if isinstance(node, dict) else node:
        if isinstance(value, (dict, list)):
            yield from containers(value)


@st.composite
def mutated_scenario(draw):
    """A bundled document, cut at 600, with a few values replaced, keys or
    entries dropped, or keys and entries added."""
    data = copy.deepcopy(draw(st.sampled_from(SCENARIOS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(containers(data))))
        if isinstance(node, dict):
            own = st.sampled_from(sorted(node) or SCENARIO_KEYS)
            key = draw(own | st.sampled_from(SCENARIO_KEYS))
            if key in node and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(JSON)
        elif node and draw(st.booleans()):
            i = draw(st.integers(0, len(node) - 1))
            if draw(st.booleans()):
                del node[i]
            else:
                node[i] = draw(JSON)
        else:
            node.append(draw(JSON))
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_scenario())
def test_scenario_loader_and_run_raise_only_value_errors(data):
    try:
        run(scenario_from_dict(data, "fuzz"))
    except (ValueError, OSError):
        pass
