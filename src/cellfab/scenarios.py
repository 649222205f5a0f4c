"""Scenario files: JSON schema, loading, and the bundled catalogue.

A scenario file is JSON with sections ``application``, ``timing``,
``stimulus`` (list of {t, name, value}), ``faults`` (list of fault
records), ``run_until`` and ``seed``; closed-loop runs add an optional
``plant`` section wiring one output back into one input through the
demo vehicle model.  A key the schema does not name is rejected, in the
document and in every section and entry.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from .apps import read_source
from .cell import CellId, Port, excerpt, parse_int
from .engine import FaultSpec, PlantFeedback, Scenario, TimingParams

BUNDLED_SCENARIOS = (
    "edg_faultfree",
    "edg_transient3",
    "edg_permanent_bt",
    "edg_multifault4",
    "ccs_step",
    "ccs_fc16_permanent",
)

_PORTS = {p.value: p for p in Port}
_KINDS = {int: "an int", str: "a string", list: "a list", dict: "an object"}


def _port(name) -> Port:
    if type(name) is not str or name not in _PORTS:
        raise ValueError(f"unknown port {excerpt(repr(name))}")
    return _PORTS[name]


def _typed(value, what: str, kind: type = int):
    """``value`` itself if its type is exactly ``kind`` (a bool is no int);
    never coerced."""
    if type(value) is not kind:
        raise ValueError(f"{what} {excerpt(repr(value))} is not {_KINDS[kind]}")
    return value


_SCENARIO_KEYS = ("application", "timing", "stimulus", "faults", "run_until", "seed", "plant")
_STIMULUS_KEYS = ("t", "name", "value")
_STIMULUS_KEYSET = frozenset(_STIMULUS_KEYS)
_FAULT_KEYS = ("kind", "cell", "t", "port", "replica", "flip", "stuck", "period", "count")
_FAULT_INTS = _FAULT_KEYS[4:]  # the optional int keys, each a FaultSpec field of its name


def _known(data: dict, keys, section: str) -> None:
    """Reject a key of ``data`` that is not one of ``keys``."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown {section} key {excerpt(repr(unknown[0]))}")


def _section(cls, data: dict, section: str):
    """Build a dataclass of int and str fields from one scenario section,
    rejecting unknown and missing keys and values of another type."""
    _typed(data, section, dict)
    _known(data, [f.name for f in fields(cls)], section)
    for f in fields(cls):
        if f.name in data or f.default is MISSING:
            kind = int if f.type == "int" else str
            _typed(_key(data, f.name, section), f"{section} {f.name}", kind)
    return cls(**data)


def _key(data: dict, key: str, section: str):
    """One required key of a scenario section."""
    if key not in data:
        raise ValueError(f"missing {section} key {key!r}")
    return data[key]


def _fault_from_dict(d: dict) -> FaultSpec:
    _typed(d, "fault entry", dict)
    _known(d, _FAULT_KEYS, "fault")
    for key in ("t", *_FAULT_INTS):
        if key in d:
            _typed(d[key], f"fault {key}")
    return FaultSpec(
        kind=_key(d, "kind", "fault"),
        cell=CellId.parse(_key(d, "cell", "fault")),
        time=_key(d, "t", "fault"),
        port=_port(d["port"]) if "port" in d else None,
        **{key: d.get(key) for key in _FAULT_INTS},
    )


def _fault_to_dict(f: FaultSpec) -> dict:
    d: dict = {"kind": f.kind, "cell": str(f.cell), "t": f.time}
    if f.port is not None:
        d["port"] = f.port.value
    for key in _FAULT_INTS:
        if getattr(f, key) is not None:
            d[key] = getattr(f, key)
    return d


def scenario_from_dict(data: dict, name: str) -> Scenario:
    if type(data) is not dict:
        raise ValueError("scenario is not a JSON object")
    _known(data, _SCENARIO_KEYS, "scenario")
    timing = _section(TimingParams, data.get("timing", {}), "timing")
    stimulus = []
    for s in _typed(data.get("stimulus", []), "scenario stimulus", list):
        if not (type(s) is dict and s.keys() == _STIMULUS_KEYSET
                and type(s["t"]) is int and type(s["name"]) is str):
            _typed(s, "stimulus entry", dict)  # malformed: word its first error
            _known(s, _STIMULUS_KEYS, "stimulus")
            t, signal, _ = (_key(s, key, "stimulus") for key in _STIMULUS_KEYS)
            _typed(t, "stimulus t")
            _typed(signal, "stimulus name", str)
        stimulus.append((s["t"], s["name"], s["value"]))
    faults = [
        _fault_from_dict(f) for f in _typed(data.get("faults", []), "scenario faults", list)
    ]
    plant = _section(PlantFeedback, data["plant"], "plant") if "plant" in data else None
    return Scenario(
        name=name,
        application=_typed(_key(data, "application", "scenario"), "scenario application", str),
        stimulus=stimulus,
        faults=faults,
        timing=timing,
        run_until=_typed(_key(data, "run_until", "scenario"), "scenario run_until"),
        seed=_typed(data.get("seed", 0), "scenario seed"),
        plant=plant,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    data: dict = {
        "application": scenario.application,
        "timing": asdict(scenario.timing),
        "stimulus": [
            {"t": t, "name": n, "value": v} for t, n, v in scenario.stimulus
        ],
        "faults": [_fault_to_dict(f) for f in scenario.faults],
        "run_until": scenario.run_until,
        "seed": scenario.seed,
    }
    if scenario.plant is not None:
        data["plant"] = asdict(scenario.plant)
    return data


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object of a scenario; a key it repeats is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated scenario key {excerpt(repr(key))}")
        data[key] = value
    return data


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario by bundled name or file path.  Its JSON numbers are
    read by ``cell.parse_int``, so one of over 4,300 digits is one short
    error, and a key repeated in any of its objects is refused."""
    text, name = read_source(source, "scenario", BUNDLED_SCENARIOS, ".scn")
    try:
        data = json.loads(
            text,
            parse_int=lambda digits: parse_int(digits, "number"),
            object_pairs_hook=_unique_keys,
        )
    except RecursionError:  # json recurses once per nested array or object
        raise ValueError("scenario is nested too deeply") from None
    return scenario_from_dict(data, name)
