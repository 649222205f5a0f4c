"""Bundled applications and application-name resolution.

A bundled application is its netlist, ``data/<name>.nl``.  The modules
``edg`` and ``ccs`` hold its reference semantics for tests and the
benchmark; running an application does not import them.
"""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

from ..netlist import Netlist, parse_netlist
from ..place import FabricProgram, compile_netlist

BUNDLED = ("edg", "ccs")


def netlist_text(name: str) -> str:
    """Text of the bundled netlist of application ``name``."""
    return resources.files("cellfab.data").joinpath(f"{name}.nl").read_text()


def resolve_netlist(application: str) -> Netlist:
    """Map an application name or netlist path to a parsed netlist."""
    if application in BUNDLED:
        return parse_netlist(netlist_text(application), application)
    path = Path(application)
    if path.suffix == ".nl" or path.exists():
        if not path.exists():
            raise FileNotFoundError(f"netlist file not found: {application}")
        return parse_netlist(path.read_text(), path.stem)
    raise ValueError(f"unknown application {application!r}")


def resolve_application(application: str) -> FabricProgram:
    """The compiled program of an application name or netlist path.

    A bundled application is compiled once per process and its program
    shared by every later call, as no run writes a program.  A netlist
    path is compiled on every call, since the file can change."""
    if application in BUNDLED:
        return _compile_bundled(application)
    return compile_netlist(resolve_netlist(application))


@functools.cache
def _compile_bundled(name: str) -> FabricProgram:
    return compile_netlist(resolve_netlist(name))
