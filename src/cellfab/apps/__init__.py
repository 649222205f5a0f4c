"""Bundled applications and application-name resolution."""

from __future__ import annotations

from pathlib import Path

from ..netlist import Netlist, parse_netlist
from ..place import FabricProgram, compile_netlist
from .edg import EdgApplication, build_edg  # noqa: F401
from .ccs import (  # noqa: F401
    CcsApplication,
    ModeCondition,
    PiParams,
    build_ccs,
    ccs_mode,
    pi_reference,
)

BUNDLED = ("edg", "ccs")


def resolve_netlist(application: str) -> Netlist:
    """Map an application name or netlist path to a parsed netlist."""
    if application == "edg":
        return build_edg().netlist
    if application == "ccs":
        return build_ccs().netlist
    path = Path(application)
    if path.suffix == ".nl" or path.exists():
        if not path.exists():
            raise FileNotFoundError(f"netlist file not found: {application}")
        return parse_netlist(path.read_text(), path.stem)
    raise ValueError(f"unknown application {application!r}")


def resolve_application(application: str) -> FabricProgram:
    return compile_netlist(resolve_netlist(application))
