"""Bundled applications, and ``read_source``, the one reader of named inputs.

A bundled application is its netlist, ``data/<name>.nl``.  The module
``edg`` holds the standard stimulus of ``data/edg.nl`` for tests and the
benchmark; running an application does not import it.  The reference
semantics of both applications live beside the tests that check them.
"""

from __future__ import annotations

import functools
import os
from importlib import resources
from pathlib import Path

from ..cell import excerpt
from ..netlist import Netlist, parse_netlist
from ..place import FabricProgram, compile_netlist

BUNDLED = ("edg", "ccs")


def read_source(source: str | Path, what: str, bundled=(), suffix="") -> tuple[str, str]:
    """The text and name of ``source``: a ``bundled`` name reads
    ``data/<name><suffix>``, any other is opened once as UTF-8 and named by
    its stem.  A missing or unreadable file raises a one-line OSError."""
    name = str(source)
    if name in bundled:
        return resources.files("cellfab.data").joinpath(name + suffix).read_text(), name
    try:
        return Path(name).read_text(encoding="utf-8"), Path(name).stem
    except FileNotFoundError:
        raise OSError(f"{what} not found: {excerpt(name)}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, a long name, not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise OSError(f"cannot read {what} {excerpt(name)}: {reason}") from None


def netlist_text(name: str) -> str:
    """Text of the bundled netlist of application ``name``."""
    return read_source(name, "netlist file", BUNDLED, ".nl")[0]


def resolve_netlist(application: str) -> Netlist:
    """Map an application name or netlist path to a parsed netlist."""
    if application in BUNDLED or Path(application).suffix == ".nl" or os.path.exists(application):
        return parse_netlist(*read_source(application, "netlist file", BUNDLED, ".nl"))
    raise ValueError(f"unknown application {excerpt(repr(application))}")


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
