"""cellfab: a deterministic self-healing cellular fabric simulator.

The package models a layered fabric of configurable logic cells with
triplicated input registers, duplicated self-checking and spare-cell
healing, maps function-block netlists onto it, injects register and
logic faults, and exports nanosecond-resolution traces to CSV and VCD.

The package exports ``run`` and ``load_scenario``; every other name is
imported from its module (``cellfab.cell``, ``cellfab.report``, ...).
"""

__version__ = "0.1.0"

from .scenarios import load_scenario  # noqa: F401
from .sim import run  # noqa: F401
