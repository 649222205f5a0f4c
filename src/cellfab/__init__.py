"""cellfab: a deterministic self-healing cellular fabric simulator.

The package models a layered fabric of configurable logic cells with
triplicated input registers, duplicated self-checking and spare-cell
healing, maps function-block netlists onto it, injects register and
logic faults, and exports nanosecond-resolution traces to CSV and VCD.
"""

__version__ = "0.1.0"

from .cell import (  # noqa: F401
    CellHealth,
    CellId,
    FunctionalCell,
    InputRegisterBank,
    Opcode,
    Port,
    WidthMode,
    gfb_eval,
    vote,
)
from .genetic import (  # noqa: F401
    CellConfig,
    CorruptedCodeError,
    GeneticCodeError,
    InputSelector,
    InvalidCodeError,
    SelectorKind,
    decode_genetic,
    encode_genetic,
    from_hex,
    to_hex,
)
from .netlist import Netlist, NetlistError, parse_netlist  # noqa: F401
from .place import Placement, build_routing, compile_netlist, place  # noqa: F401
from .oracle import NetlistOracle  # noqa: F401
from .fabric import Fabric, HealAction, HealthSyndrome  # noqa: F401
from .engine import (  # noqa: F401
    Engine,
    FaultSpec,
    PlantFeedback,
    Scenario,
    TimingParams,
    Trace,
)
from .report import HealingMetrics, from_csv, metrics, to_csv, to_vcd  # noqa: F401
from .scenarios import BUNDLED_SCENARIOS, load_scenario  # noqa: F401
from .sim import run, run_raw  # noqa: F401
