"""Command-line frontend.

Subcommands:
    run       simulate scenario files, export traces and metrics
    validate  parse a netlist, report node count, depth and placement
    disasm    decode a 17-hex-digit genetic code word
    report    recompute metrics from an exported CSV trace
    apps      list bundled applications and scenarios

Fail-safe entry is a reportable simulation outcome, not a tool failure:
``run`` exits 0 for it and reserves nonzero for configuration and I/O
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import __version__
from .apps import BUNDLED, read_source, resolve_netlist
from .cell import excerpt, parse_int
from .engine import TimingParams
from .genetic import GeneticCodeError, decode_genetic, format_config, from_hex
from .netlist import NetlistError, parse_netlist
from .place import place
from .report import format_metrics, from_csv, metrics, to_csv, to_vcd
from .scenarios import BUNDLED_SCENARIOS, load_scenario
from .sim import run


def _flag_int(text: str) -> int:
    """A flag's integer, by ``cell.parse_int``.  Its error goes to argparse
    as an ArgumentTypeError, since argparse words a ValueError itself,
    quoting the whole value."""
    try:
        return parse_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_timing_overrides(parser: argparse.ArgumentParser) -> None:
    add = functools.partial(parser.add_argument, type=_flag_int)
    add("--timing.cell_delay", dest="cell_delay", metavar="NS")
    add("--timing.threshold", dest="check_threshold", metavar="K")
    add("--timing.reroute_delay", dest="reroute_delay", metavar="NS")
    add("--timing.restore_delay", dest="restore_delay", metavar="NS")
    add("--timing.stimulus_period", dest="stimulus_period", metavar="NS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellfab", description="self-healing cell fabric simulator"
    )
    parser.add_argument("--version", action="version", version=f"cellfab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files")
    p_run.add_argument("scenarios", nargs="+", help="scenario file or bundled name")
    p_run.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p_run.add_argument("--format", choices=("csv", "vcd", "both"), default="both")
    _add_timing_overrides(p_run)

    p_val = sub.add_parser("validate", help="validate a netlist file")
    p_val.add_argument("netlist", help="netlist file path")

    p_dis = sub.add_parser("disasm", help="decode a genetic code word")
    p_dis.add_argument("code", help="17 hex digits")

    p_rep = sub.add_parser("report", help="metrics from an exported CSV trace")
    p_rep.add_argument("trace", help="CSV trace path")
    p_rep.add_argument(
        "--scenario",
        default=None,
        help="scenario file enabling golden-run comparison fields",
    )

    sub.add_parser("apps", help="list bundled applications and scenarios")
    return parser


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {excerpt(args.out)}: {exc.strerror}",
              file=sys.stderr)
        return 2
    status = 0
    for source in args.scenarios:
        try:
            scenario = load_scenario(source)
        except (OSError, ValueError) as exc:
            # read_source's OSError names the file itself
            where = "" if isinstance(exc, OSError) else f"{excerpt(source)}: "
            print(f"error: {where}{exc}", file=sys.stderr)
            status = 2
            continue
        overrides = {
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(TimingParams)
            if getattr(args, f.name) is not None
        }
        if overrides:
            scenario = dataclasses.replace(
                scenario, timing=dataclasses.replace(scenario.timing, **overrides)
            )
        base = out_dir / scenario.name
        try:
            trace, m = run(scenario)
            if args.format in ("csv", "both"):
                Path(f"{base}.csv").write_text(to_csv(trace))
            if args.format in ("vcd", "both"):
                Path(f"{base}.vcd").write_text(to_vcd(trace))
            report_text = format_metrics(m, scenario.timing)
            Path(f"{base}.metrics.txt").write_text(report_text)
        except (OSError, ValueError) as exc:  # also NetlistError, an export
            if getattr(exc, "filename", None):  # an export it cannot write
                exc = f"cannot write {excerpt(exc.filename)}: {exc.strerror}"
            print(f"error: {excerpt(scenario.name)}: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"== {scenario.name}")
        print(report_text, end="")
    return status


def cmd_validate(args) -> int:
    try:
        text, name = read_source(args.netlist, "netlist file")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        nl = parse_netlist(text, name)
    except NetlistError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    placement = place(nl)
    print(
        f"{len(nl.nodes)} nodes, depth {nl.critical_path}, "
        f"{placement.layer_count} layers"
    )
    for name, (layer, slot) in sorted(placement.slots.items(), key=lambda kv: kv[1]):
        print(f"  L{layer}.F{slot} {name}")
    return 0


def cmd_disasm(args) -> int:
    try:
        word = from_hex(args.code)
    except GeneticCodeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        config = decode_genetic(word)
    except GeneticCodeError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    print(format_config(config))
    return 0


def cmd_report(args) -> int:
    try:
        trace = from_csv(read_source(args.trace, "trace file")[0])
        scenario = load_scenario(args.scenario) if args.scenario else None
        if scenario is not None and scenario.application != trace.application:
            raise ValueError(
                f"scenario application {excerpt(repr(scenario.application))} is not"
                f" the trace's {excerpt(repr(trace.application))}"
            )
        m = metrics(trace, scenario)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_metrics(m, trace.timing), end="")
    return 0


def cmd_apps(args) -> int:
    print("applications:")
    for name in BUNDLED:
        nl = resolve_netlist(name)
        outputs = ", ".join(nl.outputs)
        print(
            f"  {name}: {len(nl.nodes)} cells, depth {nl.critical_path}, "
            f"outputs {outputs}"
        )
    print("scenarios:")
    for name in BUNDLED_SCENARIOS:
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "validate": cmd_validate,
        "disasm": cmd_disasm,
        "report": cmd_report,
        "apps": cmd_apps,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
