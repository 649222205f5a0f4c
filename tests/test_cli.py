"""Command-line interface behaviour and exit codes."""

from dataclasses import fields

import pytest

from cellfab.cli import main
from cellfab.engine import TimingParams
from cellfab.genetic import NOP_CONFIG, encode_genetic, to_hex


@pytest.fixture()
def out_dir(tmp_path):
    return tmp_path / "out"


@pytest.fixture(scope="module")
def faultfree_csv(tmp_path_factory):
    """The CSV export of ``edg_faultfree``, written once per module."""
    out = tmp_path_factory.mktemp("faultfree")
    assert main(["run", "edg_faultfree", "--out", str(out), "--format", "csv"]) == 0
    return out / "edg_faultfree.csv"


def test_run_faultfree_writes_artifacts(out_dir, capsys):
    rc = main(["run", "edg_faultfree", "--out", str(out_dir), "--format", "both"])
    assert rc == 0
    assert (out_dir / "edg_faultfree.csv").exists()
    assert (out_dir / "edg_faultfree.vcd").exists()
    assert (out_dir / "edg_faultfree.metrics.txt").exists()
    text = capsys.readouterr().out
    assert "fault_free_latency_ns 245" in text


def test_run_multifault_metrics(out_dir, capsys):
    rc = main(["run", "edg_multifault4", "--out", str(out_dir), "--format", "csv"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "heal_complete_ns 570" in text
    assert not (out_dir / "edg_multifault4.vcd").exists()


def test_run_missing_scenario_nonzero(out_dir, capsys):
    rc = main(["run", "missing.scn", "--out", str(out_dir)])
    assert rc != 0
    # the reader's error names the file; it is not prefixed with the name again
    assert capsys.readouterr().err == "error: scenario not found: missing.scn\n"


def test_run_timing_override(out_dir, capsys):
    rc = main([
        "run", "edg_faultfree", "--out", str(out_dir),
        "--format", "csv", "--timing.cell_delay", "10",
    ])
    assert rc == 0
    assert "fault_free_latency_ns 70" in capsys.readouterr().out


def test_run_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "edg_permanent_bt", "--out", str(a)]) == 0
    assert main(["run", "edg_permanent_bt", "--out", str(b)]) == 0
    for ext in ("csv", "vcd", "metrics.txt"):
        fa = (a / f"edg_permanent_bt.{ext}").read_bytes()
        fb = (b / f"edg_permanent_bt.{ext}").read_bytes()
        assert fa == fb


def test_unwritable_export_is_one_line_error(out_dir, capsys):
    # the CSV path is a directory: that scenario fails, the next one runs
    (out_dir / "edg_faultfree.csv").mkdir(parents=True)
    rc = main(["run", "edg_faultfree", "edg_transient3", "--out", str(out_dir), "--format", "csv"])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: edg_faultfree: ")
    assert "== edg_faultfree" not in captured.out
    assert "== edg_transient3" in captured.out
    assert (out_dir / "edg_transient3.csv").exists()


def test_uncreatable_out_dir_is_one_line_error(tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    rc = main(["run", "edg_faultfree", "--out", str(tmp_path / "a_file" / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory") and err.count("\n") == 1


def test_validate_edg(tmp_path, capsys):
    nl_path = tmp_path / "edg.nl"
    from cellfab.apps import netlist_text

    nl_path.write_text(netlist_text("edg"))
    rc = main(["validate", str(nl_path)])
    assert rc == 0
    assert "14 nodes, depth 7, 4 layers" in capsys.readouterr().out


def test_validate_ccs(tmp_path, capsys):
    nl_path = tmp_path / "ccs.nl"
    from cellfab.apps import netlist_text

    nl_path.write_text(netlist_text("ccs"))
    rc = main(["validate", str(nl_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "17 nodes" in out
    assert "5 layers" in out


def test_validate_cyclic_netlist(tmp_path, capsys):
    nl_path = tmp_path / "cyc.nl"
    nl_path.write_text(
        "input a : bit\nnode g1 = AND(g2, a)\nnode g2 = OR(g1, a)\noutput y = g1\n"
    )
    rc = main(["validate", str(nl_path)])
    assert rc == 1
    assert "cycle" in capsys.readouterr().err


# each node reads the one declared after it, so a depth-first walk of the
# graph recurses once per node
REVERSE_CHAIN = (
    "input a : bit\n"
    + "".join(f"node g{i} = NOT(g{i + 1})\n" for i in range(2999))
    + "node g2999 = NOT(a)\noutput y = g0\n"
)

REPEATED_OUTPUT = (
    "input a : bit\nnode g = NOT(a)\nnode h = NOT(g)\noutput y = g\noutput y = h\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("input a : bit\nnode g = NOT(a) foo=1\noutput y = g\n", "unknown attribute 'foo'"),
        ("input imm : bit\nnode g = NOT(imm)\noutput y = g\n", "input name 'imm' is reserved"),
        ("input a : bit\nnode imm = NOT(a)\noutput y = imm\n", "node name 'imm' is reserved"),
        ("input a : int16\nnode g = ADD(a, imm) imm=40000\noutput y = g\n",
         "immediate out of int16 range"),
        ("input a : bit\n" + "".join(f"node g{i} = NOT(a)\n" for i in range(5))
         + "output y = g0\n# partition 0: g0 g1 g2 g3 g4\n",
         "partition layer 0 exceeds 4 worker slots"),
        ("".join(f"input i{i} : bit\n" for i in range(65)) + "node g = NOT(i0)\noutput y = g\n",
         "more than 64 primary inputs"),
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition 999999999999: n\n",
         "line 4: partition layer 999999999999 is beyond the fabric's 16 layers"),
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition 0016: n\n",
         "line 4: partition layer 16 is beyond the fabric's 16 layers"),
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition " + "9" * 5000 + ": n\n",
         "is beyond the fabric's 16 layers"),  # more digits than int() converts
        ("input a : bit\n" + "".join(f"node g{i} = NOT(a)\n" for i in range(65))
         + "output y = g0\n", "netlist needs 17 layers, fabric holds 16"),
        (REVERSE_CHAIN, "netlist needs 750 layers, fabric holds 16"),
        ("input a : bit\n" + "".join(f"node g{i} = NOT(g{(i + 1) % 65})\n" for i in range(65))
         + "output y = g0\n", "netlist needs 17 layers, fabric holds 16"),
        ("input a : bit\nnode g = NOT(a) " + "x=11" * 20 + "!\noutput y = g\n",
         "line 2: syntax error: "),
        ("input a : bit\nnode g = NOT(a) " + "x=11" * 500 + "!\noutput y = g\n",
         "line 2: syntax error: "),
        ("input a : bit\nnode g = NOT(" + " " * 1000 + "x\noutput y = g\n",
         "line 2: syntax error: "),
        ("input a : bit\nnode g = NOT(" + " " * 4000 + "x\noutput y = g\n",
         "line 2: syntax error: "),
        ("input a : int16\nnode n = ADD(a, imm) imm=" + "9" * 5000 + "\noutput y = n\n",
         "line 2: imm value of 5000 digits is out of range"),
        ("input a : int16\nnode n = DELAY(a) delay=" + "9" * 5000 + "\noutput y = n\n",
         "line 2: delay value of 5000 digits is out of range"),
        ("input a : int16\nnode n = ADD(a, imm) imm=3delay=2\noutput y = n\n",
         "line 2: syntax error: "),
        # a refused line or token is quoted to its first 40 characters
        ("input a : bit\nnode g = NOT(" + " " * 4000 + "x\noutput y = g\n",
         "line 2: syntax error: 'node g = NOT(" + " " * 26 + "...\n"),
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition " + "9" * 5000 + ": n\n",
         "line 4: partition layer " + "9" * 40 + "... is beyond the fabric's 16 layers\n"),
        ("input a : bit\nnode g = " + "A" * 5000 + "(a)\noutput y = g\n",
         "line 2: unknown opcode '" + "A" * 39 + "...\n"),
        ("input a : bit\nnode g = NOT(" + "b" * 5000 + ")\noutput y = g\n",
         "line 2: dangling reference '" + "b" * 39 + "...\n"),
        (("input " + "a" * 5000 + " : bit\n") * 2 + "node g = NOT(a)\noutput y = g\n",
         "duplicate input '" + "a" * 39 + "...\n"),
        ("input a : bit\nnode " + "p" * 5000 + " = AND(a, " + "q" * 5000 + ")\nnode "
         + "q" * 5000 + " = NOT(" + "p" * 5000 + ")\noutput y = " + "p" * 5000 + "\n",
         "line 2: combinational cycle through: " + "p" * 40 + "... -> " + "q" * 40 + "...\n"),
        # an attribute value is ASCII digits; Arabic-Indic twelve and two are not
        ("input a : int16\nnode n = ADD(a, imm) imm=\u0661\u0662\noutput y = n\n",
         "line 2: syntax error: "),
        ("input a : int16\nnode n = DELAY(a) delay=\u0662\noutput y = n\n",
         "line 2: syntax error: "),
        # so is a partition layer, and a pragma naming none is not a comment
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition \u0661: n\n",
         "line 4: partition layer '\u0661' is not ASCII digits"),
        ("input a : bit\nnode n = NOT(a)\noutput y = n\n# partition x: n\n",
         "line 4: partition layer 'x' is not ASCII digits"),
        # an output name is declared once
        (REPEATED_OUTPUT, "line 5: duplicate output 'y'\n"),
    ],
    ids=["unknown_attribute", "imm_input", "imm_node", "wide_immediate",
         "five_in_a_layer", "65_inputs", "layer_beyond_the_fabric", "layer_0016",
         "layer_of_5000_digits",
         "65_nodes", "reverse_chain_of_3000", "over_capacity_and_cyclic",
         "20_run_together_attributes", "500_run_together_attributes",
         "1000_spaces_in_operands", "4000_spaces_in_operands",
         "imm_of_5000_digits", "delay_of_5000_digits", "run_together_imm_and_delay",
         "4000_spaces_quoted_in_part", "layer_of_5000_digits_quoted_in_part",
         "opcode_of_5000_letters", "reference_of_5000_letters", "input_name_of_5000_letters",
         "cycle_of_two_5000_letter_names", "imm_of_arabic_indic_digits",
         "delay_of_an_arabic_indic_digit", "layer_of_an_arabic_indic_digit",
         "layer_of_a_letter", "repeated_output"],
)
def test_validate_invalid_netlist_is_one_line_error(tmp_path, capsys, text, message):
    import time

    nl_path = tmp_path / "bad.nl"
    nl_path.write_text(text)
    t0 = time.perf_counter()
    rc = main(["validate", str(nl_path)])
    assert time.perf_counter() - t0 < 1.0  # refused before anything per layer is built
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and err.count("\n") == 1 and message in err
    assert len(err.encode()) < 200  # a bounded excerpt of the input, not the whole line


def test_run_of_a_scenario_naming_an_over_capacity_netlist_is_one_line_error(tmp_path, capsys):
    import json

    nl_path = tmp_path / "chain.nl"
    nl_path.write_text(REVERSE_CHAIN)
    scn = tmp_path / "chain.scn"
    scn.write_text(json.dumps({"application": str(nl_path), "stimulus": [], "run_until": 100}))
    rc = main(["run", str(scn), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "netlist needs 750 layers, fabric holds 16" in err


def test_run_of_a_netlist_repeating_an_output_exits_2(tmp_path, capsys):
    import json

    nl_path = tmp_path / "outputs.nl"
    nl_path.write_text(REPEATED_OUTPUT)
    scn = tmp_path / "outputs.scn"
    scn.write_text(json.dumps({"application": str(nl_path), "stimulus": [], "run_until": 100}))
    rc = main(["run", str(scn), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("line 5: duplicate output 'y'\n")


@pytest.mark.parametrize("layer", ["\u0661", "x"])
def test_run_of_a_netlist_with_a_partition_layer_not_in_ascii_digits_exits_2(
    tmp_path, capsys, layer
):
    import json

    nl_path = tmp_path / "layer.nl"
    nl_path.write_text(f"input a : bit\nnode n = NOT(a)\noutput y = n\n# partition {layer}: n\n")
    scn = tmp_path / "layer.scn"
    scn.write_text(json.dumps({"application": str(nl_path), "stimulus": [], "run_until": 100}))
    rc = main(["run", str(scn), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"line 4: partition layer {layer!r} is not ASCII digits" in err


@pytest.mark.parametrize("command", ["validate", "run", "report"])
@pytest.mark.parametrize(
    "unreadable, message",
    [("a_directory", "Is a directory"), ("latin1.nl", "can't decode"),
     ("missing.nl", "not found"),
     pytest.param("n" * 300, "File name too long", id="name_of_300_letters")],
)
def test_unreadable_input_is_one_line_error(tmp_path, capsys, command, unreadable, message):
    path = tmp_path / unreadable
    if unreadable == "a_directory":
        path.mkdir()
    elif unreadable == "latin1.nl":
        path.write_bytes("input a : bit  # \xe9\n".encode("latin-1"))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert len(err.encode()) < 200  # the name is quoted in part


def _scenario_naming(tmp_path, application):
    import json

    scn = tmp_path / "long.scn"
    scn.write_text(json.dumps({"application": application, "run_until": 100}))
    return str(scn)


def _out_dir_of_4086_characters(tmp_path):
    """A directory the OS can create, but not a file in it named like an export."""
    out = str(tmp_path)
    while len(out) < 4085:
        out += "/" + "d" * min(200, 4085 - len(out))
    return out


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp, csv: ["report", str(csv), "--scenario", str(tmp / ("s" * 300))],
         "error: cannot read scenario "),
        (lambda tmp, csv: ["run", "edg_faultfree", "--out", str(tmp / ("o" * 300) / "out")],
         "error: cannot create output directory "),
        (lambda tmp, csv: ["run", "edg_faultfree", "--out", _out_dir_of_4086_characters(tmp)],
         "error: edg_faultfree: cannot write "),
        (lambda tmp, csv: ["run", _scenario_naming(tmp, "a" * 5000), "--out", str(tmp)],
         "error: long: unknown application '" + "a" * 39 + "...\n"),
        (lambda tmp, csv: ["run", _scenario_naming(tmp, "a/" * 2000 + "x.nl"), "--out", str(tmp)],
         "error: long: netlist file not found: " + "a/" * 20 + "...\n"),
    ],
    ids=["report_scenario_of_300_letters", "out_dir_of_300_letters",
         "export_path_of_4104_characters", "application_of_5000_letters",
         "application_path_of_4000_letters"],
)
def test_a_long_name_is_quoted_in_part(tmp_path, capsys, faultfree_csv, argv, message):
    capsys.readouterr()
    assert main(argv(tmp_path, faultfree_csv)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("opening", ["[", '{"a": '], ids=["arrays", "objects"])
def test_deeply_nested_scenario_is_one_line_error_on_run_and_report(
    tmp_path, capsys, faultfree_csv, opening
):
    scn = tmp_path / "deep.scn"
    scn.write_text(opening * 100_000)
    capsys.readouterr()
    for argv in (["run", str(scn), "--out", str(tmp_path)],
                 ["report", str(faultfree_csv), "--scenario", str(scn)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("scenario is nested too deeply\n")


def test_disasm_roundtrip(capsys):
    word = to_hex(encode_genetic(NOP_CONFIG))
    rc = main(["disasm", word])
    assert rc == 0
    out = capsys.readouterr().out
    assert "opcode        NOP" in out


@pytest.mark.parametrize(
    "node, ports",
    [
        ("fc5", ["port N         primary_input[0]", "port W         cell_output[5]",
                 "port E         primary_input[5]", "port S         unused"]),
        ("fc7", ["port N         cell_output[3]", "port W         cell_output[4]",
                 "port E         constant(immediate)", "port S         unused"]),
    ],
)
def test_disasm_lists_each_selector_kind(capsys, node, ports):
    # the bundled edg wires no port to a constant, so the codes are ccs's
    from cellfab.apps import resolve_application
    from cellfab.place import dump_program

    line = next(
        line for line in dump_program(resolve_application("ccs")).splitlines()
        if f" {node} " in line
    )
    rc = main(["disasm", line.rpartition("code=")[2]])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1:5] == ports


def test_disasm_flipped_bit_diagnostic(capsys):
    word = encode_genetic(NOP_CONFIG) ^ (1 << 40)
    rc = main(["disasm", format(word, "017x")])
    assert rc == 1
    assert "parity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word", ["123", " 1" + "0" * 16 + "\n"], ids=["short", "padded"],
)
def test_disasm_wrong_length_usage_error(capsys, word):
    rc = main(["disasm", word])
    assert rc == 2
    err = capsys.readouterr().err
    assert "17" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "word",
    ["zzzzzzzzzzzzzzzzz", "+0000000000000000", "0_000000000000000",
     " 1000000000000000", "1000000000000000\n"],
    ids=["letters", "sign", "underscore", "leading-space", "trailing-newline"],
)
def test_disasm_non_hex_word_usage_error(capsys, word):
    rc = main(["disasm", word])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: not a hex digit") and err.count("\n") == 1


def test_report_from_csv(out_dir, capsys):
    main(["run", "edg_multifault4", "--out", str(out_dir), "--format", "csv"])
    capsys.readouterr()
    rc = main([
        "report", str(out_dir / "edg_multifault4.csv"), "--scenario", "edg_multifault4",
    ])
    assert rc == 0
    assert "heal_complete_ns 570" in capsys.readouterr().out


def test_report_rejects_a_scenario_of_another_application(out_dir, capsys):
    main(["run", "edg_faultfree", "--out", str(out_dir), "--format", "csv"])
    capsys.readouterr()
    rc = main(["report", str(out_dir / "edg_faultfree.csv"), "--scenario", "ccs_step"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'ccs'" in captured.err and "'edg'" in captured.err


def test_report_quotes_a_long_application_in_part(out_dir, capsys):
    import json

    main(["run", "edg_faultfree", "--out", str(out_dir), "--format", "csv"])
    scn = out_dir / "long.scn"
    scn.write_text(json.dumps({"application": "a" * 5000, "run_until": 100}))
    capsys.readouterr()
    assert main(["report", str(out_dir / "edg_faultfree.csv"), "--scenario", str(scn)]) == 2
    assert capsys.readouterr().err == (
        "error: scenario application '" + "a" * 39 + "... is not the trace's 'edg'\n"
    )


def test_stimulus_missing_a_long_input_name_is_one_short_line(tmp_path, capsys):
    import json

    name = "a" * 5000
    nl = tmp_path / "long.nl"
    nl.write_text(f"input {name} : bit\nnode g = NOT({name})\noutput y = g\n")
    scn = tmp_path / "long.scn"
    scn.write_text(json.dumps({"application": str(nl), "run_until": 100}))
    assert main(["run", str(scn), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: long: stimulus must cover all primary inputs at t=0: ['" + "a" * 38 + "...\n"
    )


def test_report_without_scenario(out_dir, capsys):
    main(["run", "edg_multifault4", "--out", str(out_dir), "--format", "csv"])
    capsys.readouterr()
    rc = main(["report", str(out_dir / "edg_multifault4.csv")])
    assert rc == 0
    assert "faults_injected unavailable" in capsys.readouterr().out


def test_every_bundled_scenario_exits_zero(tmp_path):
    from cellfab.scenarios import BUNDLED_SCENARIOS

    rc = main(["run", *BUNDLED_SCENARIOS, "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    for name in BUNDLED_SCENARIOS:
        assert (tmp_path / f"{name}.csv").exists()


def test_apps_listing(capsys):
    rc = main(["apps"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "edg: 14 cells" in out
    assert "ccs: 17 cells" in out
    assert "edg_multifault4" in out


def test_fail_safe_still_exits_zero(tmp_path, capsys):
    # spares exhausted mid-run is a reported outcome, not a tool error
    import json

    nl = tmp_path / "single.nl"
    nl.write_text(
        "input a : bit\ninput b : bit\n"
        "node g1 = AND(a, b)\nnode g2 = OR(a, b)\n"
        "node g3 = NOT(a)\nnode g4 = AND(g1, g2)\n"
        "output y1 = g4\noutput y2 = g3\n"
    )
    faults = [
        {"kind": "permanent_gfb", "cell": f"L0.{k}{s}", "t": 400 + 400 * i, "flip": 1}
        for i, (k, s) in enumerate(
            [("F", 0), ("F", 1), ("F", 2), ("F", 3), ("R", 0)]
        )
    ]
    scn = tmp_path / "exhaust.scn"
    scn.write_text(json.dumps({
        "application": str(nl),
        "stimulus": [{"t": 0, "name": "a", "value": 1}, {"t": 0, "name": "b", "value": 1}],
        "faults": faults,
        "run_until": 3000,
        "seed": 1,
    }))
    rc = main(["run", str(scn), "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    assert "alarm fail_safe" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"kind": "permanent_gfb", "cell": "L9.F0", "t": 400, "flip": 1}, "L9.F0"),
        ({"kind": "permanent_gfb", "cell": "garbage", "t": 400, "flip": 1},
         "bad cell id 'garbage'"),
        ({"kind": "transient_register", "cell": "L0.F0", "t": 400, "port": "Q",
          "replica": 0, "flip": 1}, "unknown port 'Q'"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 5000, "flip": 1},
         "after run_until=600"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": "1"},
         "fault flip '1' is not an int"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": "100", "flip": 1},
         "fault t '100' is not an int"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": 2},
         "fault flip=2 on L0.F0 does not fit bit"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": -1},
         "fault flip=-1 on L0.F0 does not fit bit"),
        ({"kind": "transient_register", "cell": "L0.F0", "t": 400, "port": "N",
          "replica": 0, "stuck": 9}, "fault stuck=9 on L0.F0 does not fit bit"),
        ({"kind": "permanent_gfb", "cell": "L1.R2", "t": 400, "stuck": 7},
         "fault stuck=7 on L1.R2 does not fit bit"),
        ({"kind": "transient_register", "cell": "L0.F0", "t": 400, "port": ["N"],
          "replica": 0, "flip": 1}, "unknown port ['N']"),
        (5, "fault entry 5 is not an object"),
        ({"kind": "cosmic_ray", "cell": "L0.F0", "t": 400, "flip": 1},
         "unknown fault kind 'cosmic_ray'"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": -5, "flip": 1},
         "fault time must be >= 0"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": 1, "stuck": 0},
         "exactly one of flip/stuck must be set"),
        ({"kind": "transient_register", "cell": "L0.F0", "t": 400, "flip": 1},
         "register faults need a port and replica 0..2"),
        ({"kind": "intermittent_burst", "cell": "L0.F0", "t": 100, "port": "N",
          "replica": 0, "flip": 1}, "burst needs period > 0 and count >= 1"),
        # a long token is quoted to its first 40 characters
        ({"kind": "permanent_gfb", "cell": "L" + "9" * 3000 + ".F0", "t": 400, "flip": 1},
         "fault on unknown cell L" + "9" * 39 + "...\n"),
        ({"kind": "permanent_gfb", "cell": "x" * 5000, "t": 400, "flip": 1},
         "bad cell id '" + "x" * 39 + "...\n"),
        ({"kind": "transient_register", "cell": "L0.F0", "t": 400, "port": "Q" * 5000,
          "replica": 0, "flip": 1}, "unknown port '" + "Q" * 39 + "...\n"),
        ({"kind": "k" * 5000, "cell": "L0.F0", "t": 400, "flip": 1},
         "unknown fault kind '" + "k" * 39 + "...\n"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": 1, "f" * 5000: 1},
         "unknown fault key '" + "f" * 39 + "...\n"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": "1" * 5000},
         "fault flip '" + "1" * 39 + "... is not an int\n"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": 10 ** 3999},
         "fault flip=1" + "0" * 39 + "... on L0.F0 does not fit bit\n"),
        ({"kind": "permanent_gfb", "cell": "L0.F0", "t": 10 ** 3999, "flip": 1},
         "fault on L0.F0 at t=1" + "0" * 39 + "... is after run_until=600\n"),
    ],
    ids=[
        "unknown_cell", "bad_cell_id", "unknown_port", "after_run_until",
        "str_flip", "str_time", "wide_flip", "negative_flip", "wide_transient_stuck",
        "wide_spare_stuck", "list_port", "int_fault_entry", "unknown_kind",
        "negative_time", "flip_and_stuck", "register_without_port", "burst_without_period",
        "layer_of_3000_digits", "cell_id_of_5000_letters", "port_of_5000_letters",
        "kind_of_5000_letters", "fault_key_of_5000_letters", "str_flip_of_5000_digits",
        "flip_of_4000_digits", "time_of_4000_digits",
    ],
)
def test_fault_on_unknown_cell_is_one_line_error(
    tmp_path, capsys, faultfree_csv, fault, message
):
    # run and report --scenario refuse the same scenario with the same line
    import json

    from cellfab.scenarios import load_scenario, scenario_to_dict

    data = scenario_to_dict(load_scenario("edg_faultfree"))
    data["faults"] = [fault]
    scn = tmp_path / "ghost.scn"
    scn.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["run", str(scn), "--out", str(tmp_path), "--format", "csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert len(err.encode()) < 200  # a bounded excerpt of the scenario, not the whole token
    assert not (tmp_path / "ghost.csv").exists()
    assert main(["report", str(faultfree_csv), "--scenario", str(scn)]) == 2
    report_err = capsys.readouterr().err
    assert report_err.count("\n") == 1
    assert err.endswith(": " + report_err.removeprefix("error: "))


def _stimulus(data, name):
    return next(s for s in data["stimulus"] if s["name"] == name)


def _ccs_step_plant(data, **plant):
    """Replace ``data`` with the ccs_step scenario, its plant edited."""
    from cellfab.scenarios import load_scenario, scenario_to_dict

    data.clear()
    data.update(scenario_to_dict(load_scenario("ccs_step")))
    data["plant"].update(plant)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(timing={"cell_dly": 3}), "unknown timing key 'cell_dly'"),
        (lambda d: _stimulus(d, "estop").pop("value"), "missing stimulus key 'value'"),
        (lambda d: d.update(faults=[{"kind": "permanent_gfb", "t": 400, "flip": 1}]),
         "missing fault key 'cell'"),
        (lambda d: d.pop("application"), "missing scenario key 'application'"),
        (lambda d: d.pop("run_until"), "missing scenario key 'run_until'"),
        (lambda d: d.update(application="nope/missing.nl"),
         "netlist file not found: nope/missing.nl"),
        (lambda d: _stimulus(d, "estop").update(value=7),
         "stimulus estop=7 at t=0 does not fit bit"),
        (lambda d: d.update(plant={"input_name": "estop", "output_name": "speed"}),
         "plant input 'estop' is not an int16 input"),
        (lambda d: _ccs_step_plant(d, output_name="nope"), "unknown plant output 'nope'"),
        (lambda d: _ccs_step_plant(d, gain="1"), "plant gain '1' is not an int"),
        (lambda d: d.update(run_until="600"), "scenario run_until '600' is not an int"),
        (lambda d: d["timing"].update(cell_delay="35"), "timing cell_delay '35' is not an int"),
        (lambda d: d["stimulus"].append({"t": "5", "name": "estop", "value": 1}),
         "stimulus t '5' is not an int"),
        (lambda d: d.update(seed="x"), "scenario seed 'x' is not an int"),
        (lambda d: d.update(application=0), "scenario application 0 is not a string"),
        (lambda d: d.update(application=[]), "scenario application [] is not a string"),
        (lambda d: d.update(application=None), "scenario application None is not a string"),
        (lambda d: _stimulus(d, "estop").update(name=["estop"]),
         "stimulus name ['estop'] is not a string"),
        (lambda d: d["stimulus"].append(5), "stimulus entry 5 is not an object"),
        (lambda d: [d], "scenario is not a JSON object"),
        (lambda d: d.update(timing=[]), "timing [] is not an object"),
        (lambda d: d.update(plant=5), "plant 5 is not an object"),
        (lambda d: d.update(plant={}), "missing plant key 'input_name'"),
        (lambda d: _ccs_step_plant(d, input_name=["actual_speed"]),
         "plant input_name ['actual_speed'] is not a string"),
        (lambda d: _ccs_step_plant(d, output_name=["throttle"]),
         "plant output_name ['throttle'] is not a string"),
        (lambda d: d.update(stimulus={}), "scenario stimulus {} is not a list"),
        (lambda d: d.update(faults=5), "scenario faults 5 is not a list"),
        (lambda d: d["timing"].update(check_threshold=0), "check_threshold must be >= 1"),
        (lambda d: d.update(plnat={"input_name": "actual_speed"}),
         "unknown scenario key 'plnat'"),
        (lambda d: _stimulus(d, "estop").update(vlaue=1), "unknown stimulus key 'vlaue'"),
        (lambda d: d.update(faults=[
            {"kind": "permanent_gfb", "cell": "L0.F0", "t": 400, "flip": 1, "tme": 500}]),
         "unknown fault key 'tme'"),
        (lambda d: d["timing"].update(cell_delay=0), "all delays must be > 0"),
        (lambda d: d["timing"].update(stimulus_period=0), "stimulus_period must be > 0"),
        (lambda d: d.update(run_until=0), "run_until must be > 0"),
        (lambda d: d["stimulus"].append({"t": -5, "name": "estop", "value": 1}),
         "stimulus time must be >= 0"),
        (lambda d: d["stimulus"].append({"t": 0, "name": "ghost", "value": 1}),
         "unknown input 'ghost' in stimulus"),
        # a long token is quoted to its first 40 characters
        (lambda d: d["stimulus"].append({"t": 0, "name": "g" * 5000, "value": 1}),
         "unknown input '" + "g" * 39 + "... in stimulus\n"),
        (lambda d: d.update({"k" * 5000: 1}), "unknown scenario key '" + "k" * 39 + "...\n"),
        (lambda d: d.update(run_until="9" * 5000),
         "scenario run_until '" + "9" * 39 + "... is not an int\n"),
        (lambda d: _stimulus(d, "estop").update(value=10 ** 3999),
         "stimulus estop=1" + "0" * 39 + "... at t=0 does not fit bit\n"),
        (lambda d: d["stimulus"].append({"t": 10 ** 3999, "name": "estop", "value": 7}),
         "stimulus estop=7 at t=1" + "0" * 39 + "... does not fit bit\n"),
        (lambda d: d["stimulus"].append({"t": 10 ** 3999, "name": "estop", "value": 1}),
         "stimulus estop at t=1" + "0" * 39 + "... is after run_until=600\n"),
        (lambda d: d["stimulus"].append({"t": 601, "name": "estop", "value": 1}),
         "stimulus estop at t=601 is after run_until=600\n"),
        (lambda d: d.update(run_until=10 ** 300, faults=[
            {"kind": "permanent_gfb", "cell": "L0.F0", "t": 10 ** 300 + 1, "flip": 1}]),
         "fault on L0.F0 at t=1" + "0" * 39 + "... is after run_until=1" + "0" * 39 + "...\n"),
        (lambda d: d.update(plant={"input_name": "i" * 5000, "output_name": "speed"}),
         "plant input '" + "i" * 39 + "... is not an int16 input\n"),
        (lambda d: _ccs_step_plant(d, output_name="o" * 5000),
         "unknown plant output '" + "o" * 39 + "...\n"),
        (lambda d: d.update(faults=[
            {"kind": "permanent_gfb", "cell": "L" + "1" * 5000 + ".F0", "t": 400, "flip": 1}]),
         "layer " + "1" * 40 + "... of 5000 digits is out of range\n"),
    ],
    ids=[
        "unknown_timing_key",
        "missing_stimulus_value",
        "missing_fault_cell",
        "missing_application",
        "missing_run_until",
        "missing_netlist_file",
        "stimulus_outside_width",
        "plant_input_not_int16",
        "unknown_plant_output",
        "str_plant_gain",
        "str_run_until",
        "str_cell_delay",
        "str_stimulus_time",
        "str_seed",
        "int_application",
        "list_application",
        "null_application",
        "list_stimulus_name",
        "int_stimulus_entry",
        "top_level_array",
        "list_timing",
        "int_plant",
        "empty_plant",
        "list_plant_input",
        "list_plant_output",
        "object_stimulus",
        "int_faults",
        "zero_check_threshold",
        "unknown_scenario_key",
        "unknown_stimulus_key",
        "unknown_fault_key",
        "zero_cell_delay",
        "zero_stimulus_period",
        "zero_run_until",
        "negative_stimulus_time",
        "unknown_stimulus_input",
        "stimulus_name_of_5000_letters",
        "scenario_key_of_5000_letters",
        "str_run_until_of_5000_digits",
        "stimulus_value_of_4000_digits",
        "stimulus_time_of_4000_digits",
        "late_stimulus_time_of_4000_digits",
        "stimulus_after_run_until",
        "fault_after_run_until_of_301_digits",
        "plant_input_of_5000_letters",
        "plant_output_of_5000_letters",
        "fault_cell_layer_of_5000_digits",
    ],
)
def test_unknown_timing_key_is_one_line_error(tmp_path, capsys, edit, message):
    import json

    from cellfab.scenarios import load_scenario, scenario_to_dict

    data = scenario_to_dict(load_scenario("edg_faultfree"))
    replaced = edit(data)  # an edit that returns a list replaces the document
    scn = tmp_path / "typo.scn"
    scn.write_text(json.dumps(replaced if isinstance(replaced, list) else data))
    rc = main(["run", str(scn), "--out", str(tmp_path), "--format", "csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert len(err.encode()) < 200  # a bounded excerpt of the scenario, not the whole token


def _rows_reversed(text):
    """``text`` with its CSV rows in reverse time order; read so, a faulted
    trace's figures would come out wrong with no error."""
    lines = text.splitlines()
    first = lines.index("time_ns,signal,value,annotation") + 1
    return "\n".join(lines[:first] + lines[first:][::-1]) + "\n"


def _with_data_row(text, signal, value):
    """``text`` with one more data row, at the last row's time."""
    last_time = text.splitlines()[-1].split(",")[0]
    return text + f"{last_time},{signal},{value},data\n"


def _misfit_row_before_the_signal_tables(text):
    """``text`` with its ``# inputs:`` and ``# outputs:`` lines moved to the
    end and a first row, line 7, that does not fit its declared width."""
    lines = text.splitlines()
    tables = lines[5:7]
    rest = lines[:5] + lines[7:]
    first = rest.index("time_ns,signal,value,annotation") + 1
    return "\n".join(rest[:first] + ["0,in.estop,7,data"] + rest[first:] + tables) + "\n"


def _with_heal_row(text, signal):
    """``text`` with one more ``syndrome_action`` row, at the last row's time."""
    last_time = text.splitlines()[-1].split(",")[0]
    return text + f"{last_time},{signal},0,syndrome_action\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text + "0,in.a,x,data\n", "line {rows}: "),
        (lambda text: text.replace(text.splitlines()[2], "# timing: cell_dly=3"),
         "line 3: unknown timing key 'cell_dly'"),
        (lambda text: text.replace(text.splitlines()[5] + "\n", ""),
         "missing '# inputs:' header line"),
        (lambda text: text.replace(text.splitlines()[6] + "\n", ""),
         "missing '# outputs:' header line"),
        (lambda text: text.replace("EngineStart:bit", "EngineStart:int8"),
         "line 7: unknown width 'int8' of 'EngineStart'"),
        (lambda text: text.replace("# outputs:", "# outputs: ghost:bit"),
         "trace has no sample of output 'ghost'"),
        (_rows_reversed, "is before the previous row's"),
        (lambda text: _with_heal_row(text, "heal.L0.F0.explode"),
         "bad heal record signal 'heal.L0.F0.explode'"),
        (lambda text: _with_heal_row(text, "heal"), "bad heal record signal 'heal'"),
        (lambda text: text.replace("cell_delay=35", "cell_delay=0"),
         "line 3: all delays must be > 0"),
        (lambda text: text.replace(text.splitlines()[2] + "\n", ""),
         "missing '# timing:' header line"),
        (lambda text: text.replace(text.splitlines()[0] + "\n", ""),
         "missing '# scenario:' header line"),
        (lambda text: "# bogus: 1\n" + text, "line 1: unknown header key 'bogus'"),
        (lambda text: text.replace(text.splitlines()[3], text.splitlines()[3] + "\n# seed: 7"),
         "line 5: repeated header key 'seed'"),
        (lambda text: text.replace("# inputs: ", "# inputs: estop:bit "),
         "line 6: bad inputs entry 'estop:bit'"),
        (lambda text: text.replace("# inputs: ", "# inputs: :bit "),
         "line 6: bad inputs entry ':bit'"),
        (lambda text: text.replace("# outputs: ", "# outputs: EngineStart:bit "),
         "line 7: bad outputs entry 'EngineStart:bit'"),
        (lambda text: text.replace("# outputs: ", "# outputs: :bit "),
         "line 7: bad outputs entry ':bit'"),
        # a long token is quoted to its first 40 characters
        (lambda text: text + "0,in.a,1," + "z" * 5000 + "\n",
         "line {rows}: unknown annotation '" + "z" * 39 + "...\n"),
        (lambda text: "# " + "k" * 5000 + ": 1\n" + text,
         "line 1: unknown header key '" + "k" * 39 + "...\n"),
        (lambda text: text.replace("# inputs: ", "# inputs: :" + "b" * 5000 + " "),
         "line 6: bad inputs entry ':" + "b" * 38 + "...\n"),
        (lambda text: text.replace("EngineStart:bit", "EngineStart:" + "w" * 5000),
         "line 7: unknown width '" + "w" * 39 + "... of 'EngineStart'\n"),
        (lambda text: text.replace("# outputs:", "# outputs: " + "o" * 5000 + ":bit"),
         "trace has no sample of output '" + "o" * 39 + "...\n"),
        (lambda text: text.replace("time_ns,signal,value,annotation", "t" * 5000),
         "line 8: unexpected CSV header '" + "t" * 39 + "...\n"),
        (lambda text: text.replace("cellfab 0", "v" * 5000),
         "line 5: bad version '" + "v" * 39 + "...\n"),
        (lambda text: _with_heal_row(text, "heal." + "h" * 5000),
         "bad heal record signal 'heal." + "h" * 34 + "...\n"),
        # an integer is ASCII digits after an optional minus, never coerced
        (lambda text: text + "0,in.a,1_0,data\n", "line {rows}: value '1_0' is not an integer"),
        (lambda text: text + "0,in.a, 1,data\n", "line {rows}: value ' 1' is not an integer"),
        (lambda text: text + "0,in.a,+1,data\n", "line {rows}: value '+1' is not an integer"),
        (lambda text: text + "0,in.a,\u0661,data\n",
         "line {rows}: value '\u0661' is not an integer"),
        (lambda text: text + "0,in.a," + "x" * 5000 + ",data\n",
         "line {rows}: value '" + "x" * 39 + "... is not an integer\n"),
        (lambda text: text + "1_0,in.a,1,data\n", "line {rows}: time '1_0' is not an integer"),
        (lambda text: text.replace("cell_delay=35", "cell_delay=3_5"),
         "line 3: timing cell_delay '3_5' is not an integer"),
        (lambda text: text.replace("# seed: 1", "# seed: +1"),
         "line 4: seed '+1' is not an integer"),
        (lambda text: text + "0,in.a," + "1" * 5000 + ",data\n",
         "line {rows}: value " + "1" * 40 + "... of 5000 digits is out of range\n"),
        # a declared input's or output's value fits its width, wherever the
        # signal tables stand in the file
        (lambda text: _with_data_row(text, "EngineStart", 70000),
         "line {rows}: EngineStart=70000 does not fit bit\n"),
        (lambda text: _with_data_row(text, "in.estop", 7),
         "line {rows}: in.estop=7 does not fit bit\n"),
        (_misfit_row_before_the_signal_tables, "line 7: in.estop=7 does not fit bit\n"),
        # each timing part is one key=value, and no key comes twice
        (lambda text: text.replace("cell_delay=35", "cell_delay=35 cell_delay=70"),
         "line 3: repeated timing part 'cell_delay=70'\n"),
        (lambda text: text.replace("cell_delay=35", "cell_delay"),
         "line 3: timing part 'cell_delay' is not one key=value\n"),
        (lambda text: text.replace("cell_delay=35", "cell_delay=3=5"),
         "line 3: timing part 'cell_delay=3=5' is not one key=value\n"),
    ],
    ids=["bad_value", "unknown_timing_key", "no_inputs_line", "no_outputs_line",
         "unknown_width", "output_without_data", "rows_back_in_time",
         "unknown_heal_action", "bare_heal_signal", "zero_cell_delay",
         "no_timing_line", "no_scenario_line", "unknown_header_key", "repeated_header_key",
         "repeated_input", "unnamed_input", "repeated_output", "unnamed_output",
         "annotation_of_5000_letters", "header_key_of_5000_letters",
         "input_entry_of_5000_letters", "width_of_5000_letters", "output_of_5000_letters",
         "csv_header_of_5000_letters", "version_of_5000_letters",
         "heal_signal_of_5000_letters", "value_with_an_underscore", "padded_value",
         "value_with_a_plus", "arabic_indic_value", "value_of_5000_letters",
         "time_with_an_underscore", "timing_with_an_underscore", "seed_with_a_plus",
         "value_of_5000_digits", "bit_output_of_70000", "bit_input_of_7",
         "misfit_row_before_the_signal_tables", "repeated_timing_key", "bare_timing_key",
         "timing_part_of_two_equals"],
)
def test_report_malformed_csv_is_one_line_error(tmp_path, capsys, edit, message):
    assert main(["run", "edg_faultfree", "--out", str(tmp_path), "--format", "csv"]) == 0
    csv = tmp_path / "edg_faultfree.csv"
    text = edit(csv.read_text())
    csv.write_text(text)
    capsys.readouterr()
    assert main(["report", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message.format(rows=len(text.splitlines())) in err
    assert len(err.encode()) < 200  # a bounded excerpt of the trace, not the whole token


def test_endless_burst_is_one_line_error_on_run_and_report(tmp_path, capsys):
    # every transient of a burst must start by run_until; the check runs
    # before the burst is expanded, so a huge count costs nothing
    import json
    import time

    from cellfab.scenarios import load_scenario, scenario_to_dict

    assert main(["run", "edg_faultfree", "--out", str(tmp_path), "--format", "csv"]) == 0
    data = scenario_to_dict(load_scenario("edg_faultfree"))
    data["faults"] = [{"kind": "intermittent_burst", "cell": "L0.F0", "t": 100, "port": "N",
                       "replica": 0, "flip": 1, "period": 1000, "count": 10**9}]
    scn = tmp_path / "burst.scn"
    scn.write_text(json.dumps(data))
    capsys.readouterr()
    for argv in (["run", str(scn), "--out", str(tmp_path), "--format", "csv"],
                 ["report", str(tmp_path / "edg_faultfree.csv"), "--scenario", str(scn)]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "after run_until=600" in err


def _burst(count):
    return {"kind": "intermittent_burst", "cell": "L0.F0", "t": 0, "port": "N",
            "replica": 0, "flip": 1, "period": 1, "count": count}


@pytest.mark.parametrize("timing, run_until, faults, message", [
    ({"stimulus_period": 1}, 10**6, [],
     "a run of 1000001 clocks is over the limit of 1000000"),
    ({"stimulus_period": 10**6}, 2 * 10**6, [_burst(10**6 + 1)],
     "a burst on L0.F0 of 1000001 transients is over the limit of 1000000"),
])
def test_a_run_over_the_clock_limit_is_one_line_error_on_run_and_report(
    tmp_path, capsys, faultfree_csv, timing, run_until, faults, message
):
    # the limit is checked before the clocks or transients are built, so a
    # refused scenario allocates nothing
    import json
    import time

    from cellfab.scenarios import load_scenario, scenario_to_dict

    data = scenario_to_dict(load_scenario("edg_faultfree"))
    data["timing"].update(timing)
    data.update(run_until=run_until, faults=faults)
    scn = tmp_path / "long.scn"
    scn.write_text(json.dumps(data))
    for argv in (["run", str(scn), "--out", str(tmp_path), "--format", "csv"],
                 ["report", str(faultfree_csv), "--scenario", str(scn)]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


def test_a_run_at_the_clock_limit_is_accepted():
    # checked, not run: 10**6 clocks, and a burst of 10**6 transients
    from dataclasses import replace

    from cellfab.apps import resolve_application
    from cellfab.engine import MAX_CLOCKS, FaultSpec
    from cellfab.cell import CellId, Port
    from cellfab.scenarios import load_scenario

    assert MAX_CLOCKS == 10**6
    sc = load_scenario("edg_faultfree")
    burst = FaultSpec(kind="intermittent_burst", cell=CellId(0, 0, "F"), time=0,
                      port=Port.NORTH, replica=0, flip=1, period=1, count=10**6)
    replace(sc, run_until=10**6 - 1, timing=TimingParams(stimulus_period=1),
            faults=[burst]).validate(resolve_application(sc.application))


@pytest.mark.parametrize("name, kernel_runs", [("edg_faultfree", 1), ("edg_permanent_bt", 2)])
def test_run_simulates_golden_twin_only_for_faulted_scenarios(
    tmp_path, monkeypatch, name, kernel_runs
):
    # a fault-free scenario is its own golden twin
    from cellfab.engine import Engine

    calls = []
    engine_run = Engine.run

    def counting_run(self):
        calls.append(self.scenario.name)
        return engine_run(self)

    monkeypatch.setattr(Engine, "run", counting_run)
    assert main(["run", name, "--out", str(tmp_path), "--format", "csv"]) == 0
    assert len(calls) == kernel_runs


def test_faulted_run_compiles_once(tmp_path, monkeypatch):
    # the golden twin runs on the program the faulted run compiled; the
    # cache of bundled programs is cleared, so the run compiles from cold
    import cellfab.apps

    cellfab.apps._compile_bundled.cache_clear()
    calls = []
    compile_netlist = cellfab.apps.compile_netlist

    def counting_compile(netlist):
        calls.append(netlist.name)
        return compile_netlist(netlist)

    monkeypatch.setattr(cellfab.apps, "compile_netlist", counting_compile)
    assert main(["run", "edg_permanent_bt", "--out", str(tmp_path), "--format", "csv"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "row, message",
    [
        ("heal.L99.F7.deactivate,999", "syndrome on unknown cell L99.F7"),
        ("heal.L99.F7.deactivate,0", "syndrome on unknown cell L99.F7"),
        ("heal.L0.F1.deactivate,999", "syndrome on L0.F1 names unplaced function 999"),
    ],
    ids=["unknown_cell", "unknown_cell_placed_function", "unplaced_function"],
)
def test_report_scenario_refuses_a_heal_row_the_program_has_no_place_for(
    tmp_path, capsys, row, message
):
    assert main(["run", "edg_multifault4", "--out", str(tmp_path), "--format", "csv"]) == 0
    csv = tmp_path / "edg_multifault4.csv"
    text = csv.read_text()
    last_time = text.splitlines()[-1].split(",")[0]
    csv.write_text(text + f"{last_time},{row},syndrome_action\n")
    capsys.readouterr()
    assert main(["report", str(csv), "--scenario", "edg_multifault4"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    # without a scenario no program is compiled: only the row's shape is checked
    assert main(["report", str(csv)]) == 0
    assert "alarm degraded" in capsys.readouterr().out


def test_report_scenario_runs_the_twin_at_the_trace_timing(tmp_path, capsys):
    # the scenario file says cell_delay=35; the trace, and so its twin, 20
    argv = ["run", "edg_multifault4", "--out", str(tmp_path), "--format", "csv"]
    assert main(argv + ["--timing.cell_delay", "20"]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "edg_multifault4.csv"),
                 "--scenario", "edg_multifault4"]) == 0
    assert capsys.readouterr().out == (tmp_path / "edg_multifault4.metrics.txt").read_text()


@pytest.mark.parametrize("name", [f.name for f in fields(TimingParams)])
def test_every_timing_field_has_its_override_flag(tmp_path, capsys, name):
    flag = "--timing." + {"check_threshold": "threshold"}.get(name, name)
    value = getattr(TimingParams(), name) + 1
    argv = ["run", "edg_faultfree", "--out", str(tmp_path), "--format", "csv"]
    assert main(argv + [flag, str(value)]) == 0
    out = capsys.readouterr().out.splitlines()
    timing = next(line for line in out if line.startswith("timing "))
    assert f"{name}={value}" in timing.split()


@pytest.mark.parametrize("key", ["run_until", "seed"])
def test_scenario_number_of_over_4300_digits_is_one_line_error(
    tmp_path, capsys, faultfree_csv, key
):
    # json.dumps cannot write such a number, so it is written into the text
    import json
    import re

    from cellfab.scenarios import load_scenario, scenario_to_dict

    text = json.dumps(scenario_to_dict(load_scenario("edg_faultfree")))
    scn = tmp_path / "big.scn"
    scn.write_text(re.sub(f'"{key}": [0-9]+', f'"{key}": ' + "9" * 5000, text))
    capsys.readouterr()
    for argv in (["run", str(scn), "--out", str(tmp_path)],
                 ["report", str(faultfree_csv), "--scenario", str(scn)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith("number " + "9" * 40 + "... of 5000 digits is out of range\n")
        assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace('"run_until": 600', '"run_until": 600, "run_until": 300'),
         "repeated scenario key 'run_until'\n"),
        (lambda text: text.replace('"cell_delay": 35', '"cell_delay": 35, "cell_delay": 70'),
         "repeated scenario key 'cell_delay'\n"),
        (lambda text: text.replace('"t": 0', '"t": 0, "t": 300', 1),
         "repeated scenario key 't'\n"),
        (lambda text: text.replace("{", '{"' + "k" * 5000 + '": 1, "' + "k" * 5000 + '": 1, ', 1),
         "repeated scenario key '" + "k" * 39 + "...\n"),
    ],
    ids=["run_until", "timing_key", "stimulus_key", "key_of_5000_letters"],
)
def test_scenario_repeating_a_key_is_one_line_error(tmp_path, capsys, faultfree_csv, edit, message):
    # a repeated key would otherwise silently keep its last value
    import json

    from cellfab.scenarios import load_scenario, scenario_to_dict

    scn = tmp_path / "repeated.scn"
    scn.write_text(edit(json.dumps(scenario_to_dict(load_scenario("edg_faultfree")))))
    capsys.readouterr()
    for argv in (["run", str(scn), "--out", str(tmp_path)],
                 ["report", str(faultfree_csv), "--scenario", str(scn)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(message)
        assert len(err.encode()) < 200


_TIMING_FLAGS = ["--timing.cell_delay", "--timing.threshold", "--timing.reroute_delay",
                 "--timing.restore_delay", "--timing.stimulus_period"]


@pytest.mark.parametrize(
    "value, message",
    [("1_0", "'1_0' is not an integer"), ("+35", "'+35' is not an integer"),
     (" 35", "' 35' is not an integer"), ("\u0661\u0662", "'\u0661\u0662' is not an integer"),
     ("1" * 5000, "1" * 40 + "... of 5000 digits is out of range")],
    ids=["underscore", "plus", "padded", "arabic_indic", "5000_digits"],
)
@pytest.mark.parametrize("flag", _TIMING_FLAGS)
def test_a_timing_flag_takes_plain_decimal_digits_only(tmp_path, capsys, flag, value, message):
    # int() would read each of these but the last, and word that one in
    # thousands of bytes; the rule is cell.parse_int's, as for CSV and JSON
    with pytest.raises(SystemExit) as exc:
        main(["run", "edg_faultfree", "--out", str(tmp_path), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"cellfab run: error: argument {flag}: value {message}"]
    assert len(errors[0].encode()) < 200
    assert not (tmp_path / "edg_faultfree.csv").exists()
