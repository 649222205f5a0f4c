"""Netlist parsing, validation diagnostics, and depth analysis."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.cell import Opcode, WidthMode
from cellfab.engine import Engine, Scenario
from cellfab.netlist import Netlist, NetlistError, NetNode, parse_netlist, validate_netlist
from cellfab.oracle import NetlistOracle
from cellfab.place import compile_netlist


def test_minimal_netlist():
    nl = parse_netlist("input a : bit\nnode g1 = NOT(a)\noutput y = g1\n")
    assert len(nl.nodes) == 1
    assert nl.outputs == {"y": "g1"}
    assert nl.widths["g1"] is WidthMode.BIT


def test_comments_and_blank_lines():
    nl = parse_netlist("# header\n\ninput a : bit  # trailing\nnode g = NOT(a)\noutput y = g\n")
    assert len(nl.nodes) == 1


def test_dangling_reference_reports_line():
    text = "input a : bit\nnode g1 = AND(a, q)\noutput y = g1\n"
    with pytest.raises(NetlistError, match="line 2.*'q'"):
        parse_netlist(text)


def test_combinational_cycle_detected():
    text = (
        "input a : bit\n"
        "node g1 = AND(g2, a)\n"
        "node g2 = OR(g1, a)\n"
        "output y = g1\n"
    )
    with pytest.raises(NetlistError, match="cycle"):
        parse_netlist(text)


def test_cycle_error_names_the_line_where_the_cycle_starts():
    # h reaches the cycle first but is not on it; the walk enters it at g2
    text = (
        "input a : bit\n"
        "node h = NOT(g2)\n"
        "node g1 = AND(g2, a)\n"
        "node g2 = OR(g1, a)\n"
        "output y = h\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    assert str(exc.value) == "line 4: combinational cycle through: g2 -> g1"


def test_cycle_error_lists_the_first_three_names():
    # a ring of five NOTs: the walk enters it at g0 and lists g0 to g2
    text = "input a : bit\n" + "".join(f"node g{i} = NOT(g{(i + 1) % 5})\n" for i in range(5))
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text + "output y = g0\n")
    assert str(exc.value) == "line 2: combinational cycle through: g0 -> g1 -> g2 -> ..."


def test_delay_breaks_cycle():
    text = (
        "input a : int16\n"
        "node acc = ADD(reg, a)\n"
        "node reg = DELAY(acc) delay=1\n"
        "output y = acc\n"
    )
    nl = parse_netlist(text)
    assert {n.name: n for n in nl.nodes}["reg"].delay_cycles == 1


def test_unknown_opcode():
    with pytest.raises(NetlistError, match="XOR"):
        parse_netlist("input a : bit\nnode g = XOR(a, a)\noutput y = g\n")


def test_arity_mismatch():
    with pytest.raises(NetlistError, match="NOT takes 1"):
        parse_netlist("input a : bit\nnode g = NOT(a, a)\noutput y = g\n")


def test_width_mismatch():
    text = "input a : bit\ninput b : int16\nnode g = MUX(a, b, b)\noutput y = g\n"
    with pytest.raises(NetlistError, match="width"):
        parse_netlist(text)


def test_arith_requires_int16():
    with pytest.raises(NetlistError, match="int16"):
        parse_netlist("input a : bit\nnode g = ADD(a, a)\noutput y = g\n")


def test_counter_loop_fed_by_constants_is_int16():
    # the loop s -> r -> s reads no input: its ADD makes it int16
    text = (
        "input a : int16\n"
        "node s = ADD(r, imm) imm=1\n"
        "node r = DELAY(s) delay=1\n"
        "node y = ADD(a, r)\n"
        "output count = s\n"
        "output o = y\n"
    )
    nl = parse_netlist(text)
    assert nl.widths == {name: WidthMode.INT16 for name in ("a", "s", "r", "y")}
    sc = Scenario(name="counter", application="counter", stimulus=[(0, "a", 10)], run_until=1500)
    trace = Engine(compile_netlist(nl), sc).run().trace
    samples = [(r.time, r.signal, r.value) for r in trace.output_records()]
    oracle = NetlistOracle(nl)
    expected = []
    for k in range(5):  # every output settles one cell delay after its clock
        for name, value in oracle.outputs(oracle.step({"a": 10})).items():
            expected.append((300 * k + 35, name, value))
    assert samples == expected
    assert [v for _, name, v in samples if name == "count"] == [1, 2, 3, 4, 5]


def test_delay_loop_without_an_int16_opcode_defaults_to_bit():
    nl = parse_netlist("node n = NOT(r)\nnode r = DELAY(n) delay=1\noutput y = n\n")
    assert nl.widths == {"n": WidthMode.BIT, "r": WidthMode.BIT}
    # an int16 reader of that loop meets a bit operand
    with pytest.raises(NetlistError, match="width modes differ"):
        parse_netlist(
            "input a : int16\nnode n = NOT(r)\nnode r = DELAY(n) delay=1\n"
            "node y = ADD(a, r)\noutput o = y\n"
        )


def test_delay_attr_rules():
    with pytest.raises(NetlistError, match="delay"):
        parse_netlist("input a : bit\nnode g = DELAY(a)\noutput y = g\n")
    with pytest.raises(NetlistError, match="delay"):
        parse_netlist("input a : bit\nnode g = NOT(a) delay=1\noutput y = g\n")


def test_imm_operand_and_width_check():
    nl = parse_netlist(
        "input a : int16\nnode g = ADD(a, imm) imm=41\noutput y = g\n"
    )
    assert nl.nodes[0].immediate == 41
    with pytest.raises(NetlistError, match="constant"):
        parse_netlist("input a : bit\nnode g = MUX(a, a, imm) imm=9\noutput y = g\n")
    # a bit-wide node's immediate must fit even when no port is wired to it
    with pytest.raises(NetlistError, match="constant"):
        parse_netlist("input a : bit\ninput b : bit\nnode x = AND(a, b) imm=5\noutput y = x\n")


def test_single_not_depth():
    nl = parse_netlist("input a : bit\nnode g = NOT(a)\noutput y = g\n")
    assert nl.critical_path == 1


def test_chain_of_seven_gates():
    lines = ["input a : bit", "node g0 = NOT(a)"]
    for i in range(1, 7):
        lines.append(f"node g{i} = NOT(g{i-1})")
    lines.append("output y = g6")
    nl = parse_netlist("\n".join(lines))
    assert nl.critical_path == 7


def test_delay_edges_break_depth():
    text = (
        "input a : int16\n"
        "node s = ADD(reg, a)\n"
        "node reg = DELAY(s) delay=1\n"
        "node t = ADD(s, s)\n"
        "output y = t\n"
    )
    nl = parse_netlist(text)
    assert nl.depth["s"] == 1  # reg contributes 0 as a register output
    assert nl.depth["t"] == 2
    program = compile_netlist(nl)
    reg = program.placement.function_index("reg")
    assert program.delays == [reg]  # a register captures on the clock, outside the wave
    assert [(level, i) for level, i, *_ in program.wave] == sorted(
        (nl.depth[name], program.placement.function_index(name)) for name in ("s", "t")
    )


def test_partition_pragma():
    text = (
        "input a : bit\n"
        "node g1 = NOT(a)\n"
        "node g2 = NOT(g1)\n"
        "output y = g2\n"
        "# partition 0: g2\n"
        "# partition 1: g1\n"
    )
    nl = parse_netlist(text)
    assert nl.partition == [["g2"], ["g1"]]


def test_partition_must_cover_all_nodes():
    text = (
        "input a : bit\n"
        "node g1 = NOT(a)\n"
        "node g2 = NOT(g1)\n"
        "output y = g2\n"
        "# partition 0: g1\n"
    )
    with pytest.raises(NetlistError, match="partition"):
        parse_netlist(text)


def test_duplicate_names_rejected():
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist("input a : bit\ninput a : bit\n")
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist("input a : bit\nnode a = NOT(a)\noutput y = a\n")
    # a second output of one name would otherwise silently rebind it
    text = "input a : bit\nnode g = NOT(a)\nnode h = NOT(g)\noutput y = g\noutput y = h\n"
    with pytest.raises(NetlistError, match=r"^line 5: duplicate output 'y'$"):
        parse_netlist(text)
    # two outputs of one node are two names
    assert parse_netlist(text.replace("output y = h", "output z = g")).outputs == {
        "y": "g", "z": "g",
    }


def test_output_must_reference_node():
    with pytest.raises(NetlistError, match="output"):
        parse_netlist("input a : bit\nnode g = NOT(a)\noutput y = nothere\n")


SPACE = st.text(" \t", max_size=3)


@st.composite
def imm_attributes(draw):
    """Whitespace-separated ``imm=`` attributes, values with leading zeros,
    and the value the last of them sets."""
    values = draw(st.lists(st.integers(-32768, 32767), min_size=1, max_size=3))
    attrs = [
        f"imm={'-' if v < 0 else ''}{'0' * draw(st.integers(0, 3))}{abs(v)}" for v in values
    ]
    gaps = [draw(SPACE)] + [draw(st.text(" \t", min_size=1, max_size=3)) for _ in attrs[1:]]
    return "".join(gap + attr for gap, attr in zip(gaps, attrs)) + draw(SPACE), values[-1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(SPACE, min_size=8, max_size=8), imm_attributes())
def test_node_line_loads_in_every_spacing(spaces, attributes):
    s = spaces
    attr_text, immediate = attributes
    line = (
        f"node {s[0]}g{s[1]}={s[2]}ADD{s[3]}({s[4]}a{s[5]},{s[6]}imm{s[7]}){attr_text}"
    )
    nl = parse_netlist(f"input a : int16\n{line}\noutput y = g\n")
    assert nl.nodes == [NetNode("g", Opcode.ADD, ("a", "imm"), immediate, 0, 2)]


@pytest.mark.parametrize(
    "attrs", ["imm=", "imm", "=3", "imm=+3", "imm=3)", "imm=3 !"],
)
def test_malformed_attribute_is_a_syntax_error(attrs):
    with pytest.raises(NetlistError, match="^line 2: syntax error: "):
        parse_netlist(f"input a : int16\nnode g = ADD(a, imm) {attrs}\noutput y = g\n")


@pytest.mark.parametrize("key", ["imm", "delay"])
def test_a_value_of_more_digits_than_any_in_range_is_refused_as_text(key):
    node = "ADD(a, imm)" if key == "imm" else "DELAY(a)"
    text = f"input a : int16\nnode g = {node} {key}=-000{'9' * 5000}\noutput y = g\n"
    with pytest.raises(NetlistError, match=f"^line 2: {key} value of 5000 digits is out of range$"):
        parse_netlist(text)
    # leading zeros are not digits of the value
    zeros = "0" * 5000
    nl = parse_netlist(text.replace(f"-000{'9' * 5000}", f"{zeros}7"))
    assert (nl.nodes[0].immediate, nl.nodes[0].delay_cycles) == ((7, 0) if key == "imm" else (0, 7))


@pytest.mark.parametrize("layer, index", [("0", 0), ("000", 0), ("0001", 1), ("0015", 15)])
def test_partition_layer_drops_leading_zeros(layer, index):
    nl = parse_netlist(f"input a : bit\nnode g = NOT(a)\noutput y = g\n# partition {layer}: g\n")
    assert nl.partition[index] == ["g"]


@pytest.mark.parametrize("layer", ["\u0661", "x", "-1", "1 2", ""])
def test_a_partition_layer_is_ascii_digits(layer):
    # int() reads the Arabic-Indic one as 1; a letter made the line a comment
    text = f"input a : bit\nnode h = NOT(a)\noutput y = h\n# partition {layer}: h\n"
    with pytest.raises(NetlistError, match=f"^line 4: partition layer {layer!r} is not ASCII digits$"):
        parse_netlist(text)


def test_a_long_run_of_zeros_in_a_pragma_parses_in_linear_time():
    # without a colon the line is a plain comment
    text = "input a : bit\nnode g = NOT(a)\noutput y = g\n# partition " + "0" * 20000 + " g\n"
    t0 = time.perf_counter()
    assert parse_netlist(text).partition == []
    assert time.perf_counter() - t0 < 1.0


def test_the_fabric_holds_64_nodes_and_64_inputs():
    inputs = "".join(f"input i{i} : bit\n" for i in range(64))
    nodes = "".join(f"node g{i} = NOT(i{i})\n" for i in range(64))
    nl = parse_netlist(inputs + nodes + "output y = g0\n")
    assert compile_netlist(nl).placement.layer_count == 16


def test_capacity_counts_the_layers_a_partition_names():
    # parse_netlist refuses a pragma layer past 15; a netlist built in code
    # can still name one, and validate_netlist counts it
    nl = Netlist(
        "far", inputs=[("a", WidthMode.BIT)], nodes=[NetNode("g", Opcode.NOT, ("a",))],
        outputs={"y": "g"}, partition=[[] for _ in range(16)] + [["g"]],
    )
    with pytest.raises(NetlistError, match="^netlist needs 17 layers, fabric holds 16$"):
        validate_netlist(nl)


def test_syntax_error_line_number():
    with pytest.raises(NetlistError, match="line 2"):
        parse_netlist("input a : bit\nwires everywhere\n")


def test_empty_netlist_is_valid():
    nl = parse_netlist("")
    assert nl.nodes == [] and nl.critical_path == 0
