"""Cell-level semantics: function block ops, voting, registers, mismatch streaks."""

import itertools
import random
from dataclasses import replace

import pytest

from hypothesis import assume, given, settings, strategies as st

from cellfab.cell import (
    INT16_MAX,
    INT16_MIN,
    INT16_ONLY_OPCODES,
    OPCODE_ARITY,
    OPCODE_FUNCTIONS,
    CellHealth,
    CellId,
    FunctionalCell,
    InputRegisterBank,
    Opcode,
    PORT_ORDER,
    StuckBehavior,
    WidthMode,
    fit,
    parse_int,
    vote,
    wrap16,
)
from cellfab.genetic import (
    CellConfig,
    InputSelector,
    SelectorKind,
    UNUSED,
    decode_genetic,
    encode_genetic,
)
from cellfab.engine import plant_step_raw
from cellfab.netlist import parse_netlist
from cellfab.oracle import NetlistOracle

from references import COMPOSED_FUNCTIONS, composed_plant_step, qmul

BIT = WidthMode.BIT
WORD = WidthMode.INT16


def ports(n, w, e=0, s=0):
    """Voted port values in N, W, E, S order."""
    return (n, w, e, s)


def gfb_step(op, wm, inputs, state):
    """One evaluation of the generic function block by a configured cell:
    (output, pipeline after) on port values ``inputs`` in N, W, E, S
    order, from pipeline ``state``; a DELAY gets one stage per element."""
    cell = FunctionalCell(CellId(0, 0, "F"))
    delay = len(state) if op is Opcode.DELAY else 0
    cell.configure(CellConfig(op, (UNUSED,) * 4, delay_cycles=delay, width_mode=wm))
    for port, value in enumerate(inputs):
        cell.registers.write(port, value)
    cell.pipeline = tuple(state)
    return cell.step()[0], cell.pipeline


class TestGfbEval:
    def test_and_conjunction(self):
        out, _ = gfb_step(Opcode.AND, BIT, ports(1, 1), ())
        assert out == 1
        assert gfb_step(Opcode.AND, BIT, ports(1, 0), ())[0] == 0

    def test_mux_selector_one_picks_east(self):
        out, _ = gfb_step(Opcode.MUX, WORD, ports(1, 5, 9), ())
        assert out == 9

    def test_mux_selector_zero_picks_west(self):
        out, _ = gfb_step(Opcode.MUX, WORD, ports(0, 5, 9), ())
        assert out == 5

    def test_sub_twos_complement(self):
        out, _ = gfb_step(Opcode.SUB, WORD, ports(3, 7), ())
        assert out == -4

    def test_add_wraps(self):
        out, _ = gfb_step(Opcode.ADD, WORD, ports(32767, 1), ())
        assert out == -32768

    def test_not_bit_and_word(self):
        assert gfb_step(Opcode.NOT, BIT, ports(1, 0), ())[0] == 0
        assert gfb_step(Opcode.NOT, WORD, ports(0, 0), ())[0] == -1

    def test_cmp_greater_equal(self):
        assert gfb_step(Opcode.CMP, WORD, ports(5, 5), ())[0] == 1
        assert gfb_step(Opcode.CMP, WORD, ports(4, 5), ())[0] == 0
        assert gfb_step(Opcode.CMP, WORD, ports(-1, -2), ())[0] == 1

    def test_mul_q88_truncates_toward_zero(self):
        # 0.5 * 3 = 1.5 -> 1; -3 * 0.5 -> -1 (not -2)
        assert gfb_step(Opcode.MUL, WORD, ports(3, 128), ())[0] == 1
        assert gfb_step(Opcode.MUL, WORD, ports(-3, 128), ())[0] == -1
        # 1.0 multiplier is exact
        assert gfb_step(Opcode.MUL, WORD, ports(1234, 256), ())[0] == 1234

    def test_nop_yields_zero(self):
        assert gfb_step(Opcode.NOP, WORD, ports(9, 9), ())[0] == 0

    def test_delay_pipeline(self):
        state = (0, 0)
        outs = []
        for x in (7, 8, 9, 10):
            out, state = gfb_step(Opcode.DELAY, WORD, ports(x, 0), state)
            outs.append(out)
        assert outs == [0, 7, 8, 9]

    def test_purity(self):
        args = (Opcode.DELAY, WORD, ports(3, 0), (1, 2))
        assert gfb_step(*args) == gfb_step(*args)
        assert gfb_step(*args)[1] == (2, 3)


class TestVote:
    def test_unanimous(self):
        assert vote(5, 5, 5) == (5, 0b000)

    def test_single_corruption_masked(self):
        assert vote(5, 9, 5) == (5, 0b010)

    def test_all_dissent_fallback(self):
        assert vote(1, 2, 3) == (1, 0b111)

    def test_masking_exhaustive_bits(self):
        for good in (0, 1):
            bad = 1 - good
            for pos in range(3):
                reps = [good] * 3
                reps[pos] = bad
                v, mask = vote(*reps)
                assert v == good
                assert mask == 1 << pos

    def test_masking_randomized_words(self):
        rng = random.Random(20240811)
        for _ in range(2000):
            good = rng.randint(-32768, 32767)
            bad = rng.randint(-32768, 32767)
            if bad == good:
                bad = wrap16(bad + 1)
            pos = rng.randrange(3)
            reps = [good] * 3
            reps[pos] = bad
            v, mask = vote(*reps)
            assert v == good
            assert mask == 1 << pos


N, W, E, S = range(4)  # register port indices, in PORT_ORDER


class TestRegisterBank:
    def test_write_sets_all_replicas(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(N, 7)
        assert bank.values == [7, 0, 0, 0]
        assert bank.overlay == {}  # the three replicas agree
        assert bank.voted() == ([7, 0, 0, 0], (0, 0, 0, 0))

    def test_write_repairs_transient(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(W, 3)
        bank.corrupt(W, 1, flip=0xFF, stuck=None)
        assert bank.overlay == {W: [3, 3 ^ 0xFF, 3]}
        assert bank.values[W] == 3
        bank.write(W, 3)
        assert bank.overlay == {}
        assert bank.voted() == ([0, 3, 0, 0], (0, 0, 0, 0))

    def test_only_overlay_ports_are_voted(self):
        bank = InputRegisterBank(WidthMode.INT16)
        for port, v in enumerate((1, 2, 3, 4)):
            bank.write(port, v)
        bank.corrupt(E, 2, flip=None, stuck=-9)
        assert list(bank.overlay) == [E]
        assert bank.voted() == ([1, 2, 3, 4], (0, 0, 0b100, 0))

    def test_single_dissent_masked_on_every_port_and_replica(self):
        for port in range(4):
            for replica in range(3):
                bank = InputRegisterBank(WidthMode.BIT)
                bank.write(port, 1)
                bank.corrupt(port, replica, flip=1, stuck=None)
                inputs, masks = bank.voted()
                assert inputs[port] == 1
                assert masks[port] == 1 << replica
                assert sum(m != 0 for m in masks) == 1

    def test_three_way_disagreement_falls_back_with_full_mask(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(N, 5)
        bank.corrupt(N, 1, flip=0xFF, stuck=None)
        bank.corrupt(N, 2, flip=0xF0, stuck=None)
        assert bank.overlay == {N: [5, 5 ^ 0xFF, 5 ^ 0xF0]}
        assert bank.voted() == ([5, 0, 0, 0], (0b111, 0, 0, 0))

    def test_undone_corruption_stays_in_overlay_with_no_dissent(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(S, 9)
        bank.corrupt(S, 0, flip=4, stuck=None)
        bank.corrupt(S, 0, flip=4, stuck=None)
        assert bank.overlay == {S: [9, 9, 9]}
        assert bank.voted() == ([0, 0, 0, 9], (0, 0, 0, 0))

    def test_corrupt_keeps_the_width(self):
        bank = InputRegisterBank(WidthMode.BIT)
        bank.corrupt(N, 0, flip=None, stuck=3)
        assert bank.overlay == {N: [1, 0, 0]}

    def test_unknown_port_rejected(self):
        bank = InputRegisterBank(WidthMode.BIT)
        with pytest.raises(IndexError):
            bank.write(4, 0)

    def test_equal_write_leaves_the_bank_unchanged(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(N, 7)
        bank.changed = False  # as after an evaluation
        bank.write(N, 7)
        assert bank.changed is False

    def test_differing_write_marks_the_bank_changed(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(W, 7)
        bank.changed = False
        bank.write(W, 8)
        assert bank.changed is True

    def test_dropping_an_overlay_port_marks_the_bank_changed(self):
        # the last output may come from a corrupted majority, so an equal
        # write that drops the port still needs an evaluation
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(E, 3)
        bank.corrupt(E, 1, flip=0xFF, stuck=None)
        bank.changed = False
        bank.write(W, 0)  # another port, equal value: the overlay stays
        assert bank.changed is False
        bank.write(E, 3)
        assert bank.overlay == {}
        assert bank.changed is True

    def test_corrupting_a_port_marks_the_bank_changed(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.changed = False
        bank.corrupt(S, 2, flip=1, stuck=None)
        assert bank.changed is True

    def test_configure_evaluates_on_the_next_step(self):
        cell = and_cell()
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        assert cell.step() == (1, False, (0, 0, 0, 0))
        assert cell.registers.changed is False
        registers = cell.registers
        cell.configure(cell.config)
        assert cell.registers.changed is True  # a new bank: evaluate
        cell.registers = registers  # as a restore keeps the routed data
        registers.values[N] = 0  # behind the flag's back: only an evaluation sees it
        assert cell.step() == (0, False, (0, 0, 0, 0))

    def test_a_step_keeps_the_flag_while_fault_state_lasts(self):
        # an overlay port or an injected fault makes every step an
        # evaluation: the flag is cleared only once both are gone
        cell = and_cell()
        cell.registers.corrupt(N, 0, flip=1, stuck=None)
        cell.step()
        assert cell.registers.changed is True
        cell.registers.write(N, 0)  # drops the overlay port
        cell.step()
        assert cell.registers.changed is False
        cell.injected_permanent = StuckBehavior(stuck=1)
        cell.registers.changed = True  # as the injection sets it
        cell.step()
        cell.step()
        assert cell.registers.changed is True

    def test_write_repair_randomized(self):
        rng = random.Random(7)
        bank = InputRegisterBank(WidthMode.INT16)
        for _ in range(500):
            port = rng.randrange(4)
            bank.corrupt(port, rng.randrange(3), flip=rng.randint(1, 0xFFFF), stuck=None)
            v = rng.randint(-32768, 32767)
            bank.write(port, v)
            assert bank.values[port] == v
            assert port not in bank.overlay


def and_cell(injected=None) -> FunctionalCell:
    cell = FunctionalCell(CellId(0, 0, "F"))
    cfg = CellConfig(
        opcode=Opcode.AND,
        selectors=(
            InputSelector(SelectorKind.PRIMARY_INPUT, 0),
            InputSelector(SelectorKind.PRIMARY_INPUT, 1),
            UNUSED,
            UNUSED,
        ),
        width_mode=WidthMode.BIT,
    )
    cell.configure(cfg)
    cell.injected_permanent = injected
    return cell


class TestSelfCheck:
    def test_clean_without_fault(self):
        cell = and_cell()
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        out, mismatch, masks = cell.step()
        assert (out, mismatch) == (1, False)
        assert masks == (0, 0, 0, 0)

    def test_stuck_at_zero_sensitized(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        out, mismatch, _ = cell.step()
        assert (out, mismatch) == (0, True)

    def test_stuck_at_zero_not_sensitized(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(N, 0)
        cell.registers.write(W, 1)
        out, mismatch, _ = cell.step()
        assert (out, mismatch) == (0, False)

    def test_sensitization_honesty_randomized(self):
        # mismatch reported exactly when the corruption changes the output
        rng = random.Random(99)
        for _ in range(200):
            n, w = rng.randint(0, 1), rng.randint(0, 1)
            stuck = rng.randint(0, 1)
            cell = and_cell(StuckBehavior(stuck=stuck))
            cell.registers.write(N, n)
            cell.registers.write(W, w)
            out, mismatch, _ = cell.step()
            expected = n & w
            assert out == stuck
            assert mismatch == (stuck != expected)

    @pytest.mark.parametrize(
        "injected, n, mismatch", [(None, 1, False), (StuckBehavior(stuck=1), 0, True)],
        ids=["fault_free", "stuck_at_1"],
    )
    def test_a_disabled_output_reads_0_and_the_check_still_runs(self, injected, n, mismatch):
        # enabled, each cell would output 1: AND(1, 1), or AND(0, 1) stuck at 1
        cell = and_cell()
        cell.configure(replace(cell.config, output_enable=False))
        cell.injected_permanent = injected
        cell.registers.write(N, n)
        cell.registers.write(W, 1)
        assert cell.step()[:2] == (0, mismatch)
        assert cell.mismatch_streak == int(mismatch)

    def test_masked_register_corruption_keeps_output(self):
        cell = and_cell()
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        cell.registers.corrupt(N, 2, flip=1, stuck=None)
        out, mismatch, masks = cell.step()
        assert (out, mismatch) == (1, False)
        assert masks == (0b100, 0, 0, 0)

    def test_three_way_disagreement_reported_as_full_mask(self):
        # the cell reports it; the kernel escalates it (see
        # test_three_way_disagreement_escalates_undetermined)
        cell = FunctionalCell(CellId(0, 0, "F"))
        cell.configure(
            CellConfig(
                opcode=Opcode.ADD,
                selectors=and_cell().config.selectors,
                width_mode=WidthMode.INT16,
            )
        )
        cell.registers.write(N, 5)
        cell.registers.write(W, 2)
        cell.registers.corrupt(N, 1, flip=1, stuck=None)
        cell.registers.corrupt(N, 2, flip=2, stuck=None)
        out, mismatch, masks = cell.step()  # replica 0 is the fallback
        assert (out, mismatch, masks) == (7, False, (0b111, 0, 0, 0))

    def test_clean_check_recorded_only_while_a_streak_is_live(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(N, 1)
        cell.registers.write(W, 0)
        assert cell.step()[1] is False  # not sensitized, no streak to end
        assert cell.mismatch_streak == 0
        cell.registers.write(W, 1)
        assert cell.step()[1] is True
        assert cell.mismatch_streak == 1
        cell.registers.write(W, 0)
        assert cell.step()[1] is False  # ends the live streak
        assert cell.mismatch_streak == 0
        cell.step()  # nothing is live any more: the streak stays at zero
        assert cell.mismatch_streak == 0

    def test_configure_rejects_constant_outside_width(self):
        cfg = CellConfig(
            opcode=Opcode.AND,
            selectors=(
                InputSelector(SelectorKind.PRIMARY_INPUT, 0),
                InputSelector(SelectorKind.CONSTANT, 0),
                UNUSED,
                UNUSED,
            ),
            immediate=5,
            width_mode=WidthMode.BIT,
        )
        with pytest.raises(ValueError, match="immediate 5 does not fit bit"):
            FunctionalCell(CellId(0, 0, "F")).configure(cfg)

    def test_step_on_deactivated_cell_rejected(self):
        cell = and_cell()
        cell.health = CellHealth.FAULTY_DEACTIVATED
        with pytest.raises(RuntimeError):
            cell.step()


class TestClassify:
    """The kernel deems a fault permanent once a cell's ``mismatch_streak``
    reaches ``check_threshold``; a clean check ends the streak."""

    def test_mismatch_then_clean_is_transient(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(N, 1)
        cell.registers.write(W, 0)
        cell.step()  # not sensitized
        assert cell.mismatch_streak == 0
        cell.registers.write(W, 1)
        cell.step()
        assert cell.mismatch_streak == 1
        cell.registers.write(W, 0)
        cell.step()  # a clean check ends the streak short of the threshold
        assert cell.mismatch_streak == 0

    def test_two_mismatches_is_permanent(self):
        cell = and_cell(StuckBehavior(flip=1))
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        cell.step()
        cell.step()
        assert cell.mismatch_streak == 2

    def test_single_mismatch_undetermined(self):
        cell = and_cell(StuckBehavior(flip=1))
        cell.step()
        assert cell.mismatch_streak == 1  # below the threshold of 2: keep watching

    def test_clean_history_unclassified(self):
        cell = and_cell()
        cell.step()
        cell.step()
        assert cell.mismatch_streak == 0

    def test_classification_soundness_k2(self):
        # the streak reaches 2 exactly when the last two checks mismatched
        rng = random.Random(7)
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(N, 1)
        checks = []
        for _ in range(200):
            cell.registers.write(W, rng.randint(0, 1))
            checks.append(cell.step()[1])
            assert (cell.mismatch_streak >= 2) == (checks[-2:] == [True, True])

    def test_single_transient_never_permanent(self):
        cell = and_cell()
        cell.registers.write(N, 1)
        cell.registers.write(W, 1)
        cell.registers.corrupt(N, 0, flip=1, stuck=None)
        for _ in range(5):
            cell.step()
        assert cell.mismatch_streak == 0

    def test_configure_resets_the_streak(self):
        cell = and_cell(StuckBehavior(flip=1))
        cell.step()
        cell.configure(cell.config)
        assert cell.mismatch_streak == 0


class TestHelpers:
    def test_wrap16(self):
        assert wrap16(32768) == -32768
        assert wrap16(-32769) == 32767
        assert wrap16(70000) == 4464

    def test_qmul_identity_and_sign(self):
        assert qmul(100, 256) == 100
        assert qmul(-100, 256) == -100
        assert qmul(5, 64) == 1  # 5 * 0.25 truncates toward zero
        assert qmul(-5, 64) == -1


# (width, opcode) pairs a netlist may configure: arithmetic is INT16 only
LEGAL_OPS = [
    (wm, op)
    for wm in WidthMode
    for op in Opcode
    if wm is WidthMode.INT16 or op._value_ not in INT16_ONLY_OPCODES
]


def payloads(wm: WidthMode):
    return st.integers(0, 1) if wm is WidthMode.BIT else st.integers(INT16_MIN, INT16_MAX)


# int16 operands at which a wrap, a sign or a Q8.8 shift turns
INT16_EDGES = [INT16_MIN, -1, 0, 1, 255, 256, INT16_MAX]


def operands(wm: WidthMode):
    """A port value of width ``wm``; an int16 one is often an edge."""
    if wm is WidthMode.BIT:
        return st.integers(0, 1)
    return st.one_of(st.sampled_from(INT16_EDGES), payloads(wm))


def test_every_opcode_function_is_its_composed_form_on_the_edges():
    assert OPCODE_FUNCTIONS.keys() == COMPOSED_FUNCTIONS.keys()
    for (op, wm), function in OPCODE_FUNCTIONS.items():
        values = [0, 1] if wm is WidthMode.BIT else INT16_EDGES
        for n, w, e in itertools.product(values, repeat=3):
            assert function(n, w, e) == COMPOSED_FUNCTIONS[op, wm](n, w, e), (op, wm, n, w, e)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_every_opcode_function_is_its_composed_form(data):
    """Each one-frame entry of ``OPCODE_FUNCTIONS`` against its form with
    ``wrap16`` and ``qmul`` in ``references``; every example checks
    every entry."""
    for (op, wm), function in OPCODE_FUNCTIONS.items():
        n, w, e = (data.draw(operands(wm)) for _ in range(3))
        assert function(n, w, e) == COMPOSED_FUNCTIONS[op, wm](n, w, e)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(*[operands(WidthMode.INT16)] * 5)
def test_plant_step_raw_is_its_composed_form(v, u, gain, drag, dt):
    # cellbench's ccs check replays the plant with plant_step_raw itself,
    # so only this reference can catch a fault in it
    assert plant_step_raw(v, u, gain, drag, dt) == composed_plant_step(v, u, gain, drag, dt)


@st.composite
def evaluations(draw):
    wm, op = draw(st.sampled_from(LEGAL_OPS))
    inputs = tuple(draw(payloads(wm)) for _ in PORT_ORDER)
    depth = draw(st.integers(1 if op is Opcode.DELAY else 0, 4))
    state = tuple(draw(payloads(wm)) for _ in range(depth))
    return wm, op, inputs, state, draw(st.integers(0, 2)), draw(payloads(wm))


@settings(deadline=None)
@given(evaluations())
def test_values_stay_in_their_width(case):
    wm, op, inputs, state, pos, bad = case
    out, new_state = gfb_step(op, wm, inputs, state)
    assert len(new_state) == len(state)
    for v in (out, *new_state):
        assert fit(wm, v) == v
    # any single corrupted replica of a port is outvoted and named
    good = inputs[0]
    reps = [good] * 3
    reps[pos] = bad
    assert vote(*reps) == (good, 0 if bad == good else 1 << pos)


@settings(deadline=None)
@given(evaluations())
def test_gfb_eval_equals_the_oracle_on_a_one_node_netlist(case):
    """The cell's opcode dispatch against the independent reference: one
    node reading one primary input per operand, in N, W, E order."""
    wm, op, inputs, state, _, _ = case
    assume(op is not Opcode.DELAY)  # its output is the pipeline's, not the inputs'
    names = [f"p{i}" for i in range(OPCODE_ARITY[op._value_])]
    width = "bit" if wm is WidthMode.BIT else "int16"
    text = "".join(f"input {name} : {width}\n" for name in names)
    text += f"node y = {op.name}({', '.join(names)})\noutput o = y\n"
    oracle = NetlistOracle(parse_netlist(text))
    expected = oracle.outputs(oracle.step(dict(zip(names, inputs))))["o"]
    assert gfb_step(op, wm, inputs, state) == (expected, state)


@st.composite
def configs(draw, op: Opcode, wm: WidthMode):
    """A ``CellConfig`` of ``op`` and ``wm``, a DELAY of 1 to 3 stages,
    any selectors and output enable, and an immediate of its width."""
    selectors = []
    for _ in PORT_ORDER:
        kind = draw(st.sampled_from(list(SelectorKind)))
        indexed = kind in (SelectorKind.PRIMARY_INPUT, SelectorKind.CELL_OUTPUT)
        selectors.append(InputSelector(kind, draw(st.integers(0, 63)) if indexed else 0))
    return CellConfig(
        opcode=op,
        selectors=tuple(selectors),
        immediate=draw(payloads(wm)),
        delay_cycles=draw(st.integers(1, 3)) if op is Opcode.DELAY else 0,
        output_enable=draw(st.booleans()),
        width_mode=wm,
    )


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.data())
def test_a_cell_from_its_genetic_code_evaluates_as_one_from_its_config(data):
    """A restored spare is configured from its decoded code: the evaluator
    it binds must give the outputs and pipeline of the configuration
    encoded.  Every example checks every opcode in every width."""
    for op in Opcode:
        for wm in WidthMode:
            config = data.draw(configs(op, wm))
            cells = [FunctionalCell(CellId(0, 0, "F")) for _ in range(2)]
            cells[0].configure(config)
            cells[1].configure(decode_genetic(encode_genetic(config)))
            # a constant-wired port holds the immediate; the others are written
            constant = SelectorKind.CONSTANT
            ports = [p for p, sel in enumerate(config.selectors) if sel.kind is not constant]
            for _ in range(data.draw(st.integers(1, 6))):
                values = [data.draw(payloads(wm)) for _ in ports]
                for cell in cells:
                    for port, value in zip(ports, values):
                        cell.registers.write(port, value)
                assert cells[0].step() == cells[1].step()
                assert cells[0].pipeline == cells[1].pipeline


def test_parse_int_reads_plain_decimal_text_of_at_most_4300_digits():
    # 4,300 digits is int()'s own limit, so no value int() reads is refused
    assert parse_int("-" + "9" * 4300, "v") == -int("9" * 4300)
    assert parse_int("007", "v") == 7
    for text in ("1_0", "+1", " 1", "1 ", "\u0661", "", "-", "0x1"):
        with pytest.raises(ValueError, match=r"^v '.*' is not an integer$"):
            parse_int(text, "v")
    with pytest.raises(ValueError, match=r"^v 1{40}\.\.\. of 4301 digits is out of range$"):
        parse_int("1" * 4301, "v")
    with pytest.raises(ValueError, match=r"^layer 1{40}\.\.\. of 5000 digits is out of range$"):
        CellId.parse("L" + "1" * 5000 + ".F0")
