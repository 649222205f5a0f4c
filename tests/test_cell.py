"""Cell-level semantics: function block ops, voting, registers, classification."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from cellfab.cell import (
    INT16_MAX,
    INT16_MIN,
    INT16_ONLY_OPCODES,
    CellHealth,
    CellId,
    CheckResult,
    FaultClass,
    FaultHistory,
    FunctionalCell,
    InputRegisterBank,
    Opcode,
    Port,
    PORT_ORDER,
    StuckBehavior,
    WidthMode,
    classify,
    fit,
    gfb_eval,
    qmul,
    vote,
    wrap16,
)
from cellfab.genetic import CellConfig, InputSelector, SelectorKind, UNUSED

BIT = WidthMode.BIT
WORD = WidthMode.INT16


def ports(n, w, e=0, s=0):
    """Voted port values in N, W, E, S order."""
    return (n, w, e, s)


class TestGfbEval:
    def test_and_conjunction(self):
        out, _ = gfb_eval(Opcode.AND, BIT, ports(1, 1), ())
        assert out == 1
        assert gfb_eval(Opcode.AND, BIT, ports(1, 0), ())[0] == 0

    def test_mux_selector_one_picks_east(self):
        out, _ = gfb_eval(Opcode.MUX, WORD, ports(1, 5, 9), ())
        assert out == 9

    def test_mux_selector_zero_picks_west(self):
        out, _ = gfb_eval(Opcode.MUX, WORD, ports(0, 5, 9), ())
        assert out == 5

    def test_sub_twos_complement(self):
        out, _ = gfb_eval(Opcode.SUB, WORD, ports(3, 7), ())
        assert out == -4

    def test_add_wraps(self):
        out, _ = gfb_eval(Opcode.ADD, WORD, ports(32767, 1), ())
        assert out == -32768

    def test_not_bit_and_word(self):
        assert gfb_eval(Opcode.NOT, BIT, ports(1, 0), ())[0] == 0
        assert gfb_eval(Opcode.NOT, WORD, ports(0, 0), ())[0] == -1

    def test_cmp_greater_equal(self):
        assert gfb_eval(Opcode.CMP, WORD, ports(5, 5), ())[0] == 1
        assert gfb_eval(Opcode.CMP, WORD, ports(4, 5), ())[0] == 0
        assert gfb_eval(Opcode.CMP, WORD, ports(-1, -2), ())[0] == 1

    def test_mul_q88_truncates_toward_zero(self):
        # 0.5 * 3 = 1.5 -> 1; -3 * 0.5 -> -1 (not -2)
        assert gfb_eval(Opcode.MUL, WORD, ports(3, 128), ())[0] == 1
        assert gfb_eval(Opcode.MUL, WORD, ports(-3, 128), ())[0] == -1
        # 1.0 multiplier is exact
        assert gfb_eval(Opcode.MUL, WORD, ports(1234, 256), ())[0] == 1234

    def test_nop_yields_zero(self):
        assert gfb_eval(Opcode.NOP, WORD, ports(9, 9), ())[0] == 0

    def test_delay_pipeline(self):
        state = (0, 0)
        outs = []
        for x in (7, 8, 9, 10):
            out, state = gfb_eval(Opcode.DELAY, WORD, ports(x, 0), state)
            outs.append(out)
        assert outs == [0, 7, 8, 9]

    def test_purity(self):
        args = (Opcode.DELAY, WORD, ports(3, 0), (1, 2))
        assert gfb_eval(*args) == gfb_eval(*args)
        assert gfb_eval(*args)[1] == (2, 3)


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


class TestRegisterBank:
    def test_write_sets_all_replicas(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(Port.NORTH, 7)
        assert bank.ports[Port.NORTH].replicas == [7, 7, 7]

    def test_write_repairs_transient(self):
        bank = InputRegisterBank(WidthMode.INT16)
        bank.write(Port.WEST, 3)
        bank.ports[Port.WEST].corrupt(1, flip=0xFF, stuck=None)
        assert vote(*bank.ports[Port.WEST].replicas) == (3, 0b010)
        bank.write(Port.WEST, 3)
        assert vote(*bank.ports[Port.WEST].replicas) == (3, 0b000)

    def test_unknown_port_rejected(self):
        bank = InputRegisterBank(WidthMode.BIT)
        with pytest.raises(KeyError):
            bank.write("Q", 0)

    def test_write_repair_randomized(self):
        rng = random.Random(7)
        bank = InputRegisterBank(WidthMode.INT16)
        for _ in range(500):
            port = rng.choice(PORT_ORDER)
            bank.ports[port].corrupt(rng.randrange(3), flip=rng.randint(1, 0xFFFF), stuck=None)
            v = rng.randint(-32768, 32767)
            bank.write(port, v)
            assert bank.ports[port].replicas == [v, v, v]


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
        cell.registers.write(Port.NORTH, 1)
        cell.registers.write(Port.WEST, 1)
        out, result, masks = cell.step()
        assert (out, result) == (1, CheckResult.CLEAN)
        assert masks == (0, 0, 0, 0)

    def test_stuck_at_zero_sensitized(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(Port.NORTH, 1)
        cell.registers.write(Port.WEST, 1)
        out, result, _ = cell.step()
        assert (out, result) == (0, CheckResult.MISMATCH)

    def test_stuck_at_zero_not_sensitized(self):
        cell = and_cell(StuckBehavior(stuck=0))
        cell.registers.write(Port.NORTH, 0)
        cell.registers.write(Port.WEST, 1)
        out, result, _ = cell.step()
        assert (out, result) == (0, CheckResult.CLEAN)

    def test_sensitization_honesty_randomized(self):
        # mismatch reported exactly when the corruption changes the output
        rng = random.Random(99)
        for _ in range(200):
            n, w = rng.randint(0, 1), rng.randint(0, 1)
            stuck = rng.randint(0, 1)
            cell = and_cell(StuckBehavior(stuck=stuck))
            cell.registers.write(Port.NORTH, n)
            cell.registers.write(Port.WEST, w)
            out, result, _ = cell.step()
            expected = n & w
            assert out == stuck
            assert (result is CheckResult.MISMATCH) == (stuck != expected)

    def test_masked_register_corruption_keeps_output(self):
        cell = and_cell()
        cell.registers.write(Port.NORTH, 1)
        cell.registers.write(Port.WEST, 1)
        cell.registers.ports[Port.NORTH].corrupt(2, flip=1, stuck=None)
        out, result, masks = cell.step()
        assert (out, result) == (1, CheckResult.CLEAN)
        assert masks == (0b100, 0, 0, 0)

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
    def record(self, history, results):
        for r in results:
            history.record(r)

    def test_mismatch_then_clean_is_transient(self):
        h = FaultHistory()
        self.record(h, [CheckResult.MISMATCH, CheckResult.CLEAN])
        assert classify(h, 2) is FaultClass.TRANSIENT
        assert h.mismatch_streak == 0

    def test_two_mismatches_is_permanent(self):
        h = FaultHistory()
        self.record(h, [CheckResult.MISMATCH, CheckResult.MISMATCH])
        assert classify(h, 2) is FaultClass.PERMANENT

    def test_single_mismatch_undetermined(self):
        h = FaultHistory()
        self.record(h, [CheckResult.MISMATCH])
        assert classify(h, 2) is FaultClass.UNDETERMINED

    def test_clean_history_unclassified(self):
        h = FaultHistory()
        self.record(h, [CheckResult.CLEAN, CheckResult.CLEAN])
        assert classify(h, 2) is None

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            classify(FaultHistory(), 0)

    def test_classification_soundness_k2(self):
        # an always-sensitized permanent becomes Permanent in exactly 2 steps
        cell = and_cell(StuckBehavior(flip=1))
        cell.registers.write(Port.NORTH, 1)
        cell.registers.write(Port.WEST, 1)
        cell.step()
        assert classify(cell.history, 2) is FaultClass.UNDETERMINED
        cell.step()
        assert classify(cell.history, 2) is FaultClass.PERMANENT

    def test_single_transient_never_permanent(self):
        cell = and_cell()
        cell.registers.write(Port.NORTH, 1)
        cell.registers.write(Port.WEST, 1)
        cell.registers.ports[Port.NORTH].corrupt(0, flip=1, stuck=None)
        for _ in range(5):
            cell.step()
        assert classify(cell.history, 2) is None


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
    if wm is WidthMode.INT16 or op not in INT16_ONLY_OPCODES
]


def payloads(wm: WidthMode):
    return st.integers(0, 1) if wm is WidthMode.BIT else st.integers(INT16_MIN, INT16_MAX)


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
    out, new_state = gfb_eval(op, wm, inputs, state)
    assert len(new_state) == len(state)
    for v in (out, *new_state):
        assert fit(wm, v) == v
    # any single corrupted replica of a port is outvoted and named
    good = inputs[0]
    reps = [good] * 3
    reps[pos] = bad
    assert vote(*reps) == (good, 0 if bad == good else 1 << pos)
