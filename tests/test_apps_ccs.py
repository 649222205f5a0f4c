"""Cruise control: cell inventory, mode semantics, PI and plant references."""

from collections import Counter
from fractions import Fraction

import pytest

from cellfab.apps import resolve_netlist
from cellfab.engine import plant_step_raw
from cellfab.place import place
from cellfab.scenarios import load_scenario
from cellfab.sim import run_raw

from helpers import plant_speeds
from references import CCS_CELL_OPCODES, ModeCondition, PiParams, ccs_mode, pi_reference


# ---- structure -----------------------------------------------------------


def test_cell_opcode_assignment_matches_contract():
    nl = resolve_netlist("ccs")
    got = {n.name: n.opcode.name for n in nl.nodes}
    assert got == CCS_CELL_OPCODES


def test_opcode_multiset():
    counts = Counter(op for op in CCS_CELL_OPCODES.values())
    assert counts == {
        "ADD": 4, "SUB": 2, "MUL": 3, "MUX": 3, "DELAY": 2,
        "NOT": 1, "OR": 1, "CMP": 1,
    }


def test_seventeen_cells_five_layers():
    nl = resolve_netlist("ccs")
    assert len(nl.nodes) == 17
    assert place(nl).layer_count == 5


def test_io_signature():
    nl = resolve_netlist("ccs")
    assert len(nl.inputs) == 6
    assert set(nl.outputs) == {"throttle", "active"}


# ---- mode semantics --------------------------------------------------------


def test_mode_set_adopts_actual():
    assert ccs_mode(ModeCondition.SET, 0, 55) == 55


def test_mode_increment():
    assert ccs_mode(ModeCondition.INCREMENT, 55, 0) == 56


def test_mode_decrement():
    assert ccs_mode(ModeCondition.DECREMENT, 55, 0) == 54


def test_mode_cancel_brake_zeroes():
    assert ccs_mode(ModeCondition.CANCEL_BRAKE, 80, 55) == 0


def test_mode_total_and_wraps():
    assert ccs_mode(ModeCondition.INCREMENT, 32767, 0) == -32768
    assert ccs_mode(ModeCondition.DECREMENT, -32768, 0) == 32767
    for cond in ModeCondition:
        for target in (-32768, -1, 0, 1, 32767):
            assert -32768 <= ccs_mode(cond, target, 123) <= 32767


def test_mode_rows_exercised_in_fabric():
    # drive the fabric through set / inc / dec / cancel and watch the register
    import dataclasses

    sc = load_scenario("ccs_step")
    stim = [(0, n, 0) for n in ("set_btn", "inc_btn", "dec_btn", "cancel_btn", "brake", "actual_speed")]
    stim += [
        (1000, "actual_speed", 44), (1000, "set_btn", 1),   # set: target <- 44
        (2000, "set_btn", 0), (2000, "inc_btn", 1),         # +1
        (3000, "inc_btn", 0), (3000, "dec_btn", 1),         # -1 twice
        (5000, "dec_btn", 0), (5000, "brake", 1),           # cancel
    ]
    sc = dataclasses.replace(sc, stimulus=stim, plant=None, run_until=7000, name="modes")
    res = run_raw(sc)
    reg = {r.time // 1000: r.value for r in res.trace.records if r.signal == "active"}
    assert reg[2] == 44  # captured at the next clock after set
    assert reg[3] == 45
    assert reg[4] == 44
    assert reg[5] == 43
    assert reg[6] == 0


# ---- PI reference ----------------------------------------------------------


def test_pi_zero_errors_zero_output():
    assert pi_reference(PiParams(), [0] * 8) == [0] * 8


def test_pi_pure_proportional():
    assert pi_reference(PiParams(kp_q88=256, ki_q88=0), [5]) == [5]


def test_pi_frozen_example():
    # Kp=0.5, Ki=0.25, e=[4,4]: p=2; integrator 1 then 2 -> [3, 4]
    assert pi_reference(PiParams(), [4, 4]) == [3, 4]


def test_pi_against_rational_oracle():
    # vectors whose products are integral and keep the command unclamped,
    # so the plain rational formula is the exact expected value
    params = PiParams()
    errors = [4, 8, -4, 12, 0, -4, 16, 4]
    kp, ki = Fraction(params.kp_q88, 256), Fraction(params.ki_q88, 256)
    acc = Fraction(0)
    expect = []
    for e in errors:
        acc += ki * e
        u = kp * e + acc
        assert u.denominator == 1
        assert params.u_min <= u <= params.u_max
        expect.append(int(u))
    assert pi_reference(params, errors) == expect


def test_pi_no_windup_after_saturation():
    errors = [40] * 10 + [0, 0]
    out = pi_reference(PiParams(), errors)
    assert max(out) == 100
    assert out[10] < 100  # desaturates immediately: nothing wound up
    assert out[10] == out[11] >= 0


def test_pi_low_clamp():
    out = pi_reference(PiParams(), [-40] * 6)
    assert min(out) == 0


def test_pi_requires_nonempty():
    with pytest.raises(ValueError):
        pi_reference(PiParams(), [])


def test_pi_params_validation():
    with pytest.raises(ValueError):
        pi_reference(PiParams(u_min=5, u_max=1), [1])


# ---- plant -----------------------------------------------------------------


def test_plant_no_force_holds_speed():
    assert plant_step_raw(37, 0, 128, 0, 256) == 37


def test_plant_equilibrium_fixed_point():
    # gain 0.5, drag 0.25: u* = v/2
    assert plant_step_raw(60, 30, 128, 64, 256) == 60


def test_plant_against_rational_oracle():
    g, d, dt = (Fraction(x, 256) for x in (128, 64, 256))

    def trunc(x: Fraction) -> int:
        return int(x)  # Fraction.__int__ truncates toward zero

    v = 0
    u = 20
    sim, ref = [], []
    for _ in range(30):
        v = plant_step_raw(v, u, 128, 64, 256)
        sim.append(v)
    v = Fraction(0)
    vi = 0
    for _ in range(30):
        force = trunc(g * u) - trunc(d * vi)
        vi = vi + trunc(dt * Fraction(force))
        ref.append(vi)
    assert sim == ref


def test_plant_step_response_frozen():
    v = 0
    curve = []
    for _ in range(10):
        v = plant_step_raw(v, 20, 128, 64, 256)
        curve.append(v)
    # frozen from the rational oracle above
    assert curve == [10, 18, 24, 28, 31, 34, 36, 37, 38, 39]


# ---- closed loop -----------------------------------------------------------


@pytest.fixture(scope="module")
def ccs_run():
    return run_raw(load_scenario("ccs_step"))


def test_closed_loop_converges_to_set_speed(ccs_run):
    speed = dict(plant_speeds(ccs_run.trace, ccs_run.scenario.plant))
    target = {r.time // 1000: r.value for r in ccs_run.trace.records
              if r.signal == "active" and r.annotation == "data"}
    set_period = 170
    deadline = set_period + 200
    devs = {k: abs(target[k] - speed[k * 1000]) for k in range(set_period + 2, 300)}
    assert all(d <= 2 for k, d in devs.items() if k >= deadline)
    first_ok = min(k for k in devs if all(devs[j] <= 2 for j in devs if j >= k))
    assert first_ok <= deadline


def test_set_latches_speed_sixty(ccs_run):
    target = {r.time // 1000: r.value for r in ccs_run.trace.records
              if r.signal == "active" and r.annotation == "data"}
    assert target[172] == 60


def test_actuator_command_stays_in_linear_range(ccs_run):
    # guarantees the fabric's single-sided clamp matches the reference
    u = [r.value for r in ccs_run.trace.records
         if r.signal == "throttle" and r.annotation == "data"]
    assert 0 <= min(u) and max(u) <= 100
