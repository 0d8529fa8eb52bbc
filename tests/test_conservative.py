"""Conservative fallback controller: dual PID and max-brake switching."""

import pytest

from balisim.sim import BrakePlant, ConservativeController, MODE_MAX_BRAKE, \
    MODE_PID1, MODE_PID2, TrainParams

ALPHA_MAX = TrainParams().alpha_max


def test_starts_in_pid1():
    assert ConservativeController(alpha_max=ALPHA_MAX).mode == MODE_PID1


def test_switches_to_pid2_at_creep_speed():
    con = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    con.step(1.0, False, 0.01)
    assert con.mode == MODE_PID1
    con.step(0.4, False, 0.01)
    assert con.mode == MODE_PID2


def test_zero_error_in_fresh_pid2_commands_zero():
    con = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    # first crossing switches mode and resets the PID internals
    assert con.step(0.4, False, 0.01) == 0.0


def test_no_switch_back_to_pid1():
    con = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    con.step(0.4, False, 0.01)
    con.step(2.0, False, 0.01)  # speed above v_con again
    assert con.mode == MODE_PID2


def test_marker_forces_max_brake():
    con = ConservativeController(alpha_max=ALPHA_MAX)
    assert con.step(5.0, True, 0.01) == ALPHA_MAX
    assert con.mode == MODE_MAX_BRAKE
    # one-way: stays in max brake even if the flag were dropped
    assert con.step(0.1, False, 0.01) == ALPHA_MAX
    assert con.mode == MODE_MAX_BRAKE


def test_output_clamped():
    con = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    assert con.step(100.0, False, 0.01) == ALPHA_MAX  # huge positive error
    con2 = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    con2.step(0.4, False, 0.01)
    assert con2.step(0.0, False, 0.01) == 0.0  # negative error: no propulsion


def test_commands_always_in_range():
    con = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    for v in (10.0, 5.0, 1.0, 0.5, 0.39, 0.2, 0.0):
        for marker in (False, True):
            assert ALPHA_MAX <= con.step(v, marker, 0.01) <= 0.0


def time_to_creep(con):
    par = TrainParams()
    plant = BrakePlant(par)
    for step in range(100_000):
        plant.step(con.step(plant.v, False, par.dt))
        if plant.v <= con.v_con:
            return step * par.dt
    raise AssertionError("never reached creep speed")


def test_pid1_reaches_creep_speed_faster_than_pid2_alone():
    # A controller that has once seen creep speed runs PID2 from then on.
    pid2 = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    pid2.step(0.4, False, 0.01)
    assert pid2.mode == MODE_PID2
    pid1 = ConservativeController(v_con=0.4, alpha_max=ALPHA_MAX)
    assert time_to_creep(pid1) < time_to_creep(pid2)


def test_rejects_nonpositive_v_con():
    with pytest.raises(ValueError):
        ConservativeController(v_con=0.0, alpha_max=ALPHA_MAX)
