"""Brake plant: dead time, first-order lag, clamping."""

import math
import random

import pytest

from balisim.sim import BrakePlant, TrainParams


def make_plant(**kw):
    return BrakePlant(TrainParams(**kw))


def test_train_params_are_immutable_and_checked_on_replace():
    par = TrainParams()
    with pytest.raises(AttributeError):
        par.dt = 0.02
    assert par._replace(dt=0.02).dt == 0.02
    with pytest.raises(ValueError, match="dt must be positive"):
        par._replace(dt=0.0)
    with pytest.raises(TypeError, match=r"^TrainParams\."):
        TrainParams(dT=0.02)


def test_delay_line_length():
    plant = make_plant(Td=0.6, dt=0.01)
    assert len(plant._delay) == 60


def test_command_has_no_effect_before_dead_time():
    plant = make_plant()
    steps_delay = round(0.6 / 0.01)
    for _ in range(steps_delay):
        plant.step(-1.0)
        assert plant.alpha == 0.0
        assert plant.v == 10.0
    plant.step(-1.0)
    assert plant.alpha < 0.0


def test_step_response_matches_first_order_lag():
    # alpha at t = Td + Tp should match c * (1 - e^(-(t-Td)/Tp)) within 2%
    par = TrainParams()
    plant = BrakePlant(par)
    c = -0.8
    t = 0.0
    while t < par.Td + par.Tp - 1e-9:
        plant.step(c)
        t += par.dt
    expected = c * (1.0 - math.exp(-(t - par.Td) / par.Tp))
    assert abs(plant.alpha - expected) / abs(expected) < 0.02


def test_steady_state_reaches_command():
    par = TrainParams(v0=1000.0)  # keep it moving throughout
    plant = BrakePlant(par)
    c = -0.7
    for _ in range(int((par.Td + 8 * par.Tp) / par.dt)):
        plant.step(c)
    assert abs(plant.alpha - c) / abs(c) < 0.01


def test_actual_acceleration_clamped_to_physical_range():
    plant = make_plant()
    for _ in range(500):
        plant.step(-50.0)
        assert -1.0 <= plant.alpha <= 0.0
    assert plant.alpha == -1.0  # saturated at the physical limit


def test_no_propulsion():
    plant = make_plant(v0=5.0)
    for _ in range(500):
        plant.step(+5.0)
        assert plant.alpha <= 0.0
        assert plant.v <= 5.0


def test_velocity_clamps_at_zero_and_stays():
    plant = make_plant(v0=0.5)
    for _ in range(5000):
        plant.step(-1.0)
        if plant.stopped:
            break
    assert plant.stopped
    p_at_stop = plant.p
    for _ in range(100):
        plant.step(-1.0)
    assert plant.v == 0.0
    assert plant.p == p_at_stop


def test_zero_dead_time_and_zero_lag_pass_through():
    plant = make_plant(Td=0.0, Tp=0.0)
    plant.step(-0.3)
    assert plant.alpha == -0.3


def test_position_integrates_velocity():
    par = TrainParams()
    plant = BrakePlant(par)
    p, v = plant.p, plant.v
    for _ in range(300):
        plant.step(-0.5)
        assert abs(plant.v - (v + plant.alpha * par.dt)) < 1e-12
        assert abs(plant.p - (p + plant.v * par.dt)) < 1e-12
        p, v = plant.p, plant.v


def min_max_step(plant, alpha_cmd):
    """BrakePlant.step with the clamps written as min/max (oracle)."""
    par = plant.params
    if plant._delay:
        plant._delay.append(alpha_cmd)
        delayed = plant._delay.popleft()
    else:
        delayed = alpha_cmd
    if par.Tp > 0:
        plant.alpha += par.dt * (delayed - plant.alpha) / par.Tp
    else:
        plant.alpha = delayed
    plant.alpha = min(0.0, max(par.alpha_max, plant.alpha))
    plant.v = max(0.0, plant.v + plant.alpha * par.dt)
    plant.p += plant.v * par.dt


@pytest.mark.parametrize("kw", [
    {},
    {"Td": 0.0},                   # empty delay line
    {"Tp": 0.0},                   # no lag: the command passes through
    {"Td": 0.0, "Tp": 0.0},
    {"Td": 0.0, "Tp": 0.0, "v0": 0.0},
    {"Td": 0.0, "Tp": 0.0, "v0": -0.0},
    {"v0": 0.3, "alpha_max": -0.5},
])
def test_step_matches_min_max_form(kw):
    par = TrainParams(**kw)
    plant, oracle = BrakePlant(par), BrakePlant(par)
    rng = random.Random(606)
    # First in line: a subnormal command takes a resting v0 = -0.0 to
    # v + alpha * dt = -0.0, and -0.0 itself is the lag's result at Tp = 0.
    edge = [-5e-324, -0.0, 0.0, 5e-324, par.alpha_max,
            par.alpha_max - 1e-12, -1e-300, 1.0]
    cmds = edge + [rng.choice(edge) if rng.random() < 0.3
                   else rng.uniform(-2.0, 1.0) for _ in range(3000)]
    for cmd in cmds:
        plant.step(cmd)
        min_max_step(oracle, cmd)
        # repr tells -0.0 from 0.0, which the %.6f CSV columns would show
        assert repr((plant.p, plant.v, plant.alpha)) \
            == repr((oracle.p, oracle.v, oracle.alpha))
