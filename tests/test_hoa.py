"""Online braking controller: per-balise command updates and eta rule."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from balisim.sim import DegenerateReference, FULL_BRAKE, HoaController, \
    IGNORE, TrainParams, expected_decel, realized_decel

ALPHA_MAX = TrainParams().alpha_max


def test_expected_decel_examples():
    assert expected_decel(10.0, -100.0) == -0.5
    assert expected_decel(10.0, -1.0) == -50.0  # saturation happens downstream
    assert expected_decel(0.0, -4.0) == 0.0


def test_expected_decel_rejects_stop_point():
    with pytest.raises(DegenerateReference):
        expected_decel(5.0, 0.0)


def test_realized_decel_examples():
    assert realized_decel(10.0, 8.0, -100.0, -64.0) == -0.5
    assert realized_decel(5.0, 5.0, -16.0, -4.0) == 0.0
    with pytest.raises(ZeroDivisionError):
        realized_decel(10.0, 8.0, -100.0, -100.0)


def test_first_balise_has_no_correction():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0)
    assert hoa.on_balise(10.0, -100.0) == -0.5
    assert hoa.eta == 1.0


def test_second_balise_applies_correction():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0)
    hoa.on_balise(10.0, -100.0)
    cmd = hoa.on_balise(8.0, -64.0)
    # alpha_r = (64-100)/72 = -0.5 = previous command: zero mismatch
    assert cmd == expected_decel(8.0, -64.0)
    assert hoa.eta == 1.05  # |mismatch| = 0 <= 0.05 grows eta


def test_eta_shrinks_on_large_mismatch():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0)
    hoa.on_balise(10.0, -100.0)
    # v=7: alpha_r = (49-100)/72 ~ -0.708, mismatch ~ -0.208
    hoa.on_balise(7.0, -64.0)
    assert hoa.eta == 0.95


def test_eta_grows_on_small_mismatch():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=0.9)
    hoa.on_balise(10.0, -100.0)
    # v=8.2: alpha_r = (67.24-100)/72 ~ -0.455, |mismatch| ~ 0.045 <= 0.05
    hoa.on_balise(8.2, -64.0)
    assert hoa.eta == pytest.approx(0.9 * 1.05)


def test_correction_uses_eta_before_update():
    eta0 = 0.8
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=eta0)
    hoa.on_balise(10.0, -100.0)
    v = 7.0
    alpha_r = realized_decel(10.0, v, -100.0, -64.0)
    expected_cmd = expected_decel(v, -64.0) - eta0 * (alpha_r - (-0.5))
    assert hoa.on_balise(v, -64.0) == pytest.approx(expected_cmd)


def test_command_is_raw_and_unsaturated():
    # the early-stop attack: loc' = -1 yields -50; the plant, not the
    # controller, enforces the physical braking limit
    hoa = HoaController(alpha_max=ALPHA_MAX)
    assert hoa.on_balise(10.0, -1.0) == -50.0


def test_a_command_past_the_float_range_raises():
    # Each correction scales the mismatch by eta: at eta0 1e300 the second
    # report's command is 2e299 and the third's is inf.
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1e300)
    hoa.on_balise(10.0, -100.0)
    hoa.on_balise(7.0, -64.0)
    with pytest.raises(ValueError, match="float range"):
        hoa.on_balise(6.0, -36.0)


def test_dbz_full_brake():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0, dbz_strategy=FULL_BRAKE)
    hoa.on_balise(10.0, -100.0)
    cmd = hoa.on_balise(8.66, -100.0)  # cloned report, D = 0
    assert cmd == ALPHA_MAX
    assert hoa.eta == 1.0  # eta untouched by the degenerate segment


def test_dbz_ignore_keeps_command():
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0, dbz_strategy=IGNORE)
    hoa.on_balise(10.0, -100.0)
    cmd = hoa.on_balise(8.66, -100.0)
    assert cmd == -0.5
    assert hoa.eta == 1.0


def test_dbz_updates_reference_point():
    # after the degenerate report, the next segment is measured from it
    for strategy in (FULL_BRAKE, IGNORE):
        hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0,
                            dbz_strategy=strategy)
        hoa.on_balise(10.0, -100.0)
        prev_cmd = hoa.on_balise(8.0, -100.0)
        v = 6.0
        alpha_r = realized_decel(8.0, v, -100.0, -36.0)
        expected_cmd = expected_decel(v, -36.0) - 1.0 * (alpha_r - prev_cmd)
        assert hoa.on_balise(v, -36.0) == pytest.approx(expected_cmd)


def test_constructor_validation():
    with pytest.raises(ValueError):
        HoaController(alpha_max=ALPHA_MAX, eta0=0.0)
    with pytest.raises(ValueError):
        HoaController(alpha_max=ALPHA_MAX, dbz_strategy="panic")


@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=15.0),
                          st.floats(min_value=-200.0, max_value=-0.5)),
                min_size=1, max_size=20))
def test_eta_stays_positive(reports):
    # degenerate segments are absorbed by the dbz strategy, so the only
    # eta updates are the multiplicative 0.95/1.05 factors
    hoa = HoaController(alpha_max=ALPHA_MAX, eta0=1.0)
    for v, loc in reports:
        hoa.on_balise(v, loc)
        assert hoa.eta > 0.0
