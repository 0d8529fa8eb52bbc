"""scripts/calibrate_controller.py sweeps grids that hold the shipped defaults."""

from balisim.sim import params

from test_readme import load_script


def test_shipped_defaults_lie_on_the_calibration_grids():
    script = load_script("calibrate_controller")
    assert params.ETA0 in script.ETA0_GRID
    assert params.V_CREEP in script.V_CON_GRID
