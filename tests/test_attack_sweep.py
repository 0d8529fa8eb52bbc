"""The evaluation grids' outcomes, frozen per cell.

The sweep's cells are a telegram mode, an odometry start and an attack
type, and so are those of the in-bound sweep; the ablation's are a
controller, a telegram mode and an attack type, at the true start.  A
change that moves a count changes what a controller withstands; README's
sweep, in-bound and ablation tables state the same counts
(tests/test_readme.py).  The calibration grids' cells are a value of a
controller constant and a bundled scenario, one run each; README's
calibration tables state their stop errors.  So do the time-step grid's,
a bundled scenario at a time step, and README's time-step table.
"""

import pytest

import attack_sweep
from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, CONTROLLER_HOA, \
    CONTROLLER_RESILIENT, ScenarioConfig, Tamper, Unavailable, params, \
    run_scenario

RUNS = {"tamper": 25, "clone": 30, "unavailable": 6, "none": 1}

# (mode, start, attack type) -> (runs outside the stop tolerance, runs
# that end in SimTimeout); every other cell is (0, 0).
FAILURES = {
    ("authenticated", -120.0, "tamper"): (20, 0),
    ("authenticated", -120.0, "clone"): (4, 0),
    ("authenticated", -120.0, "unavailable"): (4, 0),
    ("authenticated", -80.0, "clone"): (4, 5),
    ("authenticated", -80.0, "unavailable"): (0, 1),
    ("legacy", -120.0, "tamper"): (3, 0),
    ("legacy", -120.0, "clone"): (4, 0),
    ("legacy", -120.0, "unavailable"): (4, 0),
    ("legacy", -80.0, "clone"): (4, 5),
    ("legacy", -80.0, "unavailable"): (0, 1),
}


def _failing(grid) -> dict[tuple, tuple[int, int]]:
    return {cell: (outside, timeouts)
            for cell, (_, outside, timeouts, _) in attack_sweep.tally(grid)[0].items()
            if outside or timeouts}


def test_attack_sweep_covers_every_single_attack_at_every_start():
    tally, _ = attack_sweep.tally(attack_sweep.SWEEP)
    assert set(tally) == {(mode, start, kind) for mode in attack_sweep.MODES
                          for start in attack_sweep.STARTS for kind in RUNS}
    assert all(runs == RUNS[kind] for (_, _, kind), (runs, *_) in tally.items())


def test_attack_sweep_outcomes_are_frozen():
    assert _failing(attack_sweep.SWEEP) == FAILURES


# SHA-256 over every run's SimResult of a grid, each trajectory float bit
# for bit: a change that moves any run at all moves it, where the counts
# above only see a run cross the stop tolerance.
SWEEP_DIGEST = "e6b66578e71a7168a4dd10b3ef96dfcadae0bac4e4d044e7c1a84a139887c8c8"


def test_attack_sweep_results_are_frozen_to_the_bit():
    assert attack_sweep.tally(attack_sweep.SWEEP)[1] == SWEEP_DIGEST


IN_BOUND_DIGEST = "37d78a13d54c66cd21b7a81f58e2849ef2581246bf4c4ca60af9d124f1618e8d"


def test_no_single_attack_moves_the_stop_within_the_odometry_bound():
    # Every start of the sweep is within IN_BOUND_DELTA0 of the truth; at
    # that bound every run stops, and inside the tolerance.
    grid = attack_sweep.IN_BOUND
    p0 = ScenarioConfig().train.p0
    assert all(abs((p0 if start is None else start) - p0) <= attack_sweep.IN_BOUND_DELTA0
               for start in attack_sweep.STARTS)
    tally, digest = attack_sweep.tally(grid)
    assert list(tally) == list(attack_sweep.tally(attack_sweep.SWEEP)[0])
    assert all(runs == RUNS[kind] for (_, _, kind), (runs, *_) in tally.items())
    assert _failing(grid) == {}
    assert digest == IN_BOUND_DIGEST


# Between the in-bound sweep's tamper locations, a window fails: start
# -120 m, B1 tampered to x.  (mode, delta0, x) -> the stop error to the
# micrometre.  With legacy telegrams and delta0 = 25 m, x from -144.9 to
# -135.3 m is trusted, as it lies within -120 +/- 25 m, but marks no map
# balise received, so ordering correction reads each later balise as the
# one before it and the marker as B5.  README "Within the odometry bound"
# states these figures.
IN_BOUND_WINDOW = {
    (AUTH_LEGACY, 25.0, -145.0): 0.111078,
    (AUTH_LEGACY, 25.0, -144.9): 7.788265,
    (AUTH_LEGACY, 25.0, -135.3): 8.272523,
    (AUTH_LEGACY, 25.0, -135.2): 0.227812,
    (AUTH_AUTHENTICATED, 25.0, -144.0): 0.111078,
    (AUTH_LEGACY, 15.0, -144.0): 0.111078,
}


@pytest.mark.parametrize("mode, delta0, x", IN_BOUND_WINDOW)
def test_a_legacy_tamper_between_the_in_bound_locations_moves_the_stop(
        mode, delta0, x):
    result = run_scenario(ScenarioConfig(
        controller=CONTROLLER_RESILIENT, auth_mode=mode, p_est0=-120.0,
        delta0=delta0, attacks=(Tamper(1, x),)))
    assert round(result.stop_error, 6) == IN_BOUND_WINDOW[mode, delta0, x]
    events = [event for event in result.trajectory.event if event]
    in_window = abs(result.stop_error) > attack_sweep.TOLERANCE
    assert in_window == (mode == AUTH_LEGACY and delta0 == 25.0
                         and -144.9 <= x <= -135.3)
    assert (events[0] == "B1:trusted"
            and events[-1] == "B6:ordering_corrected") == in_window


# (controller, mode, attack type) -> as FAILURES, at the true start.
ABLATION_FAILURES = {
    ("hoa", "authenticated", "tamper"): (25, 0),
    ("hoa", "authenticated", "clone"): (25, 0),
    ("hoa", "authenticated", "unavailable"): (5, 0),
    ("hoa", "legacy", "tamper"): (22, 0),
    ("hoa", "legacy", "clone"): (25, 0),
    ("hoa", "legacy", "unavailable"): (5, 0),
}
ABLATION_DIGEST = "4ab8d9fc6b3b6cb69c3786ab19ec88c9ba48d520c105ecbf65162addc8f29475"


def test_ablation_covers_both_controllers_under_both_modes():
    tally, _ = attack_sweep.tally(attack_sweep.ABLATION)
    assert list(tally) == [(controller, mode, kind)
                           for controller in (CONTROLLER_HOA, CONTROLLER_RESILIENT)
                           for mode in attack_sweep.MODES for kind in RUNS]
    assert sum(runs for runs, *_ in tally.values()) == 248


def test_ablation_outcomes_and_results_are_frozen():
    assert _failing(attack_sweep.ABLATION) == ABLATION_FAILURES
    assert attack_sweep.tally(attack_sweep.ABLATION)[1] == ABLATION_DIGEST


def test_ablation_resilient_cells_are_the_sweep_true_start_cells():
    ablation, _ = attack_sweep.tally(attack_sweep.ABLATION)
    sweep, _ = attack_sweep.tally(attack_sweep.SWEEP)
    for mode in attack_sweep.MODES:
        for kind in RUNS:
            assert ablation[CONTROLLER_RESILIENT, mode, kind] == sweep[mode, None, kind]


CALIBRATION_DIGESTS = {
    "CALIBRATION_ETA0":
        "431d1b179a249f99148443f511104fe4a34b867201a67c9f626f66460816869e",
    "CALIBRATION_V_CON":
        "7d8685f14ff9fbe46b023651925f05473a227df741a1f4137fa90865321da288",
}


@pytest.mark.parametrize("name, cells", [("CALIBRATION_ETA0", 31 * 5),
                                         ("CALIBRATION_V_CON", 7 * 2)])
def test_calibration_grids_run_each_cell_once_and_are_frozen(name, cells):
    tally, digest = attack_sweep.tally(getattr(attack_sweep, name))
    assert len(tally) == cells
    assert all(runs == 1 and timeouts == 0
               for runs, _, timeouts, _ in tally.values())
    assert digest == CALIBRATION_DIGESTS[name]


TIME_STEP_DIGEST = \
    "73e0b11b52c845b277f2b61d8f12ac09908913a982caab9008c44b69ccf7f2d8"


def test_time_step_grid_runs_every_bundled_scenario_at_each_dt_and_is_frozen():
    tally, digest = attack_sweep.tally(attack_sweep.TIME_STEP)
    assert len(attack_sweep.BUNDLED) == 10
    assert attack_sweep.TIME_STEPS[0] == params.TrainParams().dt
    assert list(tally) == [(name, dt) for name in attack_sweep.BUNDLED
                           for dt in attack_sweep.TIME_STEPS]
    assert all(runs == 1 and timeouts == 0
               for runs, _, timeouts, _ in tally.values())
    assert digest == TIME_STEP_DIGEST


def test_shipped_defaults_lie_on_the_calibration_grids():
    eta0 = [label for label, _ in attack_sweep.ETA0[1]]
    v_con = [label for label, _ in attack_sweep.V_CON[1]]
    assert params.ETA0 in eta0 and params.V_CREEP in v_con
    default = ScenarioConfig()
    assert (default.eta0, default.v_con) == (params.ETA0, params.V_CREEP)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hoa_skips_a_tampered_authenticated_telegram_as_a_missing_one(k):
    # The tampered telegram fails authentication and the plain controller
    # goes on as if the balise sent nothing; only the event column differs.
    tampered, silent = (
        run_scenario(ScenarioConfig(auth_mode=AUTH_AUTHENTICATED, attacks=[a]))
        for a in (Tamper(k, -90.0), Unavailable(k)))
    traj, same = tampered.trajectory, silent.trajectory
    assert traj.dt == same.dt
    assert [traj.p, traj.v, traj.alpha_cmd, traj.alpha_actual, traj.mode] == \
        [same.p, same.v, same.alpha_cmd, same.alpha_actual, same.mode]
    assert tampered.auth_failures == 1 and silent.auth_failures == 0
