"""Sweep the controller calibration knobs and print stop errors.

eta0 scales every correction of the online braking controller and so
shifts all legacy-mode trajectories together; v_con sets the crawl
speed of the conservative fallback and with it the post-marker
overshoot.  The shipped defaults (params.ETA0, params.V_CREEP) lie on
ETA0_GRID and V_CON_GRID.

Usage, from a checkout (or drop PYTHONPATH=src with balisim installed):

    PYTHONPATH=src python3 scripts/calibrate_controller.py
"""

from balisim.sim import Clone, Tamper, Unavailable
from balisim.sim.scenario import ScenarioConfig, run_scenario

ETA0_GRID = tuple(i / 100 for i in range(70, 101))
V_CON_GRID = tuple(i / 100 for i in range(28, 41, 2))


def err(**kw):
    return run_scenario(ScenarioConfig(**kw)).stop_error


def main():
    print("eta0 sweep (legacy-mode scenarios)")
    print(f"{'eta0':>5s} {'no_attack':>10s} {'clone_fb':>10s} "
          f"{'clone_ig':>10s} {'tamper':>10s} {'avail':>10s}")
    for eta0 in ETA0_GRID:
        row = (
            err(eta0=eta0),
            err(eta0=eta0, attacks=[Clone(1, 2)], dbz_strategy="full_brake"),
            err(eta0=eta0, attacks=[Clone(1, 2)], dbz_strategy="ignore"),
            err(eta0=eta0, attacks=[Tamper(1, -1.0)]),
            err(eta0=eta0, attacks=[Tamper(1, -1.0)],
                auth_mode="authenticated"),
        )
        print(f"{eta0:5.2f} " + " ".join(f"{e:+10.3f}" for e in row))

    print()
    print("v_con sweep (conservative-path scenarios)")
    print(f"{'v_con':>5s} {'tamper_pest80':>14s} {'availability':>13s}")
    for v_con in V_CON_GRID:
        tamper = err(controller="resilient", auth_mode="authenticated",
                     attacks=[Tamper(1, -1.0)], p_est0=-80.0, delta0=15.0,
                     v_con=v_con)
        avail = err(controller="resilient", auth_mode="authenticated",
                    attacks=[Unavailable(1)], v_con=v_con)
        print(f"{v_con:5.2f} {tamper:+14.3f} {avail:+13.3f}")


if __name__ == "__main__":
    main()
