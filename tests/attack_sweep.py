"""Evaluation grids on the default track, run and counted per cell.

A Grid is a base dict of ScenarioConfig fields and a tuple of named
axes, each a tuple of (label, field overrides).  A run takes one entry
of every axis, the first axis slowest, and sets its overrides over the
base; the runs whose entries carry the same labels make one cell.  The
attack axis sets attacks to a tuple, so attack pairs are one more axis.

SWEEP runs the resilient controller against every attack of ATTACK at
each odometry start of STARTS, with authenticated and with legacy
telegrams: 2 x 5 x 62 runs on the default track (B1..B5 fixed at -100,
-64, -36, -16 and -4 m, the stop marker B6 at 0 m).  Its odometry bound is
the default delta0 of 15 m, and its starts -120 and -80 m are 20 m off
the true -100 m.  IN_BOUND is SWEEP with delta0 = IN_BOUND_DELTA0 at
every start, which bounds them all.  ABLATION runs the hoa and the
resilient controller, each under both modes, against the same attacks
at the true start: 2 x 2 x 62 runs.

The calibration grids sweep the two controller constants over bundled
scenarios, each loaded from its JSON file.  CALIBRATION_ETA0 runs eta0
0.70, 0.71, ..., 1.00 against the five scenarios of the hoa controller:
31 x 5 runs.  CALIBRATION_V_CON runs v_con 0.28, 0.30, ..., 0.40 against
two resilient scenarios in which the conservative controller creeps to
the marker: 7 x 2 runs.  Together they make 169 runs.

auth_track_50 is the scenario of the benchmark's auth_track_50 workload,
on a 50-balise track.

TIME_STEP runs every bundled scenario at the default time step, 0.01 s,
and at 0.005, 0.0025 and 0.001 s: 10 x 4 runs, which show how much of a
stop error is the integrator's.
"""

import dataclasses
import functools
import hashlib
import itertools
import os
from array import array

import balisim
from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, BaliseSpec, \
    CONTROLLER_HOA, CONTROLLER_RESILIENT, Clone, KIND_CONTROLLED, KIND_FIXED, \
    ScenarioConfig, SimResult, SimTimeout, Tamper, TrainParams, Unavailable, \
    load_config, run_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")

MODES = (AUTH_AUTHENTICATED, AUTH_LEGACY)
STARTS = (None, -120.0, -110.0, -90.0, -80.0)  # None: the true position
FIXED = (1, 2, 3, 4, 5)
BALISES = FIXED + (6,)
TAMPER_LOCS = (-1.0, -30.0, -90.0, -150.0, 5.0)
IN_BOUND_DELTA0 = 25.0
# The evaluation's criterion: a run stops within this many metres of the
# marker or is counted outside.
TOLERANCE = 0.3


@dataclasses.dataclass(frozen=True, eq=False)  # tally caches it by identity
class Grid:
    base: dict
    axes: tuple  # ((name, ((label, field overrides), ...)), ...)


TELEGRAMS = ("telegrams", tuple((mode, {"auth_mode": mode}) for mode in MODES))
START = ("odometry start", tuple((start, {"p_est0": start}) for start in STARTS))
START_IN_BOUND = ("odometry start", tuple(
    (start, {"p_est0": start, "delta0": IN_BOUND_DELTA0}) for start in STARTS))
CONTROLLER = ("controller", tuple((name, {"controller": name}) for name in (
    CONTROLLER_HOA, CONTROLLER_RESILIENT)))
ATTACK = ("attack", tuple(
    [("tamper", {"attacks": (Tamper(b, loc),)}) for b in FIXED for loc in TAMPER_LOCS]
    + [("clone", {"attacks": (Clone(src, dst),)})
       for src in BALISES for dst in BALISES if src != dst]
    + [("unavailable", {"attacks": (Unavailable(b),)}) for b in BALISES]
    + [("none", {"attacks": ()})]))

SWEEP = Grid({"controller": CONTROLLER_RESILIENT}, (TELEGRAMS, START, ATTACK))
IN_BOUND = Grid({"controller": CONTROLLER_RESILIENT}, (TELEGRAMS, START_IN_BOUND, ATTACK))
ABLATION = Grid({}, (CONTROLLER, TELEGRAMS, ATTACK))


def auth_track_50(**fields) -> ScenarioConfig:
    """The resilient controller reading authenticated long telegrams on 50
    balises evenly spaced from -100 m to 0 m in whole millimetres, id 50
    the stop marker, with fields set over it."""
    balises = tuple(BaliseSpec(id=i, loc=round(-100.0 * (50 - i) / 49, 3),
                               kind=KIND_FIXED if i < 50 else KIND_CONTROLLED)
                    for i in range(1, 51))
    return ScenarioConfig(**{
        "balises": balises, "controller": CONTROLLER_RESILIENT,
        "auth_mode": AUTH_AUTHENTICATED, "telegram_format": "long", **fields})


def bundled(*names: str) -> tuple:
    """A scenario axis of bundled scenarios.  Each entry overrides only the
    fields its file sets to other than the default, so it leaves the
    fields of the other axes, eta0 and v_con among them, as they set them."""
    default = ScenarioConfig()
    configs = {name: load_config(os.path.join(SCENARIO_DIR, name + ".json"))
               for name in names}
    return ("scenario", tuple(
        (name, {field: value for field, value, base
                in zip(cfg._fields, cfg, default) if value != base})
        for name, cfg in configs.items()))


ETA0 = ("eta0", tuple((i / 100, {"eta0": i / 100}) for i in range(70, 101)))
V_CON = ("v_con", tuple((i / 100, {"v_con": i / 100}) for i in range(28, 41, 2)))
CALIBRATION_ETA0 = Grid({}, (ETA0, bundled(
    "no_attack", "tamper_b1_legacy", "clone_b1b2_full_brake",
    "clone_b1b2_ignore", "availability_b1_hoa")))
CALIBRATION_V_CON = Grid({}, (V_CON, bundled(
    "tamper_b1_resilient_pest80", "availability_b1_resilient")))

# Every bundled scenario, in name order, at the default time step and at
# finer ones.
BUNDLED = tuple(sorted(name[:-len(".json")] for name in os.listdir(SCENARIO_DIR)
                       if name.endswith(".json")))
TIME_STEPS = (0.01, 0.005, 0.0025, 0.001)
DT = ("dt", tuple((dt, {"train": TrainParams(dt=dt)}) for dt in TIME_STEPS))
TIME_STEP = Grid({}, (bundled(*BUNDLED), DT))


def _hash_result(h, result: SimResult) -> None:
    """Feed h every field of result, each trajectory float bit for bit."""
    traj = result.trajectory
    n = len(traj)
    h.update(repr((result.stop_error, result.stop_time, n,
                   *result[3:])).encode())
    # The bytes of each row's fields column by column, t first, as the
    # frozen digests were taken.
    h.update(array("d", map(traj.dt.__rmul__, range(n))).tobytes())
    for column in (traj.p, traj.v, traj.alpha_cmd, traj.alpha_actual):
        h.update(column.tobytes())
    h.update("\0".join(traj.mode + traj.event).encode())


@functools.cache
def tally(grid: Grid) -> tuple[dict[tuple, tuple[int, int, int, float | None]], str]:
    """Each cell's labels -> (runs, outside the tolerance, SimTimeout, the
    stop error of largest magnitude or None if no run stopped), and the
    SHA-256 of every run's result, both in grid order."""
    counts = {}
    h = hashlib.sha256()
    for entries in itertools.product(*(axis for _, axis in grid.axes)):
        fields = dict(grid.base)
        for _, overrides in entries:
            fields.update(overrides)
        cfg = ScenarioConfig(**fields)
        try:
            result = run_scenario(cfg)
        except SimTimeout as exc:
            h.update(f"SimTimeout: {exc}".encode())
            error = None
        else:
            _hash_result(h, result)
            error = result.stop_error
        cell = tuple(label for label, _ in entries)
        runs, out, stuck, worst = counts.get(cell, (0, 0, 0, None))
        if error is not None and (worst is None or abs(error) > abs(worst)):
            worst = error
        counts[cell] = (runs + 1,
                        out + (error is not None and abs(error) > TOLERANCE),
                        stuck + (error is None), worst)
    return counts, h.hexdigest()
