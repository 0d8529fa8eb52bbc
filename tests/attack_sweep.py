"""Attack sweep: every single attack on the default track, at five odometry starts.

The resilient controller meets each attack of ATTACKS at each odometry
start of STARTS, once with authenticated and once with legacy telegrams:
2 x 5 x 62 runs on the default six-balise track (B1..B5 fixed at -100,
-64, -36, -16 and -4 m, the stop marker B6 at 0 m).  tally() counts, per
mode, start and attack type, the runs that stop outside the stop
tolerance and the runs that end in SimTimeout.
"""

import functools

from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, CONTROLLER_RESILIENT, \
    Clone, ScenarioConfig, SimTimeout, Tamper, Unavailable, run_scenario

MODES = (AUTH_AUTHENTICATED, AUTH_LEGACY)
STARTS = (None, -120.0, -110.0, -90.0, -80.0)  # None: the true position
FIXED = (1, 2, 3, 4, 5)
BALISES = FIXED + (6,)
TAMPER_LOCS = (-1.0, -30.0, -90.0, -150.0, 5.0)
ATTACK_TYPES = ("tamper", "clone", "unavailable", "none")

ATTACKS = (
    [("tamper", Tamper(b, loc)) for b in FIXED for loc in TAMPER_LOCS]
    + [("clone", Clone(src, dst)) for src in BALISES for dst in BALISES if src != dst]
    + [("unavailable", Unavailable(b)) for b in BALISES]
    + [("none", None)]
)


@functools.cache
def tally() -> dict[tuple, tuple[int, int, int]]:
    """(mode, start, attack type) -> (runs, outside the tolerance, SimTimeout)."""
    counts = {}
    for mode in MODES:
        for start in STARTS:
            for kind, attack in ATTACKS:
                cfg = ScenarioConfig(attacks=[] if attack is None else [attack],
                                     controller=CONTROLLER_RESILIENT,
                                     auth_mode=mode, p_est0=start)
                try:
                    outside = abs(run_scenario(cfg).stop_error) > cfg.train.gamma
                    timeout = False
                except SimTimeout:
                    outside, timeout = False, True
                runs, out, stuck = counts.get((mode, start, kind), (0, 0, 0))
                counts[mode, start, kind] = (runs + 1, out + outside, stuck + timeout)
    return counts
