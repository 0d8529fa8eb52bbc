"""Attack sweep: every single attack on the default track, at five odometry starts.

The resilient controller meets each attack of ATTACKS at each odometry
start of STARTS, once with authenticated and once with legacy telegrams:
2 x 5 x 62 runs on the default six-balise track (B1..B5 fixed at -100,
-64, -36, -16 and -4 m, the stop marker B6 at 0 m).  tally() counts, per
mode, start and attack type, the runs that stop outside the stop
tolerance and the runs that end in SimTimeout, and hashes every run.
"""

import functools
import hashlib
from array import array

from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, CONTROLLER_RESILIENT, \
    Clone, ScenarioConfig, SimResult, SimTimeout, Tamper, Unavailable, \
    run_scenario

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


def _hash_result(h, result: SimResult) -> None:
    """Feed h every field of result, each trajectory float bit for bit."""
    rows = result.trajectory
    h.update(repr((result.stop_error, result.stop_time, len(rows),
                   *result[3:])).encode())
    *floats, modes, events = zip(*rows)
    for column in floats:
        h.update(array("d", column).tobytes())
    h.update("\0".join(modes + events).encode())


@functools.cache
def tally() -> tuple[dict[tuple, tuple[int, int, int]], str]:
    """(mode, start, attack type) -> (runs, outside the tolerance,
    SimTimeout), and the SHA-256 of every run's result in sweep order."""
    counts = {}
    h = hashlib.sha256()
    for mode in MODES:
        for start in STARTS:
            for kind, attack in ATTACKS:
                cfg = ScenarioConfig(attacks=[] if attack is None else [attack],
                                     controller=CONTROLLER_RESILIENT,
                                     auth_mode=mode, p_est0=start)
                try:
                    result = run_scenario(cfg)
                except SimTimeout as exc:
                    h.update(f"SimTimeout: {exc}".encode())
                    outside, timeout = False, True
                else:
                    _hash_result(h, result)
                    outside = abs(result.stop_error) > cfg.train.gamma
                    timeout = False
                runs, out, stuck = counts.get((mode, start, kind), (0, 0, 0))
                counts[mode, start, kind] = (runs + 1, out + outside, stuck + timeout)
    return counts, h.hexdigest()
