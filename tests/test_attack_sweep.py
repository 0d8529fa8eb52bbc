"""The attack sweep's outcomes, frozen per mode, odometry start and attack type.

A change that moves a count changes what the resilient controller
withstands; README's sweep table states the same counts
(tests/test_readme.py).
"""

import attack_sweep

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


def test_attack_sweep_covers_every_single_attack_at_every_start():
    tally = attack_sweep.tally()
    assert set(tally) == {(mode, start, kind) for mode in attack_sweep.MODES
                          for start in attack_sweep.STARTS for kind in RUNS}
    assert all(runs == RUNS[kind] for (_, _, kind), (runs, _, _) in tally.items())


def test_attack_sweep_outcomes_are_frozen():
    failing = {key: (outside, timeouts)
               for key, (_, outside, timeouts) in attack_sweep.tally().items()
               if outside or timeouts}
    assert failing == FAILURES
