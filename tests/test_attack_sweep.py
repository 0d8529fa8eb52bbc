"""The attack sweep's outcomes, frozen per mode, odometry start and attack type.

A change that moves a count changes what the resilient controller
withstands; README's sweep table states the same counts
(tests/test_readme.py).  The sweep runs the resilient controller only,
so the plain hoa controller's crossings of a tampered or cloned telegram
that the bundled scenarios do not reach are frozen here as well.
"""

import hashlib

import pytest

import attack_sweep
from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, Clone, \
    ScenarioConfig, Tamper, Unavailable, run_scenario, write_trajectory_csv

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


# (auth mode, attack) -> SHA-256 of trajectory.csv and the stop error,
# under the hoa controller on the default track.
HOA_DIGESTS = [
    (AUTH_AUTHENTICATED, Tamper(3, -90.0),
     "4845aedadf72db2546987cf77677d4583708e129f81363c4aa85359174122ff7", -3.878),
    (AUTH_AUTHENTICATED, Clone(6, 3),
     "0a0bd2448dc06d321017e495e71247179985335ea20d77f6212b15f759e57daf", -15.142),
    (AUTH_LEGACY, Clone(6, 3),
     "0a0bd2448dc06d321017e495e71247179985335ea20d77f6212b15f759e57daf", -15.142),
    (AUTH_LEGACY, Tamper(3, -90.0),
     "2bd5a523bc171c04532406e672a3c0b8ba110931b359242aaa33f1e27e3f820a", -15.595),
]


@pytest.mark.parametrize("mode,attack,digest,stop_error", HOA_DIGESTS)
def test_hoa_crossings_of_an_attacked_telegram_are_frozen(
        tmp_path, mode, attack, digest, stop_error):
    result = run_scenario(ScenarioConfig(auth_mode=mode, attacks=[attack]))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(result, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert round(result.stop_error, 3) == stop_error


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hoa_skips_a_tampered_authenticated_telegram_as_a_missing_one(k):
    # The tampered telegram fails authentication and the plain controller
    # goes on as if the balise sent nothing; only the event column differs.
    tampered, silent = (
        run_scenario(ScenarioConfig(auth_mode=AUTH_AUTHENTICATED, attacks=[a]))
        for a in (Tamper(k, -90.0), Unavailable(k)))
    assert [row[:6] for row in tampered.trajectory] == \
        [row[:6] for row in silent.trajectory]
    assert tampered.auth_failures == 1 and silent.auth_failures == 0
