"""The run loop against benchmarks/reference.json, which this file only reads.

Every bundled scenario must write the reference's trajectory.csv byte for
byte and keep its step count and counters, and the 50-balise
authenticated track must stop exactly where the reference says.  These
outputs were recorded before any optimisation of the loop, so a change
to how it steps the train must leave them as they are.
"""

import hashlib
import json
import os

import pytest

import balisim
from balisim.sim import load_config, run_scenario, write_trajectory_csv

from attack_sweep import auth_track_50

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")

with open(os.path.join(ROOT, "benchmarks", "reference.json"),
          encoding="utf-8") as _f:
    REFERENCE = json.load(_f)

COUNTERS = ("mode_switches", "auth_failures", "balise_missing_events")


@pytest.mark.parametrize("name", sorted(REFERENCE["bundled_batch"]))
def test_bundled_scenario_writes_the_reference_trajectory(name, tmp_path):
    ref = REFERENCE["bundled_batch"][name]
    result = run_scenario(load_config(os.path.join(SCENARIO_DIR, name + ".json")))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(result, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["csv_sha256"]
    assert len(result.trajectory) - 1 == ref["steps"]
    assert result.stop_time == ref["stop_time"]
    for counter in COUNTERS:
        assert getattr(result, counter) == ref[counter], counter


def test_authenticated_50_balise_track_stops_exactly_at_the_reference():
    # The track of the benchmark's auth_track_50 workload: 50 balises
    # evenly spaced from -100 m to 0 m in whole millimetres, id 50 the
    # stop marker.
    result = run_scenario(auth_track_50())
    ref = REFERENCE["auth_track_50"]
    assert result.stop_error == ref["stop_error_m"]
    assert len(result.trajectory) - 1 == ref["steps"]
    assert result.auth_failures == ref["auth_failures"]
    assert result.balise_missing_events == ref["balise_missing_events"]
