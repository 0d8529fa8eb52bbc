"""README's bundled stop-error table against the reference and the code.

Each row of the table must equal the scenario's stop error in
benchmarks/reference.json and the stop error of a fresh run, both
rounded to millimetres, so the table cannot drift from either.
"""

import json
import os
import re

import pytest

import balisim
from balisim.sim import load_config, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")

# | `no_attack` | online | none | +0.111 |
_ROW = re.compile(r"^\| `(\w+)` \| [^|]+ \| [^|]+ \| ([+-]\d+\.\d{3}) \|$")


def _readme_table() -> dict[str, float]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## Bundled scenarios\n", 1)[1]
    lines = section.split("\n## ", 1)[0].splitlines()
    return {m[1]: float(m[2]) for m in map(_ROW.match, lines) if m}


def _reference() -> dict[str, dict]:
    with open(os.path.join(ROOT, "benchmarks", "reference.json"),
              encoding="utf-8") as f:
        return json.load(f)["bundled_batch"]


TABLE = _readme_table()


def test_table_lists_every_bundled_scenario():
    bundled = {name[:-len(".json")] for name in os.listdir(SCENARIO_DIR)
               if name.endswith(".json")}
    assert set(TABLE) == bundled == set(_reference())


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_row_matches_reference_and_a_fresh_run(name):
    reference = _reference()[name]["stop_error_m"]
    result = run_scenario(load_config(os.path.join(SCENARIO_DIR, name + ".json")))
    assert TABLE[name] == round(reference, 3) == round(result.stop_error, 3)
