"""The input boundary as a property: every mutant of a valid input file
fails cleanly or runs.

A mutant is a bundled scenario, or a telegram or keystore file that
balisim program and keygen write, with one to three edits: a value (a
leaf, an array or an object) replaced from a pool of extreme values, an
object key or array entry deleted, or a field added to an object.
config_from_dict must raise ConfigError or return a config that runs to
a finite stop under a finite command, to SimTimeout, or to the
ValueError of an online-controller command past the float range (a
finite eta0 or train can take it there); balisim simulate must exit 0,
2 or 3 and balisim verify 0, 1 or 2, with nothing on stderr but one
error: line.  The examples are derandomized, so every run tests the
same ones.
"""

import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import balisim
from balisim.cli import main
from balisim.sim import BaliseSpec, Clone, ConfigError, ScenarioConfig, \
    SimTimeout, Tamper, TrainParams, config_from_dict, run_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")


def _read(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


SCENARIOS = [_read(os.path.join(SCENARIO_DIR, name))
             for name in sorted(os.listdir(SCENARIO_DIR)) if name.endswith(".json")]

# JSON writes the non-finite floats as NaN and Infinity, and reads them back.
EXTREMES = (math.nan, math.inf, -math.inf, 10 ** 400, 1e308, -1e308, 2 ** 64,
            True, False, None, [], {}, "", "x", "short", 0, -1, 16383, 16384,
            -0.0004)

# Every key of every file, and one that none has.
NAMES = sorted({*ScenarioConfig._fields, "seed", *TrainParams._fields,
                *BaliseSpec._fields, "telegram", "type", *Tamper._fields,
                *Clone._fields, "format", "bits", "mk_hex", "ver", "unknown"})


def _slots(node):
    """(container, key) of every value under node, depth first."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def mutants(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    extreme = st.sampled_from(EXTREMES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        edit = draw(st.sampled_from(("replace", "delete", "add")
                                    if slots else ("add",)))
        if edit == "add":
            objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            draw(st.sampled_from(objects))[draw(st.sampled_from(NAMES))] = \
                draw(extreme)
            continue
        container, key = draw(st.sampled_from(slots))
        if edit == "replace":
            container[key] = draw(extreme)
        else:
            del container[key]
    return doc


def _cli(*argv) -> tuple[int, str]:
    """main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _one_error_line_unless(quiet: tuple, code: int, err: str) -> bool:
    """Nothing on stderr for an exit code in quiet, else one error: line."""
    if code in quiet:
        return err == ""
    return err.startswith("error: ") and err.find("\n") == len(err) - 1


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("boundary"))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutants(SCENARIOS))
def test_a_mutated_scenario_is_a_config_error_or_runs_to_a_finite_stop(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    try:
        result = run_scenario(cfg)
    except SimTimeout:
        return
    except ValueError as exc:
        assert "float range" in str(exc)
        return
    assert math.isfinite(result.stop_error)
    assert all(map(math.isfinite, result.trajectory.alpha_cmd))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(raw=mutants(SCENARIOS))
def test_simulate_exits_0_2_or_3_on_a_mutated_scenario(workdir, raw):
    config = _write(os.path.join(workdir, "scenario.json"), raw)
    code, err = _cli("simulate", config, "--out", os.path.join(workdir, "out"))
    assert code in (0, 2, 3)
    assert _one_error_line_unless((0,), code, err)


@pytest.fixture(scope="module")
def files(workdir):
    """The keystore and telegram documents keygen and program write."""
    keystore = os.path.join(workdir, "keys.json")
    assert _cli("keygen", "--seed", "1", "--out", keystore)[0] == 0
    telegrams = []
    for i, extra in enumerate((["--format", "long"], ["--format", "short"],
                               ["--mode", "legacy"])):
        path = os.path.join(workdir, f"t{i}.tlg")
        assert _cli("program", "--id", "3", "--loc", "-36", "--keystore",
                    keystore, "--out", path, *extra)[0] == 0
        telegrams.append(_read(path))
    return [_read(keystore)], telegrams


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_verify_exits_0_1_or_2_on_a_mutated_telegram_or_keystore(
        workdir, files, data):
    keystores, telegrams = files
    keystore, telegram = data.draw(st.one_of(
        st.tuples(mutants(keystores), st.sampled_from(telegrams)),
        st.tuples(st.sampled_from(keystores), mutants(telegrams))))
    code, err = _cli("verify", _write(os.path.join(workdir, "t.tlg"), telegram),
                     "--keystore", _write(os.path.join(workdir, "k.json"), keystore),
                     "--id", "3")
    assert code in (0, 1, 2)
    assert _one_error_line_unless((0, 1), code, err)
