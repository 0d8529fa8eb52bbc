"""README's figures against the code, the references and CI.

The bundled stop-error table must equal benchmarks/reference.json and a
fresh run, the attack-sweep, in-bound, defence-layer and channel-model
tables the tallies their tests make, the calibration tables the
calibration grids and, at the defaults, the bundled stop errors, the
time-step table the time-step grid, the exit codes the cli constants,
the forgery figures the counts CI checks, the track, format, install
and CSV figures the package, and the library-use block must run.  So
README cannot drift from any of them.
"""

import collections
import importlib.util
import json
import os
import re

import pytest

import balisim
from balisim import auth, cli, codec
from balisim.sim import AUTH_AUTHENTICATED, AUTH_LEGACY, CONTROLLER_HOA, \
    CONTROLLER_RESILIENT, ScenarioConfig, TrainParams, load_config, params, \
    run_scenario
from balisim.sim.deployment import BaliseSpec, KIND_FIXED, program_telegram, \
    save_telegram
from balisim.sim.scenario import CSV_HEADER, DEFAULT_BALISES

import attack_sweep
import channel_model
from test_attack_sweep import IN_BOUND_WINDOW

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _f:
    README = _f.read()
# README's prose with every run of whitespace made one space.
PROSE = " ".join(README.split())


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _table(title: str) -> list[str]:
    """The rows of the section's table, header first, separator dropped."""
    return [line for line in _section(title).splitlines()
            if line.startswith("|") and not line.startswith(("| ---", "|---"))]


def load_script(name: str):
    """scripts/<name>.py as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Bundled stop errors
# ---------------------------------------------------------------------------

# | `no_attack` | online | none | +0.111 |
_ROW = re.compile(r"^\| `(\w+)` \| [^|]+ \| [^|]+ \| ([+-]\d+\.\d{3}) \|$")

TABLE = {m[1]: float(m[2])
         for m in map(_ROW.match, _table("Bundled scenarios")) if m}


def _reference() -> dict[str, dict]:
    with open(os.path.join(ROOT, "benchmarks", "reference.json"),
              encoding="utf-8") as f:
        return json.load(f)["bundled_batch"]


def test_table_lists_every_bundled_scenario():
    bundled = {name[:-len(".json")] for name in os.listdir(SCENARIO_DIR)
               if name.endswith(".json")}
    assert set(TABLE) == bundled == set(_reference())


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_row_matches_reference_and_a_fresh_run(name):
    reference = _reference()[name]["stop_error_m"]
    result = run_scenario(load_config(os.path.join(SCENARIO_DIR, name + ".json")))
    assert TABLE[name] == round(reference, 3) == round(result.stop_error, 3)


def test_bundled_scenarios_hold_their_stop_errors_run_in_either_order(
        empty_memos):
    # One process reruns the default track from build_deployment's memo of
    # the last two tracks it deployed, as simulate --batch does.
    def run(name):
        return run_scenario(load_config(os.path.join(SCENARIO_DIR, name + ".json")))

    cold = {}
    for name in sorted(TABLE):
        empty_memos()
        cold[name] = run(name)
    for name in sorted(TABLE) + sorted(TABLE, reverse=True):
        result = run(name)
        assert result == cold[name], name
        assert round(result.stop_error, 3) == TABLE[name]


def test_bundled_scenarios_run_on_the_track_and_train_readme_describes():
    for name in TABLE:
        cfg = load_config(os.path.join(SCENARIO_DIR, name + ".json"))
        assert cfg.balises == DEFAULT_BALISES and cfg.train == TrainParams()
    *fixed, marker = DEFAULT_BALISES
    train = TrainParams()
    assert (f"fixed reference balises at {', '.join(f'{b.loc:g}' for b in fixed)} m "
            f"and a stop marker at {marker.loc:g}") in PROSE
    assert f"a train starting {-train.p0:g} m out at {train.v0:g} m/s" in PROSE
    assert f"within the {attack_sweep.TOLERANCE:g} m tolerance" in PROSE


def test_readme_names_every_train_field_and_the_tolerance():
    fields = [f"`{name}`" for name in TrainParams._fields]
    assert f"the train ({', '.join(fields)})" in PROSE
    assert (f"The {attack_sweep.TOLERANCE:g} m tolerance is how the tables "
            "above judge a run, not a setting") in PROSE


# ---------------------------------------------------------------------------
# Attack sweep, defence layers and channel model v2
# ---------------------------------------------------------------------------

def _grid_table(grid) -> list[str]:
    """A grid's counts as README rows, header first: a row per cell of all
    axes but the last, a column per label of the last, a cell the runs
    outside the tolerance and any timeouts; None is the true start."""
    tally, _ = attack_sweep.tally(grid)
    rows = list(dict.fromkeys(cell[:-1] for cell in tally))
    columns = list(dict.fromkeys(cell[-1] for cell in tally))
    lines = [[name for name, _ in grid.axes[:-1]]
             + [f"{label} ({tally[rows[0] + (label,)][0]})" for label in columns]]
    for row in rows:
        cells = ["true" if label is None else f"{label:g} m"
                 if isinstance(label, float) else label for label in row]
        for label in columns:
            _, outside, timeouts, _ = tally[row + (label,)]
            cells.append(f"{outside} + {timeouts} timeout{'s' * (timeouts > 1)}"
                         if timeouts else f"{outside}")
        lines.append(cells)
    return ["| " + " | ".join(line) + " |" for line in lines]


def test_attack_sweep_table_equals_the_sweep():
    assert _table("Attack sweep") == _grid_table(attack_sweep.SWEEP)
    *fixed, last = attack_sweep.TAMPER_LOCS
    assert (f"B{attack_sweep.FIXED[0]}–B{attack_sweep.FIXED[-1]} tampered to "
            f"{', '.join(f'{loc:g}' for loc in fixed)} or {last:+g} m") in PROSE
    assert f"outside the {attack_sweep.TOLERANCE:g} m tolerance" in PROSE


def test_in_bound_table_and_claim_equal_the_in_bound_sweep():
    grid = attack_sweep.IN_BOUND
    assert _table("Within the odometry bound") == _grid_table(grid)
    tally, _ = attack_sweep.tally(grid)
    train = TrainParams()
    assert (f"with a bound of {attack_sweep.IN_BOUND_DELTA0:g} m at every start, "
            f"which covers them all: {sum(runs for runs, *_ in tally.values())} "
            "runs.") in PROSE
    assert (f"error bound of {ScenarioConfig().delta0:g} m" in PROSE
            and f"from the true {train.p0:g} m" in PROSE)
    assert len(attack_sweep.TAMPER_LOCS) == 5
    assert ("At the sweep's five tamper locations, no single attack moves "
            f"the stop outside the {attack_sweep.TOLERANCE:g} m tolerance on "
            "this track, and every run stops.") in PROSE
    # The window between those locations, as its test pins it.
    legacy = {x: error for (mode, delta0, x), error in IN_BOUND_WINDOW.items()
              if mode == AUTH_LEGACY and delta0 == attack_sweep.IN_BOUND_DELTA0}
    below, first, last, above = sorted(legacy)
    assert (f"B1 tampered to any location from {first:g} to {last:g} m" in PROSE
            and f"{legacy[first]:+.3f} m at {first:g} m and "
                f"{legacy[last]:+.3f} m at {last:g} m" in PROSE
            and f"At {below:.1f} m the read lies outside the bound and the run "
                f"stops at {legacy[below]:+.3f} m" in PROSE
            and f"At {above:g} m the missing-balise check fires after the "
                "read, and the conservative controller stops the train at "
                f"{legacy[above]:+.3f} m" in PROSE)


def test_defence_layer_table_and_counts_equal_the_ablation():
    grid = attack_sweep.ABLATION
    assert _table("Defence layers") == _grid_table(grid)
    tally, _ = attack_sweep.tally(grid)
    runs, outside = collections.Counter(), collections.Counter()
    for (controller, mode, _), (count, out, *_) in tally.items():
        runs[controller, mode] += count
        outside[controller, mode] += out
    hoa_auth, hoa_legacy, resilient_auth, resilient_legacy = (
        outside[controller, mode]
        for controller in (CONTROLLER_HOA, CONTROLLER_RESILIENT)
        for mode in (AUTH_AUTHENTICATED, AUTH_LEGACY))
    n = runs[CONTROLLER_HOA, AUTH_LEGACY]
    assert f"{n} runs per start ({n - 1} attacks and no attack)" in PROSE
    assert f"{sum(runs.values())} runs." in PROSE
    assert (f"takes the runs outside the tolerance from {hoa_auth} of {n} to "
            f"{resilient_auth} with authenticated telegrams, and from {hoa_legacy} "
            f"of {n} to {resilient_legacy} with legacy ones. Authentication takes "
            f"them from {hoa_legacy} to {hoa_auth} under `hoa`, and leaves them at "
            f"{resilient_legacy} under the resilient controller.") in PROSE
    assert resilient_auth == resilient_legacy


def _calibration_table(grid) -> list[str]:
    """A calibration grid's stop errors as README rows, header first: a row
    per value of the constant, a column per scenario."""
    tally, _ = attack_sweep.tally(grid)
    (constant, values), (_, scenarios) = grid.axes
    lines = [[constant, *(f"`{name}`" for name, _ in scenarios)]]
    for value, _ in values:
        lines.append([f"{value:.2f}", *(f"{tally[value, name][3]:+.3f}"
                                         for name, _ in scenarios)])
    return ["| " + " | ".join(line) + " |" for line in lines]


def test_calibration_tables_equal_the_grids_and_the_bundled_table():
    eta0 = _calibration_table(attack_sweep.CALIBRATION_ETA0)
    v_con = _calibration_table(attack_sweep.CALIBRATION_V_CON)
    shown = _table("Calibration")
    # Some eta0 rows, in grid order, then every v_con row.
    shown_eta0, shown_v_con = shown[:-len(v_con)], shown[-len(v_con):]
    assert shown_v_con == v_con
    assert shown_eta0[0] == eta0[0]
    rows = iter(eta0[1:])
    assert all(row in rows for row in shown_eta0[1:])
    # The rows at the defaults are the bundled scenarios' stop errors.
    for grid, default, table in (
            (attack_sweep.CALIBRATION_ETA0, params.ETA0, shown_eta0),
            (attack_sweep.CALIBRATION_V_CON, params.V_CREEP, shown_v_con)):
        row = f"| {default:.2f} | " + " | ".join(
            f"{TABLE[name]:+.3f}" for name, _ in grid.axes[1][1]) + " |"
        assert row in table
    assert (f"`eta0` and the conservative controller's creep speed `v_con` "
            f"default to {params.ETA0:g} and {params.V_CREEP:g}") in PROSE
    runs = sum(len(attack_sweep.tally(grid)[0]) for grid in (
        attack_sweep.CALIBRATION_ETA0, attack_sweep.CALIBRATION_V_CON))
    assert f"creeps to the marker: {runs} runs." in PROSE


def test_no_calibration_column_picks_the_defaults():
    eta0, _ = attack_sweep.tally(attack_sweep.CALIBRATION_ETA0)
    nearest = min((abs(error), value) for (value, name), (*_, error) in eta0.items()
                  if name == "no_attack")[1]
    assert nearest != params.ETA0
    assert (f"`no_attack` stops nearest the marker at eta0 = {nearest:.2f}, "
            f"{eta0[nearest, 'no_attack'][3]:+.3f} m against "
            f"{eta0[params.ETA0, 'no_attack'][3]:+.3f} m at {params.ETA0:.2f}") in PROSE
    v_con, _ = attack_sweep.tally(attack_sweep.CALIBRATION_V_CON)
    values = [value for value, _ in attack_sweep.V_CON[1]]
    for name, _ in attack_sweep.CALIBRATION_V_CON.axes[1][1]:
        column = [v_con[value, name][3] for value in values]
        assert column == sorted(column)  # falls with v_con
        assert f"{column[0]:+.3f} m at {values[0]:.2f}" in PROSE


# A spread below one unit of the d-th decimal holds d decimals.
_DECIMALS = {1: "one decimal, the decimetre", 2: "two decimals, the centimetre",
             3: "three decimals, the millimetre"}


def test_time_step_table_and_decimals_equal_the_grid():
    grid = attack_sweep.TIME_STEP
    tally, _ = attack_sweep.tally(grid)
    (_, scenarios), (_, steps) = grid.axes
    lines = [["scenario", *(f"{dt:g}" for dt, _ in steps), "spread (mm)"]]
    spreads = {True: [], False: []}  # within the tolerance -> spreads
    for name, _ in scenarios:
        errors = [tally[name, dt][3] for dt, _ in steps]
        spread = max(errors) - min(errors)
        lines.append([f"`{name}`", *(f"{error:+.3f}" for error in errors),
                      f"{1000 * spread:.1f}"])
        # The default dt's column is the bundled table's.
        assert f"{errors[0]:+.3f}" == f"{TABLE[name]:+.3f}"
        outside = [tally[name, dt][1] for dt, _ in steps]
        assert len(set(outside)) == 1
        spreads[not outside[0]].append(spread)
    assert _table("Time step") == ["| " + " | ".join(line) + " |"
                                   for line in lines]
    finer = [f"{dt:g}" for dt, _ in steps[1:]]
    assert (f"again at time steps of {', '.join(finer[:-1])} and {finer[-1]} "
            f"s: {len(tally)} runs.") in PROSE
    for within, kind in ((True, "within the tolerance move by"),
                         (False, "outside it, the attacked runs of the online "
                                 "controller, move by")):
        widest = max(spreads[within])
        decimals = max(d for d in _DECIMALS if widest < 10.0 ** -d)
        assert (f"The {len(spreads[within])} rows {kind} "
                f"{1000 * min(spreads[within]):.1f} to {1000 * widest:.1f} mm, "
                f"so they hold {_DECIMALS[decimals]}.") in PROSE
    assert "Every run stays on its side of the tolerance at every `dt`." in PROSE


def test_channel_model_table_equals_the_tally():
    tally = channel_model.tally()
    header, *rows = _table("Channel model v2")
    assert header == "| impairment | legacy | authenticated |"
    assert len(rows) == len(channel_model.IMPAIRMENTS)
    for impairment, row in zip(channel_model.IMPAIRMENTS, rows):
        returned = [" / ".join(str(tally.get((impairment, fmt, path, "sent"), 0))
                               for fmt in ("long", "short"))
                    for path in ("legacy", "auth")]
        label = row.split(" | ", 1)[0]
        assert row == " | ".join([label, *returned]) + " |"
    assert {outcome for *_, outcome in tally} == {"sent", "NoTelegramFound"}
    assert ("every other read is rejected by `codec.align` with "
            "`NoTelegramFound`:") in PROSE
    # Both columns are the train's reader, on the track the tally reads.
    section = " ".join(_section("Channel model v2").split())
    assert "then `read_telegram`" in section and "decode_stream" not in section
    assert f"on a {len(channel_model.TRACK)}-key track" in section
    per_case = channel_model.PER_CASE
    assert f"reads {per_case} seeded streams per format and impairment" in PROSE
    assert f"Payloads returned per {per_case} streams" in PROSE
    assert f"1–{channel_model.MAX_FLIPS} flips" in PROSE
    assert f"{channel_model.BURST_BITS}-bit burst" in PROSE


def test_rotation_claim_counts_the_streams_its_checks_enumerate():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as f:
        assert "python3 scripts/check_rotations.py" in f.read()
    per_track = 2 * (codec.LONG.n + codec.SHORT.n) * 2  # modes, formats, polarities
    m = load_script("check_rotations").BALISES
    assert (f"the default track's {len(DEFAULT_BALISES)} balises, legacy and "
            f"authenticated, long and short format, "
            f"{len(DEFAULT_BALISES) * per_track:,} streams in tier-1") in PROSE
    assert (f"the {m} balises of the authenticated, long-format {m}-balise "
            f"track, {m * codec.LONG.n * 2:,} streams in CI") in PROSE


# ---------------------------------------------------------------------------
# Layers, command line and library use
# ---------------------------------------------------------------------------

def test_format_widths_equal_the_codec_constants():
    long, short = codec.LONG, codec.SHORT
    assert (f"{long.n}-bit long format carrying {long.user_bits} user bits, "
            f"{short.n}-bit short format carrying {short.user_bits}") in PROSE
    assert (f"a {codec.GROUP_WIDTH}-to-{codec.WORD_WIDTH}-bit alphabet substitution, "
            f"and an {codec.CHECK_WIDTH}-bit cyclic check") in PROSE
    assert f"the telegram's {codec.SB_WIDTH}-bit scrambling-base field" in PROSE


def test_install_and_csv_figures_equal_the_package():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        pyproject = f.read()
    python = re.search(r'requires-python = ">=([\d.]+)"', pyproject)[1]
    backend = re.search(r'requires = \["(setuptools>=\d+)"\]', pyproject)[1]
    assert f"Python {python}+." in PROSE and f"(`{backend}`)" in PROSE
    assert f"`{','.join(CSV_HEADER)}`" in PROSE


def _forgery_counts_ci_checks() -> tuple[int, int, int]:
    """The keyless-forgery step's crossings, tag passes and accepts."""
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as f:
        ci = f.read()
    crossings = int(re.search(r"keyless_forgery\.py --crossings (\d+)", ci)[1])
    tag_passes = int(re.search(r'grep -q "\^tag passes: (\d+) "', ci)[1])
    accepted = int(re.search(r'grep -q "\^accepted: +(\d+) "', ci)[1])
    return crossings, tag_passes, accepted


# A forgery passes the tag, a valid kind code (half of them) and the id.
FORGERY_EXPONENT = codec.SB_WIDTH + 1 + auth.ID_BITS
FORGERY_RATE = "m·2⁻" + str(FORGERY_EXPONENT).translate(
    str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))


def test_forgery_figures_equal_the_counts_ci_checks():
    crossings, tag_passes, accepted = _forgery_counts_ci_checks()
    m = load_script("keyless_forgery").BALISES
    assert (f"--crossings {crossings}` forges {crossings:,} crossings at m = {m}: "
            f"{tag_passes} pass the tag under some key, and the reader accepts "
            f"{accepted}.") in PROSE
    assert FORGERY_RATE in PROSE


def test_what_the_forgery_zero_shows_follows_from_the_counts_ci_checks():
    # The accepts CI's crossings expect at the claimed rate, and the tag
    # passes with a valid kind code, which a reader without the id check
    # would accept.
    crossings, tag_passes, _ = _forgery_counts_ci_checks()
    m = load_script("keyless_forgery").BALISES
    expected = crossings * m * 2.0 ** -FORGERY_EXPONENT
    assert (f"at {FORGERY_RATE}, {crossings:,} crossings expect "
            f"{expected:.3f} accepts") in PROSE
    assert f"about {tag_passes // 2} of the {tag_passes}, would be accepted" in PROSE


def test_exit_codes_equal_the_cli_constants():
    listed = re.search(r"Exit codes: (.+?)\.", PROSE)[1]
    codes = {meaning: int(code) for code, meaning in re.findall(r"(\d+) ([a-z ]+)", listed)}
    assert codes == {"success": cli.EXIT_OK,
                     "verification failure": cli.EXIT_VERIFY_FAIL,
                     "input error": cli.EXIT_INPUT_ERROR,
                     "simulation timeout": cli.EXIT_TIMEOUT}
    assert sorted(codes.values()) == sorted(
        value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert f"authentication failure (exit {cli.EXIT_VERIFY_FAIL})" in PROSE


def test_scenario_file_paragraph_names_the_keys_a_scenario_reads(tmp_path):
    # tests/test_scenarios.py holds the paragraph's errors and exit codes:
    # test_a_scenario_with_both_seed_and_keystore_exits_2,
    # test_bad_keystore_file_is_a_config_error,
    # test_bad_telegram_file_is_a_config_error,
    # test_telegram_file_format_mismatch_rejected and
    # test_run_scenario_reads_no_file.
    paragraph = re.search(r"A scenario file is a JSON object\. .+? any output "
                          r"is written\.", PROSE)[0]
    assert re.findall(r"`(\w+)`", paragraph) == [
        "seed", "keystore", "telegram", "telegram_format", "run_scenario",
        "seed", "keystore"]
    assert ScenarioConfig().keystore == auth.new_keystore(seed=1)
    keystore = auth.new_keystore(seed=3)
    t = program_telegram(BaliseSpec(1, -50.0, KIND_FIXED), AUTH_AUTHENTICATED,
                         keystore, codec.SHORT)
    auth.save_keystore(keystore, str(tmp_path / "keys.json"))
    save_telegram(str(tmp_path / "b1.tlg"), t, codec.SHORT)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "keystore": "keys.json", "telegram_format": "short",
        "balises": [{"id": 1, "loc": -100.0, "kind": "fixed",
                     "telegram": "b1.tlg"},
                    {"id": 2, "loc": 0.0, "kind": "controlled"}]}))
    cfg = load_config(str(path))
    assert cfg.keystore == keystore
    assert cfg.telegrams == {1: t}


def test_library_use_block_runs(monkeypatch):
    block = re.search(r"```python\n(.*?)```", _section("Library use"), re.S)[1]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
