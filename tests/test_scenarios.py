"""Tests for scenario configuration, the run loop, and result output."""

import csv
import errno
import inspect
import json
import math
import os
import re
import tracemalloc
from array import array
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import balisim
from balisim.codec import LONG, SHORT
from balisim.sim import (
    BaliseSpec,
    Clone,
    ConfigError,
    ScenarioConfig,
    SimTimeout,
    Tamper,
    Unavailable,
    config_from_dict,
    load_config,
    run_scenario,
    save_telegram,
    summary_dict,
    write_summary,
    write_trajectory_csv,
)
from balisim.cli import main
from balisim.sim import deployment, scenario
from balisim.sim.deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, \
    LEGACY_SB, build_deployment, pack_payload
from balisim.sim.anomaly import PositionEstimate
from balisim.sim.conservative import ConservativeController, MODE_PID1, \
    MODE_PID2
from balisim.sim.plant import BrakePlant
from balisim.sim.scenario import CONTROLLER_RESILIENT, CSV_HEADER, MAX_STEPS, \
    MODE_HOA, MODE_MAX_BRAKE, SimResult, Trajectory, align_codeword, \
    read_telegram
from balisim import auth, codec
from balisim.sim.params import TrainParams

from attack_sweep import BUNDLED, TOLERANCE, auth_track_50

SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")


def bundled(name):
    return load_config(os.path.join(SCENARIO_DIR, name + ".json"))


class Row(NamedTuple):
    t: float
    p: float
    v: float
    alpha_cmd: float
    alpha_actual: float
    mode: str
    event: str


def rows(traj):
    """traj's rows, row i's t being i * dt as the run loop computes it."""
    return list(map(Row._make, zip(
        (i * traj.dt for i in range(len(traj))), traj.p, traj.v,
        traj.alpha_cmd, traj.alpha_actual, traj.mode, traj.event)))


def from_columns(dt, p, v, alpha_cmd, alpha_actual, mode, event):
    """The trajectory of these full columns, one value per row.

    It groups the rows into runs itself, not through Trajectory.open_run,
    so it is the reference the run loop's runs are checked against: a
    row opens a run unless it and the row before carry no event and the
    same command bits and mode.
    """
    traj = Trajectory(dt)
    traj.p.extend(p)
    traj.v.extend(v)
    traj.alpha_actual.extend(alpha_actual)
    alpha_cmd, mode, event = array("d", alpha_cmd), list(mode), list(event)
    if len({len(column) for column in (
            traj.p, traj.v, traj.alpha_actual, alpha_cmd, mode, event)}) != 1:
        raise ValueError("trajectory columns differ in length")
    bits = memoryview(alpha_cmd).cast("B").cast("Q")
    last = None
    for i, key in enumerate(zip(bits, mode, event)):
        if key != last:
            traj.starts.append(i)
            traj.cmds.append(alpha_cmd[i])
            traj.modes.append(key[1])
            traj.events.append(key[2])
        last = key if not key[2] else None
    return traj


# ---------------------------------------------------------------------------
# Run loop invariants
# ---------------------------------------------------------------------------

def test_no_attack_stops_near_marker():
    result = run_scenario(bundled("no_attack"))
    assert abs(result.stop_error) <= TOLERANCE


def test_runs_are_deterministic():
    cfg_a = bundled("tamper_b1_resilient_pest120")
    cfg_b = bundled("tamper_b1_resilient_pest120")
    res_a = run_scenario(cfg_a)
    res_b = run_scenario(cfg_b)
    assert res_a.stop_error == res_b.stop_error
    assert res_a.trajectory == res_b.trajectory


# A changed value of each train field, valid on the default track.
_TRAIN_CHANGES = {"p0": -101.0, "v0": 9.0, "alpha_max": -1.5, "Td": 0.5,
                  "Tp": 0.5, "dt": 0.02}


@pytest.mark.parametrize("name", TrainParams._fields)
def test_each_train_field_changes_the_run(name):
    # A train field no run reads is a setting silently ignored: gamma,
    # the tolerance runs are judged by, stopped the default run at
    # +0.111 m in 2,112 rows whatever its value.
    train = TrainParams(**{name: _TRAIN_CHANGES[name]})
    changed = run_scenario(ScenarioConfig(train=train)).trajectory
    assert changed != run_scenario(ScenarioConfig()).trajectory


@pytest.mark.parametrize("name", ["no_attack", "tamper_b1_legacy",
                                  "availability_b1_resilient"])
def test_trajectory_kinematics(name):
    cfg = bundled(name)
    result = run_scenario(cfg)
    dt = cfg.train.dt
    traj = rows(result.trajectory)
    for prev, cur in zip(traj, traj[1:]):
        assert cur.v == pytest.approx(
            max(0.0, prev.v + cur.alpha_actual * dt), abs=1e-12)
        assert cur.p == pytest.approx(prev.p + cur.v * dt, abs=1e-12)


def test_alpha_actual_saturated_and_speed_monotone():
    cfg = bundled("tamper_b1_legacy")  # commands far exceed the brake limit
    result = run_scenario(cfg)
    alpha_max = cfg.train.alpha_max
    traj = rows(result.trajectory)
    for prev, cur in zip(traj, traj[1:]):
        assert alpha_max <= cur.alpha_actual <= 0.0
        assert cur.v <= prev.v + 1e-12


def test_trajectory_row_count_matches_stop_time():
    cfg = bundled("no_attack")
    result = run_scenario(cfg)
    traj = rows(result.trajectory)
    assert len(traj) == round(result.stop_time / cfg.train.dt) + 1
    assert traj[0].t == 0.0 and traj[-1].t == result.stop_time
    assert traj[-1].v == 0.0


def test_a_run_holds_at_most_32_bytes_per_row():
    # Each step is three floats in arrays, 24 bytes, and the arrays' spare
    # room.  The command, mode and event are held per run of rows, of
    # which this scenario opens 251; a run opened at every creeping step
    # would take about 60 bytes more for each.
    cfg = bundled("tamper_b1_resilient_pest80")
    run_scenario(cfg)  # fills the process memos
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = run_scenario(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before <= 32 * len(result.trajectory)


def test_a_trajectory_equals_the_trajectory_of_its_columns():
    cfg = bundled("tamper_b1_resilient_pest80")
    traj, dt = run_scenario(cfg).trajectory, cfg.train.dt
    columns = [list(traj.p), list(traj.v), list(traj.alpha_cmd),
               list(traj.alpha_actual), traj.mode, traj.event]
    # The same columns make an equal trajectory; another dt, float,
    # command, mode or event does not, also where the runs start alike.
    assert from_columns(dt, *columns) == traj
    assert from_columns(2 * dt, *columns) != traj
    for k, change in ((1, lambda v: v + 1.0), (2, lambda cmd: 2 * cmd),
                      (4, str.upper), (5, lambda event: event and event + "!")):
        changed = list(columns)
        changed[k] = list(map(change, columns[k]))
        other = from_columns(dt, *changed)
        assert other.starts == traj.starts
        assert other != traj


def _one_row(p, event=""):
    return from_columns(0.01, [p], [1.0], [-0.45], [-0.2], [MODE_HOA], [event])


def test_a_trajectory_with_a_nan_equals_its_copy():
    assert _one_row(math.nan) == _one_row(math.nan)


def test_trajectories_that_differ_in_the_sign_of_a_zero_differ():
    # 0.0 == -0.0, but the two write 0.000000 and -0.000000.
    assert _one_row(0.0) != _one_row(-0.0)


def test_mode_switch_counting():
    plain = run_scenario(bundled("no_attack"))
    assert plain.mode_switches == 1  # hoa -> max_brake at the stop marker
    resilient = run_scenario(bundled("availability_b1_resilient"))
    assert resilient.mode_switches >= 2  # hoa -> pid1 -> pid2 -> max_brake


def test_event_counters():
    missing = run_scenario(bundled("availability_b1_resilient"))
    assert missing.balise_missing_events == 1
    assert missing.auth_failures == 0  # suppression never reaches the decoder

    tampered = run_scenario(bundled("tamper_b1_resilient_pest120"))
    assert tampered.auth_failures == 1
    assert tampered.balise_missing_events == 0


def test_conservative_overshoot_within_worst_case_bound():
    cfg = bundled("availability_b1_resilient")
    result = run_scenario(cfg)
    marker_rows = [r for r in rows(result.trajectory) if ":marker" in r.event]
    assert len(marker_rows) == 1
    travel = result.stop_error - marker_rows[0].p
    # dead time at v_con, braking distance from v_con, two steps of slack
    bound = (cfg.v_con * cfg.train.Td
             + cfg.v_con ** 2 / (2.0 * abs(cfg.train.alpha_max))
             + 2.0 * cfg.v_con * cfg.train.dt)
    assert 0.0 <= travel <= bound


def test_reader_tries_no_key_on_a_stream_that_does_not_align(monkeypatch):
    keystore = auth.new_keystore(seed=1)
    spec = BaliseSpec(id=2, loc=-64.0, kind="fixed")
    (t,) = build_deployment([spec], AUTH_AUTHENTICATED, keystore, LONG)
    trials = []
    derive_keys = auth.derive_keys
    monkeypatch.setattr(auth, "derive_keys", lambda mk, i, ver=0:
                        trials.append(i) or derive_keys(mk, i, ver))
    track_ids = [1, 2, 3]
    assert read_telegram(align_codeword(t, LONG), AUTH_AUTHENTICATED, keystore,
                         track_ids, LONG) == (2, "fixed", -64.0)
    assert trials == [1, 2]
    trials.clear()
    t ^= 1 << (LONG.n - 1 - 100)  # flips bit 100 of the codeword
    assert read_telegram(align_codeword(t, LONG), AUTH_AUTHENTICATED, keystore,
                         track_ids, LONG) is None
    assert trials == []


def test_every_sim_export_resolves_and_the_reader_reads_an_alignment():
    import balisim.sim as sim
    assert len(set(sim.__all__)) == len(sim.__all__)
    assert all(hasattr(sim, name) for name in sim.__all__)
    assert "read_telegram" in sim.__all__
    # The reader takes what align_codeword or codec.align returns.
    first = next(iter(inspect.signature(read_telegram).parameters.values()))
    assert (first.name, first.annotation) == ("aligned", "codec.Aligned | None")
    # A deployment is a list of ints, so no record class wraps a telegram,
    # and no other reader, of such a record or of an int, is left beside
    # read_telegram.
    for module in (sim, deployment, scenario):
        assert not [name for name in vars(module)
                    if name.startswith("Deployed") or name.endswith("read_balise")]
    assert [name for name in vars(scenario) if "read" in name] == [
        "_read_json", "read_telegram"]


@pytest.fixture
def aligned(monkeypatch, empty_memos):
    """With the memos emptied, list the codeword of every align call."""
    codewords = []
    align = codec.align

    def counting(stream, fmt=LONG):
        codewords.append(stream.value & ((1 << fmt.n) - 1))
        return align(stream, fmt)

    monkeypatch.setattr(codec, "align", counting)
    return codewords


def test_a_rerun_of_an_authenticated_track_aligns_no_codeword(aligned):
    cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED)
    cold = run_scenario(cfg)
    assert sorted(aligned) == sorted(build_deployment(
        cfg.balises, AUTH_AUTHENTICATED, auth.new_keystore(seed=1), LONG))
    aligned.clear()
    assert run_scenario(ScenarioConfig(auth_mode=AUTH_AUTHENTICATED)) == cold
    assert aligned == []


@pytest.mark.parametrize("change", ["tamper", "clone", "telegram_file"])
def test_an_attacked_run_aligns_only_its_new_codewords(aligned, empty_memos,
                                                       change):
    keystore = auth.new_keystore(seed=1)
    if change == "tamper":
        cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED,
                             attacks=[Tamper(balise=2, new_loc=-50.0)])
    elif change == "clone":
        cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED,
                             controller=CONTROLLER_RESILIENT,
                             attacks=[Clone(src=6, dst=3)])
    else:
        user = pack_payload(2, "fixed", -60.0, LONG)
        t = codec.codeword(user, *auth.generate_tag(user, keystore.keys_for(2),
                                                    LONG), LONG)
        cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED, telegrams={2: t})
    cold = run_scenario(cfg)
    empty_memos()
    aligned.clear()
    run_scenario(ScenarioConfig(auth_mode=AUTH_AUTHENTICATED))
    known = set(aligned)
    aligned.clear()
    assert run_scenario(cfg) == cold
    attacked = build_deployment(cfg.balises, AUTH_AUTHENTICATED, keystore, LONG)
    deployment.apply_attacks(attacked, cfg.balises, cfg.attacks, LONG)
    if change == "telegram_file":
        attacked[1] = t
    new = set(attacked) - known
    assert sorted(aligned) == sorted(new)
    assert len(new) == (0 if change == "clone" else 1)


def test_a_stream_that_does_not_align_is_kept_and_tries_no_key(aligned, monkeypatch):
    keystore = auth.new_keystore(seed=1)
    spec = BaliseSpec(id=2, loc=-64.0, kind="fixed")
    (t,) = build_deployment([spec], AUTH_AUTHENTICATED, keystore, LONG)
    t ^= 1 << (LONG.n - 1 - 100)  # flips bit 100 of the codeword
    trials = []
    derive_keys = auth.derive_keys
    monkeypatch.setattr(auth, "derive_keys", lambda mk, i, ver=0:
                        trials.append(i) or derive_keys(mk, i, ver))
    for _ in range(2):
        assert read_telegram(align_codeword(t, LONG), AUTH_AUTHENTICATED,
                             keystore, [1, 2, 3], LONG) is None
    assert align_codeword(t, LONG) is None
    assert aligned == [t]
    assert trials == []


def test_a_legacy_run_aligns_each_distinct_codeword_once(aligned):
    # B2 carries B1's telegram, so the run reads one codeword twice; the
    # resilient controller corrects it by ordering and passes the marker.
    cfg = ScenarioConfig(controller=CONTROLLER_RESILIENT,
                         attacks=[Clone(src=1, dst=2)])
    cold = run_scenario(cfg)
    assert cold.stop_error > 0  # every balise, the marker at 0 m too, was read
    read = build_deployment(cfg.balises, AUTH_LEGACY, None, LONG)
    read[1] = read[0]
    assert sorted(aligned) == sorted(set(read))
    aligned.clear()
    assert run_scenario(cfg) == cold
    assert aligned == []


def test_a_legacy_read_of_a_stream_that_does_not_align_descrambles_nothing(
        aligned, monkeypatch):
    spec = BaliseSpec(id=2, loc=-64.0, kind="fixed")
    (t,) = build_deployment([spec], AUTH_LEGACY, None, LONG)
    calls = []
    keystream = codec.keystream
    monkeypatch.setattr(codec, "keystream",
                        lambda *args: calls.append(args) or keystream(*args))
    assert read_telegram(align_codeword(t, LONG), AUTH_LEGACY, None, [2],
                         LONG) == (2, "fixed", -64.0)
    assert len(calls) == 1
    calls.clear()
    t ^= 1 << (LONG.n - 1 - 100)  # flips bit 100 of the codeword
    for _ in range(2):
        assert read_telegram(align_codeword(t, LONG), AUTH_LEGACY, None, [2],
                             LONG) is None
    assert align_codeword(t, LONG) is None
    assert len(aligned) == 2 and aligned[1] == t
    assert calls == []


def test_the_alignment_memo_keeps_the_last_1024_codewords(empty_memos):
    codewords = [codec.codeword(user, 0, 1, LONG) for user in range(1025)]
    for t in codewords:
        assert scenario.align_codeword(t, LONG) == codec.align(
            scenario._received(t, LONG), LONG)
    info = scenario.align_codeword.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (1025, 1024, 1024)
    scenario.align_codeword(codewords[-1], LONG)
    scenario.align_codeword(codewords[0], LONG)  # the first was dropped
    info = scenario.align_codeword.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1026, 1024)


def test_the_alignment_memo_keys_a_codeword_by_its_format(empty_memos):
    t = codec.codeword(5, 0x5A5, 7, SHORT)
    for fmt in (SHORT, LONG, SHORT, LONG):
        try:
            expected = codec.align(scenario._received(t, fmt), fmt)
        except codec.CodecError:
            expected = None
        assert scenario.align_codeword(t, fmt) == expected
    assert scenario.align_codeword(t, SHORT) is not None
    assert scenario.align_codeword.cache_info().currsize == 2


def test_authenticated_run_derives_each_track_key_once(macs, monkeypatch):
    # Deployment (through keys_for) and reader ask derive_keys once per
    # write and per trial; only the first request of an id computes its
    # two KDF MACs (message prefix 0x4B), and only the first PRF of an sb
    # under a track key computes its MAC (prefix 0x53).  A second run
    # under the same master key computes neither, and programs no
    # telegram: its only tag MACs (prefix 0x01, the long format) are those
    # of the accepted reads.
    kdf_macs, prf_macs, tag_macs = macs["kdf"], macs["prf"], macs["tag"]
    trials = []
    derive_keys = auth.derive_keys
    monkeypatch.setattr(auth, "derive_keys", lambda mk, i, ver=0:
                        trials.append(i) or derive_keys(mk, i, ver))
    cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED,
                         keystore=auth.new_keystore(seed=18))
    ids = [b.id for b in cfg.balises]
    read_trials = [i for n in range(1, len(ids) + 1) for i in ids[:n]]
    stop = run_scenario(cfg).stop_error
    assert len(kdf_macs) == 2 * len(set(ids))
    # One per write and one per wrong-key trial; the trial under the
    # right key reads the S its write memoised.
    assert len(prf_macs) == len(ids) + len(ids) * (len(ids) - 1) // 2
    assert len(tag_macs) == 2 * len(ids)
    assert trials == ids + read_trials
    kdf_macs.clear()
    prf_macs.clear()
    tag_macs.clear()
    trials.clear()
    assert run_scenario(cfg).stop_error == stop
    assert kdf_macs == prf_macs == []
    assert len(tag_macs) == len(ids)
    assert trials == read_trials


def test_a_warm_50_balise_run_makes_the_pinned_key_trials(empty_memos,
                                                          monkeypatch):
    # The benchmark's auth_track_50 track: 50 balises evenly spaced from
    # -100 m to 0 m in whole millimetres, id 50 the stop marker.  The
    # train stops before the marker, and the reader tries the keys of ids
    # 1..n at the crossing of balise n, so a warm run makes 49 * 50 / 2
    # trials: one accepted per crossing, every other one rejected by the
    # id check, none by the tag.  The run programs no telegram, so every
    # derive_keys call is a trial's.
    cfg = auth_track_50()
    cold = run_scenario(cfg)
    outcomes, derived = [], []
    verify, derive_keys = auth.verify_and_decode, auth.derive_keys

    def counting_verify(*args):
        try:
            user = verify(*args)
        except auth.AuthFailure as exc:
            outcomes.append(exc.args[0])
            raise
        outcomes.append("ok")
        return user

    monkeypatch.setattr(auth, "verify_and_decode", counting_verify)
    monkeypatch.setattr(auth, "derive_keys", lambda mk, i, ver=0:
                        derived.append(i) or derive_keys(mk, i, ver))
    assert run_scenario(cfg) == cold
    assert len(outcomes) == 1225
    assert outcomes.count("ok") == 49
    assert outcomes.count(auth.ID_MISMATCH) == 1176
    assert outcomes.count(auth.TAG_MISMATCH) == 0
    assert len(derived) == 1225


def test_reader_accepts_a_payload_only_under_the_key_of_its_id():
    # With keystore seed 45 on a 50-balise track, an honest telegram
    # passes the 12-bit tag under a wrong key, and the payload that key
    # descrambles parses.  A reader that took it stopped at -7.835 m.
    stops = {seed: run_scenario(auth_track_50(
        keystore=auth.new_keystore(seed=seed))).stop_error for seed in (1, 45)}
    assert stops[45] == stops[1]
    assert round(stops[45], 6) == -0.022299


def test_resilient_run_evaluates_the_missing_condition_near_its_crossings(
        monkeypatch):
    # On the 50-balise track the run takes 1,965 steps and crosses 49
    # fixed balises; the condition is evaluated about once per reference.
    calls = []
    missing = scenario.balise_missing

    def counted(est, state):
        calls.append(est.p_est)
        return missing(est, state)

    monkeypatch.setattr(scenario, "balise_missing", counted)
    result = run_scenario(auth_track_50())
    assert len(result.trajectory) - 1 == 1965
    assert result.balise_missing_events == 0
    assert 0 < len(calls) <= 2 * 49


@pytest.mark.parametrize("loc", [-36.0, -36.0004, -35.9996])
def test_a_fixed_balise_off_the_millimetre_grid_is_received_where_it_reports(loc):
    # B3's telegram reports its location in whole millimetres, -36.0 m,
    # and the track map holds it the same way: the read marks B3 received,
    # so no balise goes missing and the run stops as on the grid.  A map
    # of the unrounded -36.0004 m reported B3 missing right after its read.
    balises = list(scenario.DEFAULT_BALISES)
    balises[2] = BaliseSpec(id=3, loc=loc, kind="fixed")
    result = run_scenario(ScenarioConfig(
        balises=balises, controller=CONTROLLER_RESILIENT,
        auth_mode=AUTH_AUTHENTICATED))
    events = [event for event in result.trajectory.event if "B3" in event]
    assert events == ["B3:trusted"]
    assert result.balise_missing_events == 0
    assert round(result.stop_error, 3) == 0.111


@pytest.mark.parametrize("p_est0", [None, -120.0, -110.0, -90.0])
@pytest.mark.parametrize("dst", [1, 2, 3, 4, 5])
def test_resilient_controller_ignores_a_stop_marker_cloned_onto_a_fixed_balise(
        dst, p_est0):
    # The clone verifies under the marker's key, and ordering places it at
    # fixed balise dst: the controller brakes for that balise and stops at
    # the real marker.  With odometry starting at -80 m, clones onto B2..B5
    # still stop 3.8 to 26.6 m short; that class is open and not covered.
    cfg = ScenarioConfig(attacks=[Clone(src=6, dst=dst)],
                         controller=CONTROLLER_RESILIENT,
                         auth_mode=AUTH_AUTHENTICATED, p_est0=p_est0)
    result = run_scenario(cfg)
    assert abs(result.stop_error) <= TOLERANCE
    clone_events = [event for event in result.trajectory.event
                    if f"B{dst}:" in event]
    assert clone_events[0].startswith(f"B{dst}:ordering_corrected")
    assert ":marker" not in clone_events[0]


def test_timeout_raises():
    cfg = ScenarioConfig(max_time_s=0.05)  # no_attack, cut short
    with pytest.raises(SimTimeout):
        run_scenario(cfg)


@pytest.mark.parametrize("name", ["no_attack", "availability_b1_resilient"])
def test_the_step_budget_ends_at_exactly_round_max_time_over_dt_steps(name):
    # The run's last step is its stop: a budget of that many steps
    # returns the result, one step less times out.
    cfg = bundled(name)
    result = run_scenario(cfg)
    steps = len(result.trajectory) - 1
    dt = cfg.train.dt
    assert round(result.stop_time / dt) == steps
    assert run_scenario(cfg._replace(max_time_s=result.stop_time)) == result
    with pytest.raises(SimTimeout):
        run_scenario(cfg._replace(max_time_s=(steps - 1) * dt))


# ---------------------------------------------------------------------------
# Held stretches
# ---------------------------------------------------------------------------

def _as_hex(rows):
    """Each row as a tuple, with every float as its hex, so that rows
    compare bit for bit (-0.0 apart from 0.0, a NaN equal to itself)."""
    return [tuple(x.hex() if type(x) is float else x for x in values)
            for values in rows]


def _assert_runs_are_well_formed(traj):
    """The runs of traj cover its rows in order, and an event covers only
    the row it happened at."""
    starts, n = traj.starts, len(traj)
    assert len(starts) == len(traj.cmds) == len(traj.modes) == len(traj.events)
    assert starts[0] == 0 and starts[-1] < n
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert all(end == start + 1 for start, end, event
               in zip(starts, [*starts[1:], n], traj.events) if event)


def _held_by_calls(plant, est, cmd, mode, event, rows, step, max_steps,
                   next_loc, watch):
    """scenario._hold as calls of the two methods it repeats, with every
    row offered to rows.open_run."""
    for step in range(step + 1, max_steps + 1):
        plant.step(cmd)
        est.advance(plant.v * plant.dt)
        for column, value in zip((rows.p, rows.v, rows.alpha_actual),
                                 (plant.p, plant.v, plant.alpha)):
            column.append(value)
        rows.open_run(step, cmd, mode, event)
        event = ""
        if plant.v == 0.0 or plant.p >= next_loc or est.p_est >= watch:
            break
    return step


HELD_TRAINS = {
    "default": TrainParams(),
    "Td=0": TrainParams(Td=0.0),
    "Tp=0": TrainParams(Tp=0.0),
    "Td=Tp=0": TrainParams(Td=0.0, Tp=0.0),
    "dt=0.013,Td=0.05": TrainParams(dt=0.013, Td=0.05),
    "v0=14": TrainParams(v0=14.0),
}

# Each stretch holds a command until p passes a balise ("loc"), until
# p_est passes a watch point ("watch"), both metres ahead, or until the
# stop (None).  The plant clamps a propelling command to 0 and a NaN one
# to alpha_max; a NaN is the one command on which the order of the two
# clamps shows.
HELD_STRETCHES = (
    (0.0, "loc", 5.0),
    (-0.45, "watch", 3.0),
    (2.0, "loc", 4.0),
    (math.nan, "watch", 10.0),
    (-0.2, "loc", 6.0),
    (-50.0, None, 0.0),
)


def _held_run(hold, train, max_steps):
    """hold driven through HELD_STRETCHES: every float of the rows and of
    the final plant and estimate as hex, and each stretch's last step."""
    plant = BrakePlant(train)
    est = PositionEstimate(train.p0 + 2.5, 15.0, 0.02)
    # Row i is step i's, as in a run.
    traj = from_columns(train.dt, [plant.p], [plant.v], [0.0],
                        [plant.alpha], [MODE_HOA], [""])
    step, ends = 0, []
    for cmd, limit, ahead in HELD_STRETCHES:
        next_loc = plant.p + ahead if limit == "loc" else math.nan
        watch = est.p_est + ahead if limit == "watch" else math.inf
        step = hold(plant, est, cmd, MODE_HOA, f"E{len(ends)}", traj, step,
                    max_steps, next_loc, watch)
        assert len(traj) == step + 1
        ends.append(step)
        if plant.v == 0.0 or step == max_steps:
            break
    _assert_runs_are_well_formed(traj)
    state = (plant.alpha, plant.v, plant.p, *plant._delay,
             est.p_est, est.dist_since_ref, est.delta)
    return _as_hex((*rows(traj), state)), ends


@pytest.mark.parametrize("train", HELD_TRAINS.values(), ids=HELD_TRAINS)
def test_a_held_stretch_steps_as_the_plant_and_the_estimate_do(train):
    # Every stretch ends where its limit says, the last at the stop, in
    # the same rows and state, bit for bit, as a step and an advance call.
    expected, ends = _held_run(_held_by_calls, train, MAX_STEPS)
    assert len(ends) == len(HELD_STRETCHES)
    assert expected[-2][2] == (0.0).hex()  # the last row: v == 0
    assert ends[-2] < ends[-1] - 1  # the stop lies inside the last stretch
    assert _held_run(scenario._hold, train, MAX_STEPS) == (expected, ends)


@pytest.mark.parametrize("train", HELD_TRAINS.values(), ids=HELD_TRAINS)
def test_a_held_stretch_ends_at_a_budget_inside_it(train):
    _, ends = _held_run(_held_by_calls, train, MAX_STEPS)
    budget = (ends[2] + ends[3]) // 2  # inside the NaN command's stretch
    assert ends[2] < budget < ends[3]
    expected, budget_ends = _held_run(_held_by_calls, train, budget)
    assert budget_ends == [*ends[:3], budget]
    assert _held_run(scenario._hold, train, budget) == (expected, budget_ends)


@pytest.fixture
def step_calls(monkeypatch):
    """Calls of the methods that step the plant, the estimate and the
    conservative controller, by method."""
    calls = {}

    def counted(name, method):
        def call(self, *args):
            calls[name] += 1
            return method(self, *args)
        return call

    for cls, method in ((BrakePlant, "step"), (PositionEstimate, "advance"),
                        (ConservativeController, "step")):
        name = f"{cls.__name__}.{method}"
        calls[name] = 0
        monkeypatch.setattr(cls, method, counted(name, getattr(cls, method)))
    return calls


def test_a_held_command_steps_without_a_plant_or_estimate_call(step_calls):
    # The 50-balise track never leaves the default controller, so the
    # run loop holds every one of its 1,965 steps.
    cfg = auth_track_50()
    run_scenario(cfg)  # programs the track and derives its keys
    result = run_scenario(cfg)
    assert len(result.trajectory) - 1 == 1965
    assert set(step_calls.values()) == {0}


def test_the_conservative_controller_steps_through_the_plant_and_the_estimate(
        step_calls):
    # Only the steps the conservative controller commands call the plant
    # and the estimate; the steps before balise_missing fires are held.
    result = run_scenario(bundled("availability_b1_resilient"))
    steps = step_calls["ConservativeController.step"]
    assert 0 < steps < len(result.trajectory) - 1
    assert set(step_calls.values()) == {steps}


# The first commands of a conservative stretch, scripted: zeros of both
# signs, which compare equal, and one NaN object twice, which compares
# unequal to itself, across a mode switch.
SCRIPTED = ((0.0, MODE_PID1), (-0.0, MODE_PID1), (0.0, MODE_PID1),
            (math.nan, MODE_PID1), (math.nan, MODE_PID2), (-0.45, MODE_PID2),
            (-0.45, MODE_PID2))


def test_runs_keep_each_rows_own_command_bits(monkeypatch, tmp_path):
    step = ConservativeController.step
    script = iter(SCRIPTED)

    def scripted(self, v, marker_seen, dt):
        for cmd, mode in script:
            self.mode = mode
            return cmd
        return step(self, v, marker_seen, dt)

    monkeypatch.setattr(ConservativeController, "step", scripted)
    result = run_scenario(bundled("availability_b1_resilient"))
    traj = result.trajectory
    # The stretch starts at the row of the balise_missing event.
    first = next(i for i, event in enumerate(traj.event)
                 if event.startswith("balise_missing"))
    stretch = slice(first, first + len(SCRIPTED))
    assert _as_hex(zip(traj.alpha_cmd[stretch], traj.mode[stretch])) == \
        _as_hex(SCRIPTED)
    _assert_runs_are_well_formed(traj)
    # A run opens at each change of bits or mode, and after the event
    # row; the two -0.45 share one.
    assert [start - first for start in traj.starts
            if first <= start < first + len(SCRIPTED)] == [0, 1, 2, 3, 4, 5]
    _assert_csv_matches_oracle(result, tmp_path)
    _assert_runs_are_grouped(traj)


def _assert_runs_are_grouped(traj):
    """traj holds the runs from_columns groups its rows into."""
    grouped = from_columns(traj.dt, traj.p, traj.v, traj.alpha_cmd,
                           traj.alpha_actual, traj.mode, traj.event)
    assert (traj.starts, traj.cmds.tobytes(), traj.modes, traj.events) == \
        (grouped.starts, grouped.cmds.tobytes(), grouped.modes,
         grouped.events)


@pytest.mark.parametrize("name", BUNDLED)
def test_the_run_loop_opens_runs_as_the_constructor_does(name):
    _assert_runs_are_grouped(run_scenario(bundled(name)).trajectory)


# The last row before a held stretch (command, mode, event), and the
# stretch's command and event; the stretch runs in MODE_HOA.
HELD_AFTER = (
    ((-0.2, MODE_HOA, ""), -0.2, ""),
    ((-0.2, MODE_HOA, ""), -0.2, "E"),
    ((-0.2, MODE_HOA, "E"), -0.2, ""),
    ((-0.2, MODE_MAX_BRAKE, ""), -0.2, ""),
    ((-0.2, MODE_HOA, ""), -0.3, ""),
    ((0.0, MODE_HOA, ""), -0.0, ""),
    ((math.nan, MODE_HOA, ""), math.nan, ""),
)


@pytest.mark.parametrize("last, cmd, event", HELD_AFTER)
def test_a_held_stretch_opens_runs_as_the_constructor_does(last, cmd, event):
    train = TrainParams()
    plant = BrakePlant(train)
    est = PositionEstimate(train.p0, 15.0, 0.02)
    last_cmd, last_mode, last_event = last
    rows = from_columns(train.dt, [plant.p], [plant.v], [last_cmd],
                        [plant.alpha], [last_mode], [last_event])
    assert scenario._hold(plant, est, cmd, MODE_HOA, event, rows, 0, 3,
                          math.nan, math.inf) == 3
    # Each row keeps its own command bits, mode and event.
    assert rows.alpha_cmd.tobytes() == \
        array("d", [last_cmd, cmd, cmd, cmd]).tobytes()
    assert rows.mode == [last_mode, *[MODE_HOA] * 3]
    assert rows.event == [last_event, event, "", ""]
    _assert_runs_are_grouped(rows)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


def _balises():
    return [
        {"id": 1, "loc": -100.0, "kind": "fixed"},
        {"id": 2, "loc": -64.0, "kind": "fixed"},
        {"id": 3, "loc": 0.0, "kind": "controlled"},
    ]


def each_maker(monkeypatch):
    """ScenarioConfig, then _replace on a valid config, which must check
    their fields alike; config_from_dict makes its config through the
    maker just yielded."""
    for make in (ScenarioConfig, ScenarioConfig()._replace):
        monkeypatch.setattr(scenario, "ScenarioConfig", make)
        yield make


def test_config_defaults_are_valid():
    cfg = ScenarioConfig()
    assert cfg.controller == "hoa"
    assert len(cfg.balises) == 6
    # Every config made without the field shares its default.
    assert type(cfg.balises) is tuple and cfg.attacks == ()
    with pytest.raises(TypeError):
        cfg.telegrams[1] = 0
    assert ScenarioConfig().telegrams == {}
    # The keystore of seed 1, derived once for every config.
    assert cfg.keystore == auth.new_keystore(seed=1)
    assert ScenarioConfig().keystore is cfg.keystore


def test_config_is_immutable_and_checked_on_replace():
    cfg = ScenarioConfig()
    with pytest.raises(AttributeError):
        cfg.controller = "x"
    assert cfg._replace(controller="resilient").controller == "resilient"
    with pytest.raises(ConfigError, match=r"^unknown controller 'x'$"):
        cfg._replace(controller="x")
    with pytest.raises(ConfigError, match=r"^unknown scenario field 'contoller'$"):
        cfg._replace(contoller="resilient")
    with pytest.raises(TypeError, match=r"^ScenarioConfig\."):
        ScenarioConfig(contoller="resilient")


@pytest.mark.parametrize("field,value", [
    ("controller", "mpc"),
    ("dbz_strategy", "panic"),
    ("auth_mode", "signed"),
    ("telegram_format", "medium"),
    ("max_time_s", 0.0),
    ("max_time_s", -1.0),
])
def test_config_rejects_bad_scalar_fields(monkeypatch, field, value):
    for make in each_maker(monkeypatch):
        with pytest.raises(ConfigError):
            make(**{field: value})


# Every float field of a scenario as JSON sets it: ScenarioConfig's own,
# TrainParams', a balise's loc and a tamper's new_loc.  The balise under
# test lies beyond the marker, where 1.0 is a valid location.
_FLOAT_FIELDS = {
    **{name: {name: None} for name in ("p_est0", "delta0", "growth_k", "eta0",
                                       "v_con", "max_time_s")},
    **{f"train.{name}": {"train": {name: None}} for name in TrainParams._fields},
    "balise.loc": {"balises": _balises() + [{"id": 4, "loc": None, "kind": "fixed"}]},
    "tamper.new_loc": {"balises": _balises(), "attacks": [
        {"type": "tamper", "balise": 1, "new_loc": None}]},
}


def _with_value(raw, value):
    """raw with its None leaf, the field under test, set to value."""
    if raw is None:
        return value
    if isinstance(raw, dict):
        return {k: _with_value(v, value) for k, v in raw.items()}
    if isinstance(raw, list):
        return [_with_value(v, value) for v in raw]
    return raw


@pytest.mark.parametrize("value", [True, 10**400], ids=["true", "10**400"])
@pytest.mark.parametrize("raw", _FLOAT_FIELDS.values(), ids=_FLOAT_FIELDS)
def test_config_from_dict_rejects_a_bool_or_an_int_beyond_floats(raw, value):
    # json.load reads true as True, which math and float() take as 1, and
    # an integer of any size as an int, which math.isfinite cannot take.
    # Every field but alpha_max, which must be negative, takes 1.0; the
    # train's p0 must lie at or before the first balise, at -100 m.
    if raw == {"train": {"p0": None}}:
        config_from_dict(_with_value(raw, -100.0))
    elif raw != {"train": {"alpha_max": None}}:
        config_from_dict(_with_value(raw, 1.0))
    with pytest.raises(ConfigError):
        config_from_dict(_with_value(raw, value))


def test_config_rejects_bad_balise_layouts(monkeypatch):
    base = [BaliseSpec(id=1, loc=-100.0, kind="fixed"),
            BaliseSpec(id=2, loc=-64.0, kind="fixed"),
            BaliseSpec(id=3, loc=0.0, kind="controlled")]
    for make in each_maker(monkeypatch):
        with pytest.raises(ConfigError):  # out of order
            make(balises=[base[1], base[0], base[2]])
        with pytest.raises(ConfigError):  # duplicate location
            make(balises=[base[0], BaliseSpec(id=2, loc=-100.0, kind="fixed"),
                          base[2]])
        with pytest.raises(ConfigError):  # no stop marker
            make(balises=base[:2])
        with pytest.raises(ConfigError):  # marker away from the origin
            make(balises=base[:2] + [
                BaliseSpec(id=3, loc=-1.0, kind="controlled")])
        with pytest.raises(ConfigError):  # duplicate id
            make(balises=[base[0], BaliseSpec(id=1, loc=-64.0, kind="fixed"),
                          base[2]])
        with pytest.raises(ConfigError):  # fixed balise reporting 0 mm
            make(balises=base[:2] + [
                BaliseSpec(id=4, loc=-0.0004, kind="fixed"), base[2]])


_KEYSTORE = auth.new_keystore(seed=1)


@pytest.mark.parametrize("kwargs", [
    {"keystore": None},
    {"keystore": "keys.json"},
    {"keystore": tuple(_KEYSTORE)},
    {"keystore": _KEYSTORE._replace(mk=_KEYSTORE.mk[:16])},
    {"keystore": _KEYSTORE._replace(mk=_KEYSTORE.mk.hex())},
    {"keystore": _KEYSTORE._replace(ver=-1)},
    {"keystore": _KEYSTORE._replace(ver=1 << 16)},
    {"keystore": _KEYSTORE._replace(ver=True)},
    {"telegrams": {9: 0}},  # no balise 9 on the track
    {"telegrams": {"1": 0}},
    {"telegrams": {True: 0}},
    {"telegrams": {1: "b1.json"}},
    {"telegrams": {1: None}},
    {"telegrams": {1: True}},
    {"telegrams": {1: 1.0}},
    {"telegrams": {1: -1}},
    {"telegrams": {1: 1 << LONG.n}},
    {"telegrams": {1: 1 << SHORT.n}, "telegram_format": SHORT.name},
    {"telegrams": [(1, 0)]},
])
def test_config_rejects_a_keystore_or_telegrams_of_the_wrong_kind(
        monkeypatch, kwargs):
    # A telegram for an id that is not on the track would be ignored.
    for make in each_maker(monkeypatch):
        with pytest.raises(ConfigError):
            make(**kwargs)


def test_config_rejects_a_fixed_balise_telegram_that_reports_the_stop_point(
        monkeypatch):
    # Made in code as a telegram file gives it: no braking law for 0 m.
    t = deployment.program_telegram(BaliseSpec(1, 0.0, "fixed"), AUTH_LEGACY,
                                    None, LONG)
    for make in each_maker(monkeypatch):
        with pytest.raises(ConfigError, match="^the telegram of balise 2 "):
            make(telegrams={2: t})


@pytest.mark.parametrize("raw", [
    {"keystore": 5},
    {"keystore": True},
    {"keystore": ["keys.json"]},
    {"balises": [{**b, "telegram": 7} for b in _balises()]},
])
def test_config_from_dict_rejects_a_path_that_is_not_a_string(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("base_dir", [None, "/scenarios"], ids=["bare", "base_dir"])
@pytest.mark.parametrize("raw,field", [
    ({"keystore": None}, "keystore"),
    ({"keystore": 5}, "keystore"),
    ({"balises": [{**b, "telegram": 7} for b in _balises()]}, "balise 1 telegram"),
    ({"balises": [{**b, "telegram": None} for b in _balises()]}, "balise 1 telegram"),
], ids=["keystore_null", "keystore_int", "telegram_int", "telegram_null"])
def test_config_from_dict_names_a_path_field_that_is_not_a_string(
        raw, field, base_dir):
    # load_config passes base_dir; a null path is no more "no file" with
    # it than without it.
    with pytest.raises(ConfigError, match=f"^{field} must be a path string, not "):
        config_from_dict(raw, base_dir=base_dir)


@pytest.mark.parametrize("raw", [
    {"auth_mode": "authenticated", "keystore": 5},
    {"balises": [{**b, "telegram": 7} for b in _balises()]},
    {"auth_mode": "authenticated", "keystore": None},
    {"balises": [{**b, "telegram": None} for b in _balises()]},
])
def test_scenario_file_with_a_path_that_is_not_a_string_exits_2(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_config_from_dict_round_trip():
    raw = {
        "balises": _balises(),
        "attacks": [{"type": "tamper", "balise": 1, "new_loc": -1.0}],
        "controller": "resilient",
        "auth_mode": "authenticated",
        "p_est0": -120.0,
        "delta0": 25.0,
        "seed": 3,
    }
    cfg = config_from_dict(raw)
    assert cfg.attacks == (Tamper(balise=1, new_loc=-1.0),)
    assert cfg.p_est0 == -120.0
    assert cfg.balises[2].kind == "controlled"


@pytest.mark.parametrize("raw,expected", [
    ({"type": "tamper", "balise": 1, "new_loc": 2.0}, Tamper(1, 2.0)),
    ({"type": "clone", "src": 1, "dst": 2}, Clone(1, 2)),
    ({"type": "unavailable", "balise": 2}, Unavailable(2)),
])
def test_config_from_dict_parses_each_attack_type(raw, expected):
    # Attacks are NamedTuples, and Clone(1, 2) == Tamper(1, 2.0) as
    # tuples, so the type is checked on its own.
    (attack,) = config_from_dict({"balises": _balises(),
                                  "attacks": [raw]}).attacks
    assert type(attack) is type(expected)
    assert attack == expected


@pytest.mark.parametrize("attack", [
    {"type": "derail"},
    {"type": "tamper", "balise": 1},          # missing new_loc
    {"type": "clone", "src": 1},              # missing dst
    {"type": "tamper", "balise": "one", "new_loc": -1.0},
    {},
    # balise numbers are 1-based; 0 would wrap to the stop marker
    {"type": "tamper", "balise": 0, "new_loc": -1.0},
    {"type": "tamper", "balise": 4, "new_loc": -1.0},
    {"type": "unavailable", "balise": 0},
    {"type": "clone", "src": 4, "dst": 2},
    {"type": "clone", "src": 1, "dst": -1},
    # int() would read these as balise 1 or overflow
    {"type": "unavailable", "balise": 1.5},
    {"type": "tamper", "balise": INF, "new_loc": -1.0},
    {"type": "clone", "src": True, "dst": 2},
    "tamper",
    # the stop point, also after rounding to millimetres
    {"type": "tamper", "balise": 1, "new_loc": 0.0},
    {"type": "tamper", "balise": 1, "new_loc": 0.0004},
])
def test_config_from_dict_rejects_bad_attacks(attack):
    with pytest.raises(ConfigError):
        config_from_dict({"balises": _balises(), "attacks": [attack]})


# A field of the wrong type, as the Python API and as a JSON scenario set
# it.  Through the API, each of these was taken at construction and failed
# in the run, attacked the wrong balise or raised AttributeError or
# TypeError.
_WRONG_TYPES = {
    "unavailable_1.0": ([Unavailable(1.0)], {"type": "unavailable", "balise": 1.0}),
    "clone_true_2.0": ([Clone(True, 2.0)], {"type": "clone", "src": True, "dst": 2.0}),
    "tamper_2.5": ([Tamper(2.5, -10.0)],
                   {"type": "tamper", "balise": 2.5, "new_loc": -10.0}),
    "unavailable_true": ([Unavailable(True)], {"type": "unavailable", "balise": True}),
    "attack_str": (["drop"], "drop"),
}
_BALISE_PAIRS = [list(map(list, b.items())) for b in _balises()]
# Iterated as entries, an attacks string or object had loaded as no
# attacks, and a balises one failed on its first character or key.
_NOT_ARRAYS = {
    "attacks_str": {"attacks": ""},
    "attacks_object": {"attacks": {}},
    "balises_str": {"balises": "ab"},
    "balises_object": {"balises": {"id": 1, "loc": 0.0, "kind": "controlled"}},
}
_WRONG_FIELDS = {
    "train_dict": ({"train": {"v0": 10.0}}, {"train": [10.0]}),
    "balises_dicts": ({"balises": _balises()}, {"balises": [[1, -100.0, "fixed"]]}),
    # dict() took a balise of [key, value] pairs, and the track ran.
    "balises_pairs": ({"balises": _BALISE_PAIRS}, {"balises": _BALISE_PAIRS}),
    "telegram_format_list": ({"telegram_format": ["long"]},
                             {"telegram_format": ["long"]}),
    **{name: ({"attacks": attacks}, {"attacks": [raw]})
       for name, (attacks, raw) in _WRONG_TYPES.items()},
    **{name: (raw, raw) for name, raw in _NOT_ARRAYS.items()},
}


@pytest.mark.parametrize("kwargs,raw", _WRONG_FIELDS.values(), ids=_WRONG_FIELDS)
def test_config_rejects_a_field_of_the_wrong_type(monkeypatch, kwargs, raw):
    for make in each_maker(monkeypatch):
        with pytest.raises(ConfigError):
            make(**kwargs)
        with pytest.raises(ConfigError):
            config_from_dict(raw)


@pytest.mark.parametrize("balise", [2.5, True], ids=["2.5", "true"])
def test_scenario_file_naming_a_balise_by_a_non_int_exits_2(tmp_path, balise):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"attacks": [{"type": "tamper", "balise": balise, "new_loc": -10.0}]}))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", _NOT_ARRAYS.values(), ids=_NOT_ARRAYS)
def test_scenario_file_whose_balises_or_attacks_are_not_an_array_exits_2(
        tmp_path, capsys, raw):
    [(key, value)] = raw.items()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an array, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_from_dict_rejects_bad_train_and_balise_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"mass": 1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"balises": [{"id": 1, "loc": 0.0, "kind": "beacon"}]})


@pytest.mark.parametrize("raw, key", [
    # The misspelt controller was dropped and hoa ran: +0.111078 m.
    ({"contoller": "resilient", "auth_mode": "authenticated"}, "contoller"),
    ({"seed": 1, "attack": []}, "attack"),
    # The train's gamma was read by no run: +0.111078 m at any value.
    ({"train": {"gamma": 5.0}}, "gamma"),
    ({"attacks": [{"type": "unavailable", "balise": 1, "new_loc": -1.0}]}, "new_loc"),
    ({"attacks": [{"type": "clone", "src": 1, "dst": 2, "balise": 3}]}, "balise"),
    ({"attacks": [{"type": "tamper", "balise": 1, "new_loc": -1.0, "to": 2}]}, "to"),
])
def test_config_from_dict_names_an_unknown_scenario_or_attack_key(raw, key):
    with pytest.raises(ConfigError, match=f"'{key}'$"):
        config_from_dict(raw)


def test_scenario_file_with_a_misspelt_key_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"contoller": "resilient", "auth_mode": "authenticated"}')
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'contoller'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", [
    {"train": {"v0": NAN}},
    {"train": {"dt": INF}},
    {"train": {"p0": NAN}},
    {"train": {"alpha_max": -INF}},
    {"controller": "resilient", "p_est0": NAN},
    {"p_est0": INF},
    {"delta0": -1.0},
    {"delta0": NAN},
    {"growth_k": INF},
    {"eta0": NAN},
    {"eta0": 0.0},
    {"v_con": NAN},
    {"max_time_s": INF},
    {"max_time_s": NAN},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": -1},
    # a null seed would draw a random key
    {"seed": None},
    {"balises": [{"id": 1, "loc": NAN, "kind": "fixed"},
                 {"id": 2, "loc": 0.0, "kind": "controlled"}]},
    {"balises": _balises(),
     "attacks": [{"type": "tamper", "balise": 1, "new_loc": NAN}]},
    # locations the 48-bit millimetre payload cannot hold
    {"balises": [{"id": 1, "loc": -1e12, "kind": "fixed"},
                 {"id": 2, "loc": 0.0, "kind": "controlled"}]},
    {"balises": [{"id": 1, "loc": -1e306, "kind": "fixed"},
                 {"id": 2, "loc": 0.0, "kind": "controlled"}]},
    {"balises": _balises(),
     "attacks": [{"type": "tamper", "balise": 1, "new_loc": -1e12}]},
    {"balises": _balises(),
     "attacks": [{"type": "tamper", "balise": 1, "new_loc": 1e306}]},
    {"balises": [{"id": 1.5, "loc": -1.0, "kind": "fixed"},
                 {"id": 2, "loc": 0.0, "kind": "controlled"}]},
    {"attacks": "x"},
    # more steps than MAX_STEPS
    {"max_time_s": 1e306},
    {"train": {"dt": 1e-300}},
    # a dead-time delay line longer than MAX_STEPS
    {"train": {"Td": 1e9}},
    {"train": {"Td": 1e306}},
    {"train": {"Td": 1.0, "dt": 1e-300}, "max_time_s": 1e-300},
    # max_time_s / dt rounds to no step at all
    {"max_time_s": 0.001},
    {"max_time_s": 0.005},
    {"train": {"v0": 0.0}, "max_time_s": 0.001},
    # a train that starts past the first balise, or past the stop point
    {"train": {"p0": -50.0}},
    {"train": {"p0": 1.0}},
    {"train": {"p0": -99.0}, "balises": _balises()},
])
def test_config_from_dict_rejects_non_finite_and_out_of_range(monkeypatch, raw):
    for _ in each_maker(monkeypatch):
        with pytest.raises(ConfigError):
            config_from_dict(raw)


def test_config_from_dict_accepts_a_delay_line_of_max_steps():
    # Checked at config time only: a run would allocate the delay line.
    cfg = config_from_dict({"train": {"Td": MAX_STEPS * 0.01}})
    assert round(cfg.train.Td / cfg.train.dt) == MAX_STEPS
    with pytest.raises(ConfigError, match="Td"):
        config_from_dict({"train": {"Td": (MAX_STEPS + 1) * 0.01}})


# Values of the wrong kind, non-finite or out of range.
_ODD = st.sampled_from([NAN, INF, -INF, 1e306, -1e12, 2**64, None, True, "x", [], {}])
_GRID = st.integers(-480, 480).map(lambda k: k / 4)


def _config_dicts(wild):
    """Scenario config dicts with plausible values; with wild, any key may
    also take an extra value of its own or one from _GRID or _ODD.  No dt
    is below 0.01 s, and every max_time_s that passes the MAX_STEPS check
    is at most 40 s, so every run is short."""
    def num(lo, hi):
        s = st.integers(int(lo * 4), int(hi * 4)).map(lambda k: k / 4)
        return st.one_of(s, _GRID, _ODD) if wild else s

    def pick(*plausible, extra=()):
        return st.one_of(st.sampled_from(plausible + extra), _ODD) if wild \
            else st.sampled_from(plausible)

    index = st.one_of(st.integers(-1, 8), _ODD) if wild else st.integers(1, 3)
    train = st.fixed_dictionaries({}, optional={
        "p0": num(-150, -101), "v0": num(0, 20), "alpha_max": num(-2, -0.25),
        "Td": num(0, 1), "Tp": num(0, 1),
        "dt": pick(0.01, 0.05, extra=(-0.25, 0.0, 0.25)),
    })
    attack = st.fixed_dictionaries({
        "type": pick("tamper", "clone", "unavailable", extra=("derail",)),
    }, optional={"balise": index, "src": index, "dst": index,
                 "new_loc": num(-120, 10)})
    balise = st.fixed_dictionaries({
        "id": st.one_of(st.integers(-1, 20), st.just(2.5), _ODD),
        "loc": num(-120, 0),
        "kind": st.sampled_from(["fixed", "controlled", "beacon"]),
    })
    layouts = st.just(_balises())
    if wild:
        layouts = st.one_of(layouts, st.lists(balise, max_size=4), _ODD)
    return st.fixed_dictionaries({
        # A run that never stops ends in SimTimeout.
        "max_time_s": pick(40.0, extra=(0.05, 2.0)),
    }, optional={
        "train": st.one_of(train, _ODD) if wild else train,
        "balises": layouts,
        "attacks": st.one_of(st.lists(attack, max_size=2), _ODD) if wild
                   else st.lists(attack, max_size=2),
        "controller": pick("hoa", "resilient", extra=("mpc",)),
        "dbz_strategy": pick("full_brake", "ignore", extra=("panic",)),
        "auth_mode": pick("legacy", "authenticated", extra=("signed",)),
        "telegram_format": pick("long", "short", extra=("medium",)),
        "p_est0": num(-150, -50),
        "delta0": num(0, 40),
        "growth_k": num(0, 0.5),
        "eta0": num(0.25, 2),
        "v_con": num(0.25, 2),
        "seed": st.one_of(st.integers(-1, 2**64), _ODD) if wild
                else st.integers(0, 1000),
    })


_CONFIG = st.one_of(_config_dicts(wild=False), _config_dicts(wild=True))


@settings(max_examples=60, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIG)
def test_config_fuzz_ends_in_config_error_or_a_finite_result(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    try:
        result = run_scenario(cfg)
    except SimTimeout:
        return
    assert math.isfinite(result.stop_error)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_load_config_rejects_an_unreadable_path(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_config(path)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"controller": "hoa", "x": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(str(path))


@pytest.mark.parametrize("content", [
    None,
    b"{not json",
    b'{"mk_hex": "00", "ver": 0}',
    b'{"mk_hex": "' + b"\xff" * 64 + b'", "ver": 0}',
], ids=["missing", "bad_json", "short_key", "not_utf8"])
def test_bad_keystore_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "keys.json"
    if content is not None:
        path.write_bytes(content)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"auth_mode": "authenticated",
                                    "keystore": "keys.json"}))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(str(cfg_path))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [
    None,
    b"{not json",
    b'{"format": "long", "bits": "0101"}',
    b'{"format": "medium", "bits": ""}',
], ids=["missing", "bad_json", "too_short", "bad_format"])
def test_bad_telegram_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "b1.json"
    if content is not None:
        path.write_bytes(content)
    raw = {"balises": [{"id": 1, "loc": -100.0, "kind": "fixed",
                        "telegram": str(path)},
                       {"id": 2, "loc": 0.0, "kind": "controlled"}]}
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# Telegram files referenced from a config
# ---------------------------------------------------------------------------

def test_telegram_file_injection_matches_tamper_attack(tmp_path):
    # A pre-tampered telegram supplied as a file must reproduce the
    # equivalent in-config tamper attack bit for bit.
    user = pack_payload(1, "fixed", -1.0, LONG)
    forged = codec.codeword(user, LEGACY_SB, codec.legacy_s_from_sb(LEGACY_SB),
                            LONG)
    tel_path = tmp_path / "b1_forged.json"
    save_telegram(str(tel_path), forged, LONG)

    balises = bundled("no_attack").balises
    raw = {
        "balises": [
            {"id": b.id, "loc": b.loc, "kind": b.kind,
             **({"telegram": "b1_forged.json"} if b.id == 1 else {})}
            for b in balises
        ],
        "controller": "hoa",
        "auth_mode": "legacy",
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(raw))

    via_file = run_scenario(load_config(str(cfg_path)))
    via_attack = run_scenario(bundled("tamper_b1_legacy"))
    assert via_file.stop_error == via_attack.stop_error


def test_telegram_file_format_mismatch_rejected(tmp_path):
    user = pack_payload(1, "fixed", -100.0, SHORT)
    tel_path = tmp_path / "b1_short.json"
    save_telegram(str(tel_path), codec.codeword(
        user, LEGACY_SB, codec.legacy_s_from_sb(LEGACY_SB), SHORT), SHORT)
    raw = {"balises": [{"id": 1, "loc": -100.0, "kind": "fixed",
                        "telegram": "b1_short.json"},
                       {"id": 2, "loc": 0.0, "kind": "controlled"}]}
    with pytest.raises(ConfigError,
                       match=r"^balise 1 telegram is short, scenario uses 'long'$"):
        config_from_dict(raw, base_dir=str(tmp_path))


def test_a_scenario_with_both_seed_and_keystore_exits_2(tmp_path, capsys):
    # The keystore file used to win, and the seed was dropped unread.
    auth.save_keystore(auth.new_keystore(seed=45), str(tmp_path / "keys.json"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"auth_mode": "authenticated", "seed": 7,
                                "keystore": "keys.json"}))
    with pytest.raises(ConfigError,
                       match="^a scenario sets seed or keystore, not both$"):
        load_config(str(path))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "seed or keystore" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # Either alone sets the keystore.
    assert config_from_dict({"seed": 7}).keystore == auth.new_keystore(seed=7)
    assert config_from_dict({"keystore": "keys.json"}, base_dir=str(tmp_path)) \
        .keystore == auth.new_keystore(seed=45)


def test_run_scenario_reads_no_file(tmp_path):
    # The files a scenario names are read when it is loaded, so deleting
    # them afterwards changes none of its runs.
    keystore = auth.new_keystore(seed=7)
    auth.save_keystore(keystore, str(tmp_path / "keys.json"))
    spec = BaliseSpec(2, -50.0, "fixed")
    save_telegram(str(tmp_path / "b2.tlg"), deployment.program_telegram(
        spec, AUTH_AUTHENTICATED, keystore, LONG), LONG)
    raw = {"auth_mode": "authenticated", "keystore": "keys.json",
           "balises": [{**b, "telegram": "b2.tlg"} if b["id"] == 2 else b
                       for b in _balises()]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    before = run_scenario(cfg)
    os.remove(tmp_path / "keys.json")
    os.remove(tmp_path / "b2.tlg")
    assert run_scenario(cfg) == before
    # Both files count: every crossing verifies under the file's keystore,
    # and balise 2 reports the file's -50 m, not its map location.
    assert before.auth_failures == 0
    assert before != run_scenario(cfg._replace(telegrams={}))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def test_trajectory_csv_layout(tmp_path):
    result = run_scenario(bundled("no_attack"))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(result, str(path))
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_HEADER
    assert len(rows) == len(result.trajectory) + 1
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][2]) == 0.0  # final speed
    assert rows[-1][5] == "max_brake"


def _csv_writer_oracle(result, path):
    # The csv.writer loop that wrote trajectory.csv before rows were
    # formatted in blocks, kept verbatim as the byte-for-byte reference.
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in rows(result.trajectory):
            writer.writerow([
                f"{row.t:.2f}", f"{row.p:.6f}", f"{row.v:.6f}",
                f"{row.alpha_cmd:.6f}", f"{row.alpha_actual:.6f}",
                row.mode, row.event,
            ])


def _assert_csv_matches_oracle(result, tmp_path):
    write_trajectory_csv(result, str(tmp_path / "written.csv"))
    _csv_writer_oracle(result, str(tmp_path / "oracle.csv"))
    assert (tmp_path / "written.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_trajectory_csv_matches_csv_writer_on_bundled(name, tmp_path):
    result = run_scenario(bundled(name))
    _assert_runs_are_well_formed(result.trajectory)
    _assert_csv_matches_oracle(result, tmp_path)


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
                1e300, 2.675, 0.125]
# The last is not ASCII: the writer's own UTF-8 against the oracle's text
# file.
_EDGE_EVENTS = ["", "B1:marker", "B1:x,y", 'say "go"', 'a""b', "x\ny",
                "x\rz", "B2:auth_fail;balise_missing(order)", "B1:µ→"]
_MODES = [MODE_HOA, MODE_MAX_BRAKE, MODE_PID1, MODE_PID2]


def _edge_trajectory(n_rows, dt):
    # Row i's p, v, alpha_cmd and alpha_actual are the edge floats from
    # the i-th on.
    def cycle(values, shift=0):
        return [values[(i + shift) % len(values)] for i in range(n_rows)]

    return from_columns(dt, *(cycle(_EDGE_FLOATS, k) for k in range(4)),
                        cycle(_MODES), cycle(_EDGE_EVENTS))


@pytest.mark.parametrize("n_rows", [1, 1023, 1024, 1025, 2049])
def test_trajectory_csv_matches_csv_writer_on_edge_rows(n_rows, tmp_path):
    # t = i * dt: row 1's t is dt, so each edge float is a t too, and
    # row 0's is nan for an infinite dt.  At dt 0.125 and 2.675, t differs
    # on every row, so a row dropped or repeated is seen.
    # 0.0 besides -0.0, and an int dt, as JSON's "dt": 1 loads.
    for dt in (*_EDGE_FLOATS, 0.0, 1):
        _assert_csv_matches_oracle(_edge_result(n_rows, dt), tmp_path)


def _edge_result(n_rows, dt):
    return SimResult(stop_error=0.0, stop_time=0.0,
                     trajectory=_edge_trajectory(n_rows, dt),
                     mode_switches=0, auth_failures=0,
                     balise_missing_events=0)


def test_trajectory_csv_time_texts_are_kept_per_dt_repr(tmp_path):
    # -0.0 == 0.0 and both hash alike, but every t text at dt -0.0 is
    # -0.00; a table keyed by the float would write one dt's texts for
    # the other.
    for dt in (-0.0, 0.0, -0.0):
        _assert_csv_matches_oracle(_edge_result(5, dt), tmp_path)


def test_trajectory_csv_time_texts_grow_up_to_their_bound(tmp_path):
    dt = 0.01
    scenario._time_texts.cache_clear()
    # Rows past the bound are formatted as they are written.
    for n_rows, kept in ((10, 10), (3000, 3000), (10, 3000),
                         (scenario._TIME_TEXT_ROWS + 3, scenario._TIME_TEXT_ROWS)):
        _assert_csv_matches_oracle(_edge_result(n_rows, dt), tmp_path)
        assert len(scenario._time_texts(repr(dt))) == kept
    # One dt's texts are kept at a time.
    assert scenario._time_texts.cache_info().maxsize == 1


def test_trajectory_csv_refuses_an_event_that_utf_8_cannot_encode(tmp_path):
    # A lone surrogate, as the text file the oracle writes refuses it.
    result = SimResult(0.0, 0.0, _one_row(0.0, "B1:\ud800"), 0, 0, 0)
    for write in (write_trajectory_csv, _csv_writer_oracle):
        with pytest.raises(UnicodeEncodeError):
            write(result, str(tmp_path / "traj.csv"))


def _summary_bytes(result):
    return (json.dumps(summary_dict(result), indent=2) + "\n").encode()


def test_a_short_run_written_over_a_longer_one_leaves_only_its_bytes(
        tmp_path):
    csv_path, summary_path = tmp_path / "traj.csv", tmp_path / "summary.json"
    longer = run_scenario(bundled("no_attack"))
    write_trajectory_csv(longer, str(csv_path))
    write_summary(longer, str(summary_path))
    old_sizes = csv_path.stat().st_size, summary_path.stat().st_size
    short = _edge_result(3, 0.01)
    write_trajectory_csv(short, str(csv_path))
    write_summary(short, str(summary_path))
    _csv_writer_oracle(short, str(tmp_path / "oracle.csv"))
    assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert summary_path.read_bytes() == _summary_bytes(short)
    new_sizes = csv_path.stat().st_size, summary_path.stat().st_size
    assert all(new < old for new, old in zip(new_sizes, old_sizes))


@pytest.mark.parametrize("link", [os.symlink, os.link],
                         ids=["symlink", "hard_link"])
def test_a_link_at_an_output_path_is_replaced_not_written_through(
        link, tmp_path):
    # Each writer removes what is at its path and creates a new file.
    result = _edge_result(3, 0.01)
    _csv_writer_oracle(result, str(tmp_path / "oracle.csv"))
    for write, expected in (
            (write_trajectory_csv, (tmp_path / "oracle.csv").read_bytes()),
            (write_summary, _summary_bytes(result))):
        target, path = tmp_path / "target", tmp_path / "out"
        target.write_bytes(b"old bytes\n")
        link(target, path)
        write(result, str(path))
        assert not path.is_symlink()
        assert path.read_bytes() == expected
        assert path.stat().st_ino != target.stat().st_ino
        assert target.read_bytes() == b"old bytes\n"
        target.unlink()
        path.unlink()


def test_an_output_file_is_created_with_the_umask_mode(tmp_path):
    result = _edge_result(3, 0.01)
    umask = os.umask(0o027)
    try:
        for write in (write_trajectory_csv, write_summary):
            path = tmp_path / write.__name__
            path.write_bytes(b"old bytes\n")
            path.chmod(0o600)
            write(result, str(path))
            assert path.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(umask)


def test_an_output_file_the_process_may_not_write_is_refused_and_kept(
        tmp_path, monkeypatch):
    # As open refuses it.  A mode without write bits does not stop root,
    # so os.access, which the writers ask, answers for such a process.
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    result = _edge_result(3, 0.01)
    for write in (write_trajectory_csv, write_summary):
        path = tmp_path / write.__name__
        path.write_bytes(b"old bytes\n")
        path.chmod(0o444)
        inode = path.stat().st_ino
        with pytest.raises(PermissionError) as refused:
            write(result, str(path))
        assert refused.value.errno == errno.EACCES
        assert path.read_bytes() == b"old bytes\n"
        assert path.stat().st_ino == inode


def test_a_dangling_symlink_at_an_output_path_is_written_through(tmp_path):
    result = _edge_result(3, 0.01)
    _csv_writer_oracle(result, str(tmp_path / "oracle.csv"))
    for write, expected in (
            (write_trajectory_csv, (tmp_path / "oracle.csv").read_bytes()),
            (write_summary, _summary_bytes(result))):
        target, path = tmp_path / "target", tmp_path / "out"
        path.symlink_to(target)
        write(result, str(path))
        assert path.is_symlink()
        assert target.read_bytes() == expected
        target.unlink()
        path.unlink()


def test_mode_names_need_no_csv_quoting():
    # write_trajectory_csv checks only the event field for quoting.
    for mode in _MODES:
        assert not set(mode) & set(',"\r\n'), mode


def test_summary_dict_contents():
    result = run_scenario(bundled("no_attack"))
    summary = summary_dict(result)
    assert set(summary) == {"stop_error_m", "stop_time_s", "mode_switches",
                            "auth_failures", "balise_missing_events"}
    assert summary["stop_error_m"] == result.stop_error
    assert summary["auth_failures"] == 0
    assert summary["balise_missing_events"] == result.balise_missing_events

