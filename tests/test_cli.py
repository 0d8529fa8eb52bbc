"""End-to-end tests for the balisim command line.

Every test drives main(argv) in process and checks the exit-code
contract: 0 success, 1 verification failure, 2 input error, 3 timeout.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balisim
from balisim import auth
from balisim.cli import main
from balisim.codec import LONG, SHORT
from balisim.sim import BaliseSpec, scenario
from balisim.sim.deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, \
    load_telegram, program_telegram, save_telegram

from test_scenarios import _csv_writer_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")


@pytest.fixture
def keystore(tmp_path):
    path = tmp_path / "keys.json"
    assert main(["keygen", "--out", str(path), "--seed", "1"]) == 0
    return str(path)


def _program(tmp_path, keystore, **overrides):
    path = tmp_path / overrides.pop("name", "telegram.json")
    argv = ["program", "--id", "3", "--loc", "-36.0",
            "--keystore", keystore, "--out", str(path)]
    for key, value in overrides.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return str(path)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_keygen_writes_keystore(tmp_path, capsys):
    path = tmp_path / "ks.json"
    assert main(["keygen", "--out", str(path), "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == str(path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"mk_hex", "ver"}
    assert len(raw["mk_hex"]) == 64
    assert raw["ver"] == 0


def test_keygen_seed_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["keygen", "--out", str(a), "--seed", "7"])
    main(["keygen", "--out", str(b), "--seed", "7"])
    main(["keygen", "--out", str(c), "--seed", "8"])
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_keygen_unwritable_path_fails(tmp_path):
    assert main(["keygen", "--out", str(tmp_path / "no" / "ks.json")]) == 2


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_keygen_out_of_range_seed_exits_2(tmp_path, seed, capsys):
    path = tmp_path / "ks.json"
    assert main(["keygen", "--out", str(path), "--seed", seed]) == 2
    assert "seed" in capsys.readouterr().err
    assert not path.exists()


# ---------------------------------------------------------------------------
# program / verify
# ---------------------------------------------------------------------------

def test_program_verify_round_trip(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore)
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decode"] == "ok"
    assert report["auth"] == "pass"
    assert report["fields"] == {"id": 3, "kind": "fixed", "loc_m": -36.0}


def test_program_short_format_round_trip(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore, format="short")
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["auth"] == "pass"


def test_verify_rejects_legacy_telegram(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore, mode="legacy")
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decode"] == "ok"  # structurally valid, tag wrong
    assert report["auth"] == "fail"
    assert report["fields"] is None


def test_verify_rejects_corrupted_telegram(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore)
    fmt, t = load_telegram(telegram)
    save_telegram(telegram, t ^ 1 << (fmt.n - 101), fmt)  # flips bit 100
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decode"] == "fail"
    assert report["auth"] == "fail"


def test_telegram_files_keep_their_bytes(tmp_path, keystore):
    # The SHA-256 of files programmed before the telegram file held an int.
    long_file = _program(tmp_path, keystore, id=5, loc=-50, name="b5.tlg")
    short_file = _program(tmp_path, keystore, mode="legacy", format="short",
                          name="s3.tlg")
    digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in (long_file, short_file)]
    assert digests == [
        "fcc40e09baf2bf65732c7f975412d079e520cf24ccc82626c4669929ed929638",
        "54b4ac137a281e6f3416e7058d406ce4921bf4c78d4d28ab5d62442445ac4dee",
    ]


def test_verify_rejects_wrong_id(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore)
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["auth"] == "fail"


@pytest.mark.parametrize("balise_id,loc,verify_id", [
    # Under keystore seed 1, the key of 2778 passes the tag of balise 1's
    # telegram and descrambles a payload that names id 11348; the key of
    # 6757 passes that of balise 2 and descrambles an unknown kind code.
    (1, "-100.0", "2778"),
    (2, "-50.0", "6757"),
])
def test_verify_fails_a_tag_pass_under_a_key_that_does_not_own_the_payload(
        tmp_path, keystore, capsys, balise_id, loc, verify_id):
    telegram = _program(tmp_path, keystore, id=balise_id, loc=loc)
    capsys.readouterr()
    assert main(["verify", telegram, "--keystore", keystore, "--id", verify_id]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"decode": "ok", "auth": "fail", "fields": None}
    assert captured.err == ""


@pytest.mark.parametrize("telegram, code, report", [
    ("authenticated", 0, {"decode": "ok", "auth": "pass",
                          "fields": {"id": 3, "kind": "fixed", "loc_m": -36.0}}),
    ("legacy", 1, {"decode": "ok", "auth": "fail", "fields": None}),
    ("short zeros", 1, {"decode": "fail", "auth": "fail", "fields": None}),
])
def test_verify_aligns_the_telegram_once(tmp_path, keystore, capsys, monkeypatch,
                                         telegram, code, report):
    if telegram == "short zeros":  # no window of it is in the alphabet
        path = str(tmp_path / "zeros.json")
        save_telegram(path, 0, SHORT)
    else:
        path = _program(tmp_path, keystore, mode=telegram)
    calls = []
    align_codeword = scenario.align_codeword
    monkeypatch.setattr(scenario, "align_codeword",
                        lambda *args: calls.append(args) or align_codeword(*args))
    capsys.readouterr()
    assert main(["verify", path, "--keystore", keystore, "--id", "3"]) == code
    assert json.loads(capsys.readouterr().out) == report
    fmt, t = load_telegram(path)
    assert calls == [(t, fmt)]


@pytest.mark.parametrize("which", ["telegram", "keystore"])
@pytest.mark.parametrize("content", [b"", b"not json", b'{"bits": "\xff"}'],
                         ids=["empty", "not-json", "not-utf8"])
def test_verify_names_a_file_that_is_not_json(tmp_path, keystore, capsys,
                                              which, content):
    paths = {"telegram": _program(tmp_path, keystore), "keystore": keystore}
    bad = tmp_path / f"bad_{which}.json"
    bad.write_bytes(content)
    paths[which] = str(bad)
    capsys.readouterr()
    argv = ["verify", paths["telegram"], "--keystore", paths["keystore"], "--id", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(bad) in captured.err
    assert captured.out == ""


def test_verify_malformed_telegram_file(tmp_path, keystore):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "long"}')
    assert main(["verify", str(bad), "--keystore", keystore, "--id", "3"]) == 2


def test_verify_missing_keystore(tmp_path, keystore):
    telegram = _program(tmp_path, keystore)
    missing = str(tmp_path / "nope.json")
    assert main(["verify", telegram, "--keystore", missing, "--id", "3"]) == 2


@pytest.mark.parametrize("text", ['{"ver": 0}', '[1, 2]'])
def test_verify_malformed_keystore_exits_2(tmp_path, keystore, text):
    telegram = _program(tmp_path, keystore)
    bad = tmp_path / "bad_keys.json"
    bad.write_text(text)
    assert main(["verify", telegram, "--keystore", str(bad), "--id", "3"]) == 2


@pytest.mark.parametrize("balise_id", ["20000", "-1"])
def test_verify_out_of_range_id_exits_2(tmp_path, keystore, balise_id, capsys):
    telegram = _program(tmp_path, keystore)
    capsys.readouterr()
    argv = ["verify", telegram, "--keystore", keystore, "--id", balise_id]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_program_rejects_out_of_range_id(tmp_path, keystore):
    argv = ["program", "--id", "99999", "--loc", "0.0",
            "--keystore", keystore, "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2


@pytest.mark.parametrize("loc", ["inf", "-inf", "nan", "1e306"])
def test_program_rejects_non_finite_or_huge_loc(tmp_path, keystore, loc):
    argv = ["program", "--id", "1", f"--loc={loc}",
            "--keystore", keystore, "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    assert not (tmp_path / "t.json").exists()


def test_program_authenticated_needs_keystore(tmp_path):
    argv = ["program", "--id", "1", "--loc", "0.0",
            "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
@pytest.mark.parametrize("mode", [AUTH_LEGACY, AUTH_AUTHENTICATED])
def test_program_writes_what_the_simulator_programs(tmp_path, keystore, mode, fmt):
    written = _program(tmp_path, keystore, id=5, loc=-50, kind="controlled",
                       mode=mode, format=fmt.name, name="cli.tlg")
    spec = BaliseSpec(5, -50.0, "controlled")
    expected = tmp_path / "expected.tlg"
    save_telegram(str(expected), program_telegram(
        spec, mode, auth.load_keystore(keystore), fmt), fmt)
    assert Path(written).read_bytes() == expected.read_bytes()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_single_scenario(tmp_path, capsys):
    config = os.path.join(SCENARIO_DIR, "no_attack.json")
    assert main(["simulate", config, "--out", str(tmp_path)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert abs(printed) <= 0.3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_error_m"] == pytest.approx(printed, abs=5e-7)
    csv_text = (tmp_path / "trajectory.csv").read_text()
    assert csv_text.splitlines()[0] == "t,p,v,alpha_cmd,alpha_actual,mode,event"


def _batch_dir(tmp_path, names):
    batch = tmp_path / "configs"
    batch.mkdir()
    for name in names:
        src = os.path.join(SCENARIO_DIR, name + ".json")
        (batch / (name + ".json")).write_text(Path(src).read_text())
    return batch


def test_simulate_batch(tmp_path, capsys):
    batch = _batch_dir(tmp_path, ("no_attack", "availability_b1_resilient"))
    out = tmp_path / "results"
    assert main(["simulate", "--batch", str(batch), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = dict(line.split("\t") for line in lines)
    assert set(table) == {"no_attack", "availability_b1_resilient"}
    for name in table:
        assert (out / name / "trajectory.csv").exists()
        assert (out / name / "summary.json").exists()


def test_simulate_batch_writes_each_csv_at_its_own_dt(tmp_path):
    # dt_0005 runs first, so the kept t texts switch from dt 0.005 to
    # no_attack's 0.01 within the batch.
    batch = _batch_dir(tmp_path, ("no_attack",))
    raw = json.loads((batch / "no_attack.json").read_text())
    (batch / "dt_0005.json").write_text(json.dumps(
        {**raw, "train": {"dt": 0.005}}))
    out = tmp_path / "results"
    assert main(["simulate", "--batch", str(batch), "--out", str(out)]) == 0
    for name in ("dt_0005", "no_attack"):
        result = scenario.run_scenario(
            scenario.load_config(str(batch / (name + ".json"))))
        _csv_writer_oracle(result, str(tmp_path / "oracle.csv"))
        assert (out / name / "trajectory.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()


def test_simulate_batch_runs_in_process_in_name_order(tmp_path):
    # A batch runs its scenarios one after another in the calling process,
    # so neither importing the CLI nor running a batch loads a process
    # pool, nor the logging module that concurrent.futures imports.
    batch = _batch_dir(tmp_path, ("no_attack", "availability_b1_resilient"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(balisim.__file__)))
    lines = subprocess.run(
        [sys.executable, "-c",
         "import sys, balisim.cli\n"
         "code = balisim.cli.main(sys.argv[1:])\n"
         "print(code, sorted({'concurrent.futures', 'logging'} & set(sys.modules)))",
         "simulate", "--batch", str(batch), "--out", str(tmp_path / "results")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert lines[-1] == "0 []"
    assert [line.split("\t")[0] for line in lines[:-1]] == [
        "availability_b1_resilient", "no_attack"]


def test_importing_balisim_leaves_dataclasses_unloaded():
    # The records are NamedTuples and plain classes, so start-up does not
    # import dataclasses, nor the inspect and ast modules that it imports.
    src = os.path.dirname(os.path.dirname(os.path.abspath(balisim.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, balisim.cli, balisim.sim; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_simulate_config_and_batch_together_exit_2(tmp_path, capsys):
    batch = _batch_dir(tmp_path, ("no_attack",))
    out = tmp_path / "results"
    assert main(["simulate", str(batch / "no_attack.json"),
                 "--batch", str(batch), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: give one of a config path and --batch, "
                            "not both\n")
    assert captured.out == ""
    assert not out.exists()


def test_simulate_batch_uses_csv_and_summary_names(tmp_path, capsys):
    batch = _batch_dir(tmp_path, ("no_attack",))
    out = tmp_path / "results"
    assert main(["simulate", "--batch", str(batch), "--out", str(out),
                 "--csv", "traj.csv", "--summary", "s.json"]) == 0
    assert sorted(os.listdir(out / "no_attack")) == ["s.json", "traj.csv"]


@pytest.mark.parametrize("name", [os.path.abspath("traj.csv"),
                                  os.path.join("..", "traj.csv"),
                                  os.path.join("sub", "..", "..", "traj.csv")])
def test_simulate_batch_rejects_names_outside_the_scenario_dir(
        tmp_path, capsys, name):
    batch = _batch_dir(tmp_path, ("no_attack",))
    out = tmp_path / "results"
    assert main(["simulate", "--batch", str(batch), "--out", str(out),
                 "--csv", name]) == 2
    assert "error: with --batch" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_simulate_rejects_csv_and_summary_of_the_same_name(
        tmp_path, capsys, batch):
    configs = _batch_dir(tmp_path, ("no_attack",))
    target = (["--batch", str(configs)] if batch
              else [str(configs / "no_attack.json")])
    assert main(["simulate", *target, "--out", str(tmp_path / "results"),
                 "--csv", "out.txt", "--summary", "./out.txt"]) == 2
    assert "name the same file" in capsys.readouterr().err


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("case", ["out_is_a_file", "csv_dir_missing"])
def test_simulate_unwritable_output_exits_2(tmp_path, capsys, batch, case):
    configs = _batch_dir(tmp_path, ("no_attack",))
    out = tmp_path / "results"
    options = ["--out", str(out)]
    if case == "out_is_a_file":
        out.write_text("")
    else:
        options += ["--csv", os.path.join("sub", "x.csv")]
    target = (["--batch", str(configs)] if batch
              else [str(configs / "no_attack.json")])
    assert main(["simulate", *target, *options]) == 2
    assert "error: cannot write output" in capsys.readouterr().err


def test_simulate_batch_reports_successes_beside_an_unwritable_output(
        tmp_path, capsys):
    batch = _batch_dir(tmp_path, ("no_attack", "availability_b1_resilient"))
    out = tmp_path / "results"
    out.mkdir()
    (out / "no_attack").write_text("")  # blocks that scenario's directory
    assert main(["simulate", "--batch", str(batch), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("availability_b1_resilient\t")
    assert "no_attack\terror: cannot write output" in captured.err
    assert (out / "availability_b1_resilient" / "trajectory.csv").exists()


def test_simulate_timeout_exit_code(tmp_path):
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["max_time_s"] = 0.05
    config = tmp_path / "stuck.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 3


def test_simulate_run_of_no_step_exit_code(tmp_path, capsys):
    # 0.001 s is a tenth of a 10 ms step: the run would take none and time
    # out even for a train that stands still.
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["max_time_s"] = 0.001
    raw.setdefault("train", {})["v0"] = 0.0
    config = tmp_path / "no_step.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2
    assert "rounds to 0 steps" in capsys.readouterr().err


def test_simulate_needs_a_config_or_a_batch(capsys):
    assert main(["simulate"]) == 2
    assert capsys.readouterr().err == ("error: give one of a config path "
                                       "and --batch, not both\n")


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", str(tmp_path / "none.json")]) == 2
    assert main(["simulate", str(tmp_path)]) == 2  # a directory
    assert main(["simulate", "--batch", str(tmp_path)]) == 2  # empty dir
    assert main(["simulate"]) == 2  # neither config nor --batch


def test_simulate_bad_config_exit_code(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"controller": "mpc"}))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2


def test_simulate_train_past_its_first_balise_exit_code(tmp_path, capsys):
    # At p0 -50 it read B1 and B2, behind it, at its first step, and
    # stopped at +8.394 m with exit 0; p0 1.0 lies past the stop point.
    config = tmp_path / "past.json"
    for p0 in (-50.0, 1.0):
        config.write_text(json.dumps({"train": {"p0": p0}}))
        assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "train.p0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_simulate_train_that_sets_gamma_exit_code(tmp_path, capsys):
    # gamma was a train field that no run read: any value stopped the
    # default run at +0.111 m with exit 0.
    config = tmp_path / "gamma.json"
    config.write_text(json.dumps({"train": {"gamma": 5.0}}))
    capsys.readouterr()
    assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "gamma" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_simulate_balise_of_key_value_pairs_exit_code(tmp_path, capsys):
    # The track of no_attack with each balise an array of [key, value]
    # pairs: it ran and stopped at +0.111 m.
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["balises"] = [list(map(list, b.items())) for b in raw["balises"]]
    config = tmp_path / "pairs.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "balise spec must be an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_attack_on_missing_balise_exit_code(tmp_path):
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["attacks"] = [{"type": "tamper", "balise": 7, "new_loc": -1.0}]
    config = tmp_path / "b7.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", ['{"ver": 0}', '[1, 2]'])
def test_simulate_malformed_keystore_exit_code(tmp_path, text):
    (tmp_path / "keys.json").write_text(text)
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["auth_mode"] = "authenticated"
    raw["keystore"] = "keys.json"
    config = tmp_path / "keyed.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2


def test_simulate_non_finite_config_exit_code(tmp_path):
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw.setdefault("train", {})["v0"] = float("nan")
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(raw))  # written as the JSON token NaN
    assert "NaN" in config.read_text()
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("raw", [{"eta0": 1e300},
                                 {"train": {"v0": 1e160, "alpha_max": -1e170}}],
                         ids=["eta0", "train"])
def test_simulate_finite_config_of_an_infinite_command_exit_code(tmp_path, capsys, raw):
    # Each number is finite, but the hoa command is not: it ran, stopped
    # (at -24.551150 m for eta0) with exit 0, and wrote -inf alpha_cmd rows.
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the hoa braking command left the float range")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, token", [(True, "true"), (10**400, "1" + "0" * 400)],
                         ids=["true", "10**400"])
def test_simulate_bool_or_huge_int_as_number_exit_code(tmp_path, capsys, value, token):
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["p_est0"] = value
    config = tmp_path / "number.json"
    config.write_text(json.dumps(raw))
    assert f'"p_est0": {token}' in config.read_text()
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2
    assert "p_est0" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["legacy", "authenticated"])
def test_simulate_zero_metre_telegram_file_exit_code(tmp_path, keystore, mode):
    # A fixed balise whose telegram reports 0 m has no braking law.
    path = _program(tmp_path, keystore, id=1, loc=0, mode=mode, name="t0.txt")
    raw = json.loads(
        Path(SCENARIO_DIR, "tamper_b1_legacy.json").read_text())
    del raw["attacks"]
    raw["auth_mode"] = mode
    raw["keystore"] = keystore
    raw["balises"][0]["telegram"] = path
    config = tmp_path / "zero.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", str(config), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# JSON nested deeper than the parser's recursion limit
# ---------------------------------------------------------------------------

# 100,000 levels exceed the JSON parser's recursion guard on every
# supported Python; 3,000 already do on 3.11.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _assert_names_bad_file(code, err, bad):
    assert code == 2
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_simulate_deeply_nested_scenario_exits_2(tmp_path, capsys, batch):
    configs = tmp_path / "configs"
    configs.mkdir()
    bad = configs / "deep.json"
    bad.write_text(DEEP_JSON)
    target = ["--batch", str(configs)] if batch else [str(bad)]
    code = main(["simulate", *target, "--out", str(tmp_path / "out")])
    _assert_names_bad_file(code, capsys.readouterr().err, bad)


def test_deeply_nested_keystore_exits_2(tmp_path, keystore, capsys):
    telegram = _program(tmp_path, keystore)
    bad = tmp_path / "deep_keys.json"
    bad.write_text(DEEP_JSON)
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["auth_mode"] = "authenticated"
    raw["keystore"] = str(bad)
    config = tmp_path / "keyed.json"
    config.write_text(json.dumps(raw))
    capsys.readouterr()
    for argv in (["verify", telegram, "--keystore", str(bad), "--id", "3"],
                 ["program", "--id", "3", "--loc", "-36.0", "--keystore",
                  str(bad), "--out", str(tmp_path / "t.json")],
                 ["simulate", str(config), "--out", str(tmp_path)]):
        code = main(argv)
        err = capsys.readouterr().err
        _assert_names_bad_file(code, err, bad)
        assert "malformed keystore file" in err


def test_deeply_nested_telegram_file_exits_2(tmp_path, keystore, capsys):
    bad = tmp_path / "deep_telegram.json"
    bad.write_text(DEEP_JSON)
    raw = json.loads(Path(SCENARIO_DIR, "no_attack.json").read_text())
    raw["balises"][0]["telegram"] = str(bad)
    config = tmp_path / "with_file.json"
    config.write_text(json.dumps(raw))
    capsys.readouterr()
    for argv in (["verify", str(bad), "--keystore", keystore, "--id", "3"],
                 ["simulate", str(config), "--out", str(tmp_path)]):
        code = main(argv)
        err = capsys.readouterr().err
        _assert_names_bad_file(code, err, bad)
        assert "malformed telegram file" in err
