"""scripts/ab_pairs.py: its statistics, a zero-second run of the tree against
itself, and a run stopped by SIGTERM."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from test_readme import ROOT, load_script

ab = load_script("ab_pairs")


@pytest.mark.parametrize("text, seeds", [
    ("1-10", list(range(1, 11))),
    ("3", [3]),
    ("1,4,7-9", [1, 4, 7, 8, 9]),
])
def test_parse_seeds(text, seeds):
    assert ab.parse_seeds(text) == seeds


def test_parse_seeds_rejects_an_empty_range():
    with pytest.raises(ValueError):
        ab.parse_seeds("5-4")


def test_quartiles_interpolate_between_sorted_values():
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summarize_counts_wins_by_direction_and_shows_the_order_effect():
    # HEAD is 10 higher in every pair, and whichever side runs second
    # reads 2 higher on top of that.
    pairs = []
    for i, base in enumerate([100.0, 104.0, 96.0, 100.0]):
        first = "base" if i % 2 == 0 else "head"
        head = base + 10.0
        if first == "base":
            head += 2.0
        else:
            base += 2.0
        pairs.append({"base": base, "head": head, "first": first})
    higher = ab.summarize(pairs, "higher", 0.2)
    assert higher["base"] == (99.0, 101.0, 103.0)
    assert higher["head"] == (109.5, 111.0, 112.5)
    assert (higher["head_wins"], higher["pairs"]) == (4, 4)
    assert higher["head_minus_base"] == 10.0
    assert higher["base_iqr"] == 4.0
    # First minus second: -12 where BASE runs first, +8 where HEAD does.
    assert higher["first_minus_second"] == -2.0
    lower = ab.summarize(pairs, "lower", 0.2)
    assert lower["head_wins"] == 0
    ties = [{"base": 1.0, "head": 1.0, "first": "base"}]
    assert ab.summarize(ties, "higher", 0.2)["head_wins"] == 0
    assert ab.summarize(ties, "lower", 0.2)["head_wins"] == 0


def _pairs(base, head):
    return [{"base": b, "head": h, "first": "base" if i % 2 == 0 else "head"}
            for i, (b, h) in enumerate(zip(base, head))]


BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0]


@pytest.mark.parametrize("head, better, bound, verdict", [
    # +5 in every pair, against a base IQR of 1.5
    ([b + 5 for b in BASE], "higher", 0.2, "gain"),
    ([b + 5 for b in BASE], "lower", 0.2, "no change"),
    ([b + 5 for b in BASE], "lower", 0.04, "worse"),
    # 9 of 10 pairs are enough for a gain, 8 are not
    ([b + 5 for b in BASE[:9]] + [90.0], "higher", 0.2, "gain"),
    ([b + 5 for b in BASE[:8]] + [90.0, 90.0], "higher", 0.2, "no change"),
    # every pair won, but the median moved less than the base IQR
    ([b + 1 for b in BASE], "higher", 0.2, "no change"),
    # worse by exactly the bound is not worse
    ([b - 25 for b in BASE], "higher", 0.25, "no change"),
    ([b - 26 for b in BASE], "higher", 0.25, "worse"),
    ([b - 26 for b in BASE], "lower", 0.25, "gain"),
])
def test_summarize_verdict(head, better, bound, verdict):
    assert ab.summarize(_pairs(BASE, head), better, bound)["verdict"] == verdict


def test_zero_second_pairs_of_the_tree_against_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ab_pairs.py"), ROOT, ROOT,
         "--workload", "auth_track_50", "--seeds", "1-2", "--seconds", "0",
         "--work", str(tmp_path / "work")],
        capture_output=True, text=True, check=True, timeout=300)
    assert done.stderr.splitlines() == ["seed 1: base first", "seed 2: head first"]
    result = json.loads(done.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    for name, figures in result["metrics"].items():
        assert figures["pairs"] == 2
        assert figures["verdict"] in ("gain", "worse", "no change")
        assert 0 <= figures["head_wins"] <= 2
        for side in ("base", "head"):
            q1, median, q3 = figures[side]
            assert 0 < q1 <= median <= q3, name
        assert f"  {name} " in done.stdout
    assert sorted(os.listdir(tmp_path / "work")) == ["base", "head", "tree"]


def test_sigterm_ends_the_benchmark_run_it_waits_for(tmp_path):
    # The script and its run.py child are one process group, so the group
    # is gone once both have ended.
    work = tmp_path / "work"
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "scripts", "ab_pairs.py"), ROOT, ROOT,
         "--workload", "auth_track_50", "--seeds", "1", "--seconds", "600",
         "--work", str(work)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (work / "tree" / "src").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(1)  # run.py starts once src/ is copied
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a run.py outlived the script"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
