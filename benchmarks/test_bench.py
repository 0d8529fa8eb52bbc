"""Self-tests of the benchmark.

    python3 -m pytest benchmarks -q

They run each workload at the smallest size (one unit), check that the
correctness gate fires when a reference value is perturbed, and check that
no span's self time is negative.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from balisim import auth, codec  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_auth_track_50_makes_1225_verify_and_1275_kdf_calls_per_run():
    stats = workloads.Stats()
    track = workloads.AuthTrack50(seed=1)
    track.prepare()
    with tracing.Tracer() as tracer:
        track.unit(stats)
    table = tracer.table(units=1)
    assert stats.failed == 0
    assert table["auth.verify_and_decode.calls"] == 1225
    assert table["auth.derive_keys.calls"] == 1275


def _perturbed(path: list[str], delta: float) -> dict:
    reference = copy.deepcopy(workloads.REFERENCE)
    node = reference
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return reference


def test_gate_fires_on_perturbed_bundled_stop_error(tmp_path):
    reference = _perturbed(["bundled_batch", "no_attack", "stop_error_m"], 0.001)
    stats = workloads.Stats()
    batch = workloads.BundledBatch(1, str(tmp_path), reference=reference)
    batch.prepare()
    batch.unit(stats)
    assert stats.failed == 1
    assert stats.messages[0].startswith("no_attack: stop_error_m")


def test_gate_fires_on_perturbed_auth_track_stop_error():
    reference = _perturbed(["auth_track_50", "stop_error_m"], 1e-12)
    stats = workloads.Stats()
    track = workloads.AuthTrack50(1, reference=reference)
    track.prepare()
    track.unit(stats)
    assert stats.failed == 1


def test_gate_fires_on_a_wrong_csv_digest(tmp_path):
    reference = copy.deepcopy(workloads.REFERENCE)
    reference["bundled_batch"]["tamper_b1_legacy"]["csv_sha256"] = "0" * 64
    stats = workloads.Stats()
    batch = workloads.BundledBatch(1, str(tmp_path), reference=reference)
    batch.prepare()
    batch.unit(stats)
    assert stats.messages == ["tamper_b1_legacy: trajectory.csv differs "
                              "from the reference"]


def test_run_exits_nonzero_when_the_gate_fires(monkeypatch, capsys):
    monkeypatch.setitem(workloads.REFERENCE["auth_track_50"], "steps", 1)
    assert run.main(["--workload", "auth_track_50", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_telegram_gate_counts_undetected_errors_and_clean_rejections():
    wl = workloads.TelegramRW(seed=5)
    corrupted = next(b for b in wl.population if b.flips)
    clean = next(b for b in wl.population if not b.flips)
    user = [0] * corrupted.fmt.user_bits
    stats = workloads.Stats()
    wl.check(corrupted, user, codec.NoTelegramFound("x"), stats)
    assert stats.failed == 0 and stats.counts["rejected"] == 1
    wl.check(corrupted, user, [1] + user[1:], stats)
    assert stats.failed == 1 and stats.counts["undetected"] == 1
    wl.check(clean, user, auth.AuthFailure("x"), stats)
    assert stats.failed == 2


def test_telegram_population_follows_the_seed():
    a, b = workloads.TelegramRW(seed=7), workloads.TelegramRW(seed=7)
    assert a.population == b.population
    assert a.population != workloads.TelegramRW(seed=8).population
    short = sum(1 for x in a.population if x.fmt is codec.SHORT)
    assert short == workloads.POPULATION // workloads.SHORT_EVERY
    corrupted = sum(1 for x in a.population if x.flips)
    assert corrupted == workloads.POPULATION // workloads.CORRUPT_EVERY


def test_span_self_time_is_never_negative(tmp_path):
    stats = workloads.Stats()
    batch = workloads.BundledBatch(1, str(tmp_path))
    batch.prepare()
    with tracing.Tracer(run_id=lambda: stats.attempted) as tracer:
        batch.unit(stats)
    assert codec.decode_stream.__name__ == "decode_stream"
    assert not hasattr(codec.decode_stream, "__wrapped__")
    self_times = tracer.self_times()
    assert len(self_times) > 100_000
    assert min(self_times) >= 0.0
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent)
             if p < 0]
    assert sum(self_times) == pytest.approx(sum(roots), rel=1e-9)
    assert set(tracer.run) == set(range(1, stats.attempted + 1))


def test_checkout_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(run.BENCH_DIR):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(run.BENCH_DIR, name), bench / name)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "telegram_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
