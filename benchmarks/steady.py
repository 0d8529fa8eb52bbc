"""Run the benchmark on several seeds and report how steady each metric is.

    python3 benchmarks/steady.py --seeds 1-10
    python3 benchmarks/steady.py --seeds 1-10 --json benchmarks/baseline.json

Reads the command, run length, workloads and bounds from BENCHMARK.json,
runs every workload once per seed with --trace 0, and prints for each
end-to-end metric the median, the quartiles of statistics.quantiles(values,
n=4) and the spread (Q3 - Q1) / median next to the metric's bound.  A
spread is flagged when it is not below a third of the bound (setup_s is
reported but not flagged).  The timed metrics are also reported in host
seconds, unscaled, as the `host.` lines of run.py give them, so the record
shows what the calibration of calibration.py buys.  A run that fails its
correctness gate still counts for the spread; the seeds of such runs are
listed, and the exit code is 1 if there are any or if a spread is flagged.

With --json the results are written to that file, together with the
per-layer metrics of one traced run per workload on the first seed, and
the peak_rss_mb of one run three times as long on the first seed, which
does about three times as many operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LONG_RUN = 3    # the RSS check runs this many times run_seconds


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int,
             seconds: float | None = None) -> dict:
    """The JSON result of one run, with its host-second metrics under "host"."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds or spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.stderr.write(f"{' '.join(cmd)} exited with {done.returncode}\n")
        sys.stderr.write(done.stderr)
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit("no result line")
    result = json.loads(lines[-1])
    result["host"] = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0].startswith("host."):
            result["host"][fields[0][len("host."):]] = float(fields[1])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict = {}
    steady = True
    correct = True
    for workload in names:
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        results[workload] = {}
        for metric, bound in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            flag = metric != "setup_s" and s["spread"] >= bound / 3
            steady = steady and not flag
            print(f"{workload:<14} {metric:<12} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread "
                  f"{s['spread']:6.3f} bound {bound}"
                  f"{'  NOT STEADY' if flag else ''}", flush=True)
            results[workload][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], **s}
            if metric in runs[0]["host"]:
                h = summary([r["host"][metric] for r in runs])
                print(f"{workload:<14} {metric:<12} in host seconds: median "
                      f"{h['median']:<12.6g} spread {h['spread']:6.3f}",
                      flush=True)
                results[workload][metric]["host_seconds"] = h
        results[workload]["attempted_per_run"] = [r["attempted"] for r in runs]
        results[workload]["attempted"] = sum(r["attempted"] for r in runs)
        results[workload]["failed"] = sum(r["failed"] for r in runs)
        results[workload]["failed_seeds"] = [
            seed for seed, r in zip(seeds, runs) if not r["correct"]]
        print(f"{workload:<14} failed {results[workload]['failed']} of "
              f"{results[workload]['attempted']} operations, seeds "
              f"{results[workload]['failed_seeds']}", flush=True)
        correct = correct and not results[workload]["failed_seeds"]

    if args.json:
        traced = {w: run_once(spec, w, seeds[0], 1)["metrics"] for w in names}
        rss = {}
        for w in names:
            long = run_once(spec, w, seeds[0], 0,
                            seconds=LONG_RUN * spec["run_seconds"])
            rss[w] = {
                "median_attempted": statistics.median(
                    results[w]["attempted_per_run"]),
                "median_peak_rss_mb": results[w]["peak_rss_mb"]["median"],
                "long_run_attempted": long["attempted"],
                "long_run_peak_rss_mb": long["metrics"]["peak_rss_mb"]["value"],
            }
            print(f"{w:<14} peak_rss_mb {rss[w]['long_run_peak_rss_mb']:.4g} "
                  f"after {long['attempted']} operations, median "
                  f"{rss[w]['median_peak_rss_mb']:.4g}", flush=True)
        record = {
            "command": " ".join(["python3", "benchmarks/steady.py",
                                 "--seeds", args.seeds, "--json", args.json]),
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "end_to_end": results,
            "per_layer_first_seed": {
                w: {name: m["value"] for name, m in metrics.items()}
                for w, metrics in traced.items()},
            f"peak_rss_mb_at_{LONG_RUN}x_run_seconds": rss,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady and correct else 1


if __name__ == "__main__":
    sys.exit(main())
