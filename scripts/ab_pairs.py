"""Compare two versions of balisim on one benchmark workload, in pairs.

    python3 scripts/ab_pairs.py BASE HEAD --workload W [--seeds 1-10] [--seconds 15]

BASE and HEAD are git revisions of this repository or source trees (a
directory holding src/balisim).  Both sides run in one fixed directory
(--work), which holds HEAD's benchmarks/ and BENCHMARK.json and, in
turn, each side's src/.  So the benchmark code, the checkout path and
everything but the program under test are the same for both sides.  For
each seed the two sides run `benchmarks/run.py --workload W --seed S
--seconds T --trace 0` one after the other; the first seed runs BASE
first, the next HEAD first, and so on.

For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, how many pairs HEAD won, HEAD's median minus
BASE's, and the median of first-run minus second-run values, where an
effect of the order shows.  The last line is one JSON object with the
same figures.  Only the stdlib and `git archive` are used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import zipfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_WORK = os.path.join(tempfile.gettempdir(), "balisim-ab-pairs")


def parse_seeds(text: str) -> list[int]:
    """'1-10', '3' or '1,4,7-9' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], better: str) -> dict:
    """Figures of one metric over pairs of {"base", "head", "first"} runs.

    better is "higher" or "lower"; a tie is no win.
    """
    sign = 1 if better == "higher" else -1
    base = [p["base"] for p in pairs]
    head = [p["head"] for p in pairs]
    first_minus_second = [p["base"] - p["head"] if p["first"] == "base"
                          else p["head"] - p["base"] for p in pairs]
    base_q, head_q = quartiles(base), quartiles(head)
    return {
        "base": base_q,
        "head": head_q,
        "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        "pairs": len(pairs),
        "head_minus_base": head_q[1] - base_q[1],
        "base_iqr": base_q[2] - base_q[0],
        "first_minus_second": statistics.median(first_minus_second),
    }


def export(side: str, names: list[str], dest: str) -> None:
    """Copy names, paths under a tree's root, from side into dest.

    side is a directory, or else a git revision of this repository.
    """
    os.makedirs(dest, exist_ok=True)
    if os.path.isdir(side):
        for name in names:
            source = os.path.join(side, name)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(dest, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, os.path.join(dest, name))
        return
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=zip", side, "--", *names],
        capture_output=True, check=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as z:
        z.extractall(dest)


def run_side(tree: str, side_src: str, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One benchmark run of the src/ at side_src, placed in tree."""
    src = os.path.join(tree, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(side_src, src)
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run.py failed (exit {done.returncode}) on seed {seed}:\n"
                         f"{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--work", default=DEFAULT_WORK,
                        help=f"the fixed directory the runs use (default {DEFAULT_WORK})")
    args = parser.parse_args(argv)

    shutil.rmtree(args.work, ignore_errors=True)
    tree = os.path.join(args.work, "tree")
    sides = {name: os.path.join(args.work, name) for name in ("base", "head")}
    export(args.head, ["benchmarks", "BENCHMARK.json"], tree)
    for name, side in (("base", args.base), ("head", args.head)):
        export(side, ["src"], sides[name])
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"BENCHMARK.json of {args.head} has no workload {args.workload!r}")

    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {name: run_side(tree, os.path.join(sides[name], "src"),
                               args.workload, seed, args.seconds)
                for name in order}
        runs.append((order[0], pair))
        print(f"seed {seed}: {order[0]} first", file=sys.stderr)

    summary = {}
    print(f"{args.workload}: {args.base} (base) against {args.head} (head), "
          f"{len(runs)} pairs of {args.seconds:g} s runs")
    print(f"  {'metric':<12} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}"
          f" {'head wins':>9} {'head-base':>10} {'base IQR':>10} {'1st-2nd':>10}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        pairs = [{"base": pair["base"][name], "head": pair["head"][name],
                  "first": first} for first, pair in runs]
        s = summary[name] = summarize(pairs, metric["better"])
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (s["base"], s["head"])]
        print(f"  {name:<12} {cells[0]:>30} {cells[1]:>30}"
              f" {s['head_wins']:>4}/{s['pairs']:<4} {s['head_minus_base']:>+10.4g}"
              f" {s['base_iqr']:>10.4g} {s['first_minus_second']:>+10.4g}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
