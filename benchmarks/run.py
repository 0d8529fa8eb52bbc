"""Run one balisim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload bundled_batch --seed 1 --seconds 10 --trace 0

Workloads: bundled_batch, auth_track_50, telegram_rw (see workloads.py and
README.md).  With --trace 0 the workload runs untraced and the end-to-end
metrics are printed; timed samples are scaled by the speed of the host
(calibration.py).  With --trace 1 it runs untraced for half the time and
traced for the other half, and the per-layer metrics and the tracing
overhead are printed, in host seconds; the spans go to
.bench_out/<workload>/spans.tsv.gz.

Human-readable lines come first.  The last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every output matched the reference; it is 2 when the checkout holds no
balisim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("bundled_batch", "auth_track_50", "telegram_rw")

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7


def load_program() -> None:
    """Import balisim from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "balisim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no balisim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import balisim
    if os.path.dirname(os.path.abspath(balisim.__file__)) != package:
        print(f"error: balisim was imported from {balisim.__file__}",
              file=sys.stderr)
        sys.exit(2)


def measure_setup(workload: str, seed: int) -> float:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_units(workload, stats, seconds: float) -> float:
    """Run whole units, at least one, until `seconds` have passed.

    Returns the peak RSS in MB after the first unit.  That is the
    program's peak on a fixed piece of work: the samples that later units
    add to the benchmark's bookkeeping, more of them the faster the
    program, are not in it.
    """
    deadline = perf_counter() + seconds
    workload.unit(stats)
    stats.units += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while perf_counter() < deadline:
        workload.unit(stats)
        stats.units += 1
    return peak_rss_mb


def end_to_end(workload, stats, setup_s: float,
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    from workloads import percentile_ms, rate
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (rate(workload, stats.samples, stats), "1/s"),
        "op_ms_p50": (
            percentile_ms(workload.latencies(stats.samples), 50), "ms"),
    }


def host_seconds(workload, stats) -> list[tuple[str, float, str]]:
    """The timed metrics again, unscaled.  steady.py records them beside
    the scaled ones, to show what the calibration does."""
    from workloads import percentile_ms, rate
    return [
        ("host.work_per_s", rate(workload, stats.host_samples, stats), "1/s"),
        ("host.op_ms_p50",
         percentile_ms(workload.latencies(stats.host_samples), 50), "ms"),
    ]


def print_rows(rows) -> None:
    for name, value, unit in rows:
        print(f"  {name:<52} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, BENCH_DIR)
    import tracer as tracing
    import workloads
    from calibration import SpeedClock

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    out_dir = os.path.join(OUT_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workload.prepare()

    if args.trace == 0:
        with SpeedClock() as clock:
            phases = [workloads.Stats(clock)]
            peak_rss_mb = run_units(workload, phases[0], args.seconds)
        phases[0].finish()
        metrics = end_to_end(workload, phases[0], setup_s, peak_rss_mb)
        title = "end-to-end metrics (untraced)"
    else:
        # No calibration runs here: its pauses would land in the spans.
        phases = [workloads.Stats()]
        run_units(workload, phases[0], args.seconds / 2)
        phases[0].finish()
        traced = workloads.Stats()
        phases.append(traced)
        with tracing.Tracer(run_id=lambda: traced.attempted) as tracer:
            run_units(workload, traced, args.seconds / 2)
        traced.finish()
        tracer.write(os.path.join(out_dir, "spans.tsv.gz"))
        table = tracer.table(traced.units)
        untraced_rate = workloads.rate(workload, phases[0].samples, phases[0])
        traced_rate = workloads.rate(workload, traced.samples, traced)
        table["trace.untraced_work_per_s"] = untraced_rate
        table["trace.traced_work_per_s"] = traced_rate
        table["trace.overhead_ratio"] = 1.0 - traced_rate / untraced_rate
        units = tracing.metric_units()
        metrics = {name: (table[name], unit) for name, unit in units.items()}
        title = f"per-layer metrics, per unit of work ({traced.units} units traced)"
        print(f"{args.workload} seed={args.seed}: every traced function, per unit")
        print_rows((name, value, "") for name, value in table.items()
                   if name not in units)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"{args.workload} seed={args.seed}: {title}")
    print_rows((name, value, unit) for name, (value, unit) in metrics.items())
    print_rows(workload.details(phases[0]))
    if args.trace == 0:
        print_rows(host_seconds(workload, phases[0]))
    print_rows([("failed_ratio", failed / attempted, f"({failed}/{attempted})")])
    for phase in phases:
        for message in phase.messages:
            print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
