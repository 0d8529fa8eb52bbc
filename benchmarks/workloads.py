"""The benchmark workloads, their program-side preparation and their
correctness gate.

A workload object is built once per process.  Its constructor makes the
benchmark's inputs from the seed; its ``prepare`` method is the
program-side preparation that ``setup_s`` times.  It then runs whole units
until the run's time is up.  A unit is a fixed piece of work, so counts per
unit repeat exactly from run to run:

- ``bundled_batch``: one pass over the bundled scenarios, in sorted order;
- ``auth_track_50``: one run of the 50-balise authenticated track;
- ``telegram_rw``: one write and one read for each balise of a seeded
  population.

Each operation is checked as it completes, outside its timed region:
simulations against ``reference.json``, telegram reads against the
payload that was written.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import balisim
from balisim import auth, codec
from balisim.sim import deployment, scenario
from balisim.sim.deployment import BaliseSpec, KIND_CONTROLLED, KIND_FIXED
from calibration import SpeedClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(os.path.dirname(balisim.__file__), "scenarios")

with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as _f:
    REFERENCE = json.load(_f)


class Stats:
    """Timed samples, operation counts and failures of one run phase.

    Time an operation with `mark = stats.start()` and then
    `stats.stop(kind, mark)`.  After `finish`, `host_samples` holds the
    samples in host seconds and `samples` the same samples scaled by the
    speed of the host (see calibration.py), or unscaled when no clock ran.
    """

    MAX_MESSAGES = 20

    def __init__(self, clock: SpeedClock | None = None):
        self.clock = clock
        self.samples: dict[str, list[float]] = {}
        self.host_samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.steps = 0          # simulated 10 ms steps
        self.counts: Counter = Counter()
        self.messages: list[str] = []
        self._timed: list[tuple[str, float, float, float]] = []

    def begin(self) -> None:
        """Count one operation; called just before it starts."""
        self.attempted += 1

    def start(self) -> tuple[float, float]:
        return perf_counter(), self.clock.spent if self.clock else 0.0

    def stop(self, kind: str, mark: tuple[float, float]) -> None:
        end = perf_counter()
        start, spent = mark
        if self.clock:
            spent = self.clock.spent - spent
        self._timed.append((kind, start, end, end - start - spent))

    def finish(self) -> None:
        for kind, start, end, seconds in self._timed:
            factor = self.clock.scale(start, end) if self.clock else 1.0
            self.host_samples.setdefault(kind, []).append(seconds)
            self.samples.setdefault(kind, []).append(seconds * factor)
        self._timed.clear()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)


def rate(workload, samples: dict[str, list[float]], stats: Stats) -> float:
    """Work done per second of the timed samples of its work_kinds."""
    seconds = sum(sum(samples[kind]) for kind in workload.work_kinds)
    return workload.work_count(stats) / seconds


def percentile_ms(samples: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(samples) * 1e3
    return statistics.quantiles(samples, n=100)[pct - 1] * 1e3


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _scenario_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


class BundledBatch:
    """Each bundled scenario: load_config, run_scenario, write CSV and summary.

    The scenarios are fixed inputs, so the seed changes nothing here.
    """

    work_kinds = ("scenario",)

    def __init__(self, seed: int, out_dir: str | None = None,
                 reference: dict = REFERENCE):
        self.reference = reference["bundled_batch"]
        self.out_dir = out_dir
        self.paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))

    def prepare(self) -> None:
        configs = {_scenario_name(p): scenario.load_config(p) for p in self.paths}
        if sorted(configs) != sorted(self.reference):
            raise ValueError(f"bundled scenarios {sorted(configs)} differ from "
                             f"the reference set {sorted(self.reference)}")

    def unit(self, stats: Stats) -> None:
        for path in self.paths:
            name = _scenario_name(path)
            out = os.path.join(self.out_dir, name)
            os.makedirs(out, exist_ok=True)
            csv_path = os.path.join(out, "trajectory.csv")
            summary_path = os.path.join(out, "summary.json")
            stats.begin()
            mark = stats.start()
            try:
                result = scenario.run_scenario(scenario.load_config(path))
                scenario.write_trajectory_csv(result, csv_path)
                scenario.write_summary(result, summary_path)
            except Exception as exc:  # a failed scenario is counted, not fatal
                stats.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            stats.stop("scenario", mark)
            stats.steps += len(result.trajectory) - 1
            problem = self.check(name, result, csv_path, summary_path)
            if problem:
                stats.fail(f"{name}: {problem}")

    def check(self, name: str, result: scenario.SimResult, csv_path: str,
              summary_path: str) -> str | None:
        ref = self.reference[name]
        got = {
            "stop_error_m": round(result.stop_error, 3),
            "stop_time": result.stop_time,
            "steps": len(result.trajectory) - 1,
            "mode_switches": result.mode_switches,
            "auth_failures": result.auth_failures,
            "balise_missing_events": result.balise_missing_events,
        }
        for key, value in got.items():
            if value != ref[key]:
                return f"{key} {value!r} != reference {ref[key]!r}"
        if _sha256(csv_path) != ref["csv_sha256"]:
            return "trajectory.csv differs from the reference"
        with open(summary_path, encoding="utf-8") as f:
            if json.load(f).get("stop_error_m") != result.stop_error:
                return "summary.json does not carry the stop error"
        return None

    @staticmethod
    def work_count(stats: Stats) -> int:
        return stats.steps

    def latencies(self, samples: dict[str, list[float]]) -> list[float]:
        """Time of each whole pass."""
        times = samples["scenario"]
        n = len(self.paths)
        return [sum(times[i:i + n]) for i in range(0, len(times) - n + 1, n)]

    def details(self, stats: Stats) -> list[tuple[str, float, str]]:
        return [("sim_steps_per_s", rate(self, stats.samples, stats), "steps/s")]


def track_50() -> list[BaliseSpec]:
    """50 balises evenly spaced from -100 m to 0 m, id 50 the stop marker.

    Locations are whole millimetres: telegrams carry locations in mm, and
    the anomaly filter marks a balise received only when the report equals
    its map location, so an unrounded map would look like a missing balise.
    """
    return [
        BaliseSpec(id=i, loc=round(-100.0 * (50 - i) / 49, 3),
                   kind=KIND_FIXED if i < 50 else KIND_CONTROLLED)
        for i in range(1, 51)
    ]


class AuthTrack50:
    """One run_scenario of the resilient controller on the 50-balise track.

    The keystore is the scenario default, as in every bundled scenario, and
    the seed changes nothing.  Drawing the keys from the seed would change
    the result now and then: the reader tries every track key per crossing
    and a 12-bit tag accepts a wrong key with probability 2**-12 per trial
    (keystore seed 45 stops at -7.835 m).
    """

    work_kinds = ("run",)

    def __init__(self, seed: int, out_dir: str | None = None,
                 reference: dict = REFERENCE):
        self.reference = reference["auth_track_50"]

    def prepare(self) -> None:
        self.cfg = scenario.ScenarioConfig(
            balises=track_50(),
            controller=scenario.CONTROLLER_RESILIENT,
            auth_mode=deployment.AUTH_AUTHENTICATED,
            telegram_format=codec.LONG.name,
        )

    def unit(self, stats: Stats) -> None:
        stats.begin()
        mark = stats.start()
        try:
            result = scenario.run_scenario(self.cfg)
        except Exception as exc:  # a failed run is counted, not fatal
            stats.fail(f"{type(exc).__name__}: {exc}")
            return
        stats.stop("run", mark)
        stats.steps += len(result.trajectory) - 1
        ref = self.reference
        got = {
            "stop_error_m": result.stop_error,
            "steps": len(result.trajectory) - 1,
            "auth_failures": result.auth_failures,
            "balise_missing_events": result.balise_missing_events,
        }
        for key, value in got.items():
            if value != ref[key]:
                stats.fail(f"{key} {value!r} != reference {ref[key]!r}")
                return

    @staticmethod
    def work_count(stats: Stats) -> int:
        return stats.steps

    @staticmethod
    def latencies(samples: dict[str, list[float]]) -> list[float]:
        return samples["run"]

    def details(self, stats: Stats) -> list[tuple[str, float, str]]:
        return [("sim_steps_per_s", rate(self, stats.samples, stats), "steps/s")]


POPULATION = 1000
SHORT_EVERY = 4        # one short-format telegram to three long ones
CORRUPT_EVERY = 10     # one stream in ten goes through the bit-flip channel
MAX_FLIPS = 4


@dataclass(frozen=True)
class _Balise:
    id: int
    kind: str
    loc: float
    fmt: codec.TelegramFormat
    offset: int             # cyclic rotation of the received stream
    inverted: bool
    flips: tuple[int, ...]  # corrupted positions; empty for a clean stream

    def stream(self, telegram: list[int]) -> list[int]:
        """What the reader receives: the telegram rotated, corrupted,
        repeated three times and maybe inverted."""
        bits = telegram[self.offset:] + telegram[:self.offset]
        for pos in self.flips:
            bits[pos] ^= 1
        bits *= 3
        return [1 - b for b in bits] if self.inverted else bits


class TelegramRW:
    """Program and read back the telegrams of a seeded balise population.

    Rotations are spread evenly over each format's length, and exactly half
    the streams are inverted, so that the read-time distribution hardly
    depends on the seed.  A corrupted stream carries the same 1 to 4 flipped
    bits in each repetition, so no clean window survives and its read must
    end in a full-scan rejection.  The keys are derived in `prepare`; the
    rest of the population is benchmark input.
    """

    work_kinds = ("write", "read")

    def __init__(self, seed: int, out_dir: str | None = None):
        rng = random.Random(seed)
        self.keystore_seed = rng.getrandbits(63)
        ids = rng.sample(range(1 << auth.ID_BITS), POPULATION)
        fmts = [codec.SHORT if i % SHORT_EVERY == 0 else codec.LONG
                for i in range(POPULATION)]
        rng.shuffle(fmts)
        offsets = {}
        for fmt in (codec.LONG, codec.SHORT):
            count = fmts.count(fmt)
            spread = [i * fmt.n // count for i in range(count)]
            rng.shuffle(spread)
            offsets[fmt.name] = iter(spread)
        inverted = [i % 2 == 0 for i in range(POPULATION)]
        rng.shuffle(inverted)
        corrupt = set(rng.sample(range(POPULATION), POPULATION // CORRUPT_EVERY))
        self.population = []
        for i, (balise_id, fmt) in enumerate(zip(ids, fmts)):
            flips = ()
            if i in corrupt:
                flips = tuple(rng.sample(range(fmt.n), rng.randint(1, MAX_FLIPS)))
            self.population.append(_Balise(
                id=balise_id,
                kind=rng.choice((KIND_FIXED, KIND_CONTROLLED)),
                loc=rng.randrange(-10**6, 10**6) / 1000.0,
                fmt=fmt,
                offset=next(offsets[fmt.name]),
                inverted=inverted[i],
                flips=flips,
            ))

    def prepare(self) -> None:
        keystore = auth.new_keystore(seed=self.keystore_seed)
        self.keys = [keystore.keys_for(b.id) for b in self.population]

    def unit(self, stats: Stats) -> None:
        for b, keys in zip(self.population, self.keys):
            stats.begin()
            mark = stats.start()
            try:
                user = deployment.pack_payload(b.id, b.kind, b.loc, b.fmt)
                telegram = auth.encode_authenticated(user, keys, b.fmt)
            except Exception as exc:  # a failed write is counted, not fatal
                stats.fail(f"write {b.id}: {type(exc).__name__}: {exc}")
                continue
            stats.stop("write", mark)
            if len(telegram) != b.fmt.n:
                stats.fail(f"write {b.id}: {len(telegram)} bits, {b.fmt.name} "
                           f"needs {b.fmt.n}")
                continue
            stream = b.stream(telegram)
            stats.begin()
            mark = stats.start()
            try:
                got = auth.verify_and_decode(stream, keys, b.fmt)
            except (codec.CodecError, auth.AuthFailure) as exc:
                got = exc
            except Exception as exc:  # any other exception is a failure
                stats.fail(f"read {b.id}: {type(exc).__name__}: {exc}")
                continue
            stats.stop("read", mark)
            self.check(b, user, got, stats)

    @staticmethod
    def check(b: _Balise, user: list[int], got, stats: Stats) -> None:
        if b.flips:
            stats.counts["corrupted"] += 1
            if isinstance(got, Exception):
                stats.counts["rejected"] += 1
            elif got != user:
                stats.counts["undetected"] += 1
                stats.fail(f"read {b.id}: corrupted stream decoded to a "
                           f"payload that was not sent")
        elif isinstance(got, Exception):
            stats.fail(f"read {b.id}: clean stream rejected: "
                       f"{type(got).__name__}: {got}")
        elif got != user:
            stats.fail(f"read {b.id}: wrong payload from a clean stream")

    @staticmethod
    def work_count(stats: Stats) -> int:
        return len(stats.samples["write"]) + len(stats.samples["read"])

    @staticmethod
    def latencies(samples: dict[str, list[float]]) -> list[float]:
        return samples["read"]

    def details(self, stats: Stats) -> list[tuple[str, float, str]]:
        writes = stats.samples["write"]
        reads = stats.samples["read"]
        return [
            ("program_per_s", len(writes) / sum(writes), "telegrams/s"),
            ("read_per_s", len(reads) / sum(reads), "reads/s"),
            ("read_ms_p50", percentile_ms(reads, 50), "ms"),
            ("read_ms_p99", percentile_ms(reads, 99), "ms"),
            ("reads", len(reads), "count"),
            ("corrupted_streams", stats.counts["corrupted"], "count"),
            ("rejected_corrupted", stats.counts["rejected"], "count"),
            ("undetected_errors", stats.counts["undetected"], "count"),
        ]


WORKLOADS = {
    "bundled_batch": BundledBatch,
    "auth_track_50": AuthTrack50,
    "telegram_rw": TelegramRW,
}
