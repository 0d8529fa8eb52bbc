"""Spans around the public functions of each balisim layer.

The tracer replaces each function in TARGETS at the place its caller looks
it up, records one span per call, and puts the originals back when it is
closed.  A span has a name, a start, an end, a parent span and a run id
(the ordinal of the benchmark operation that caused it).  Spans are kept
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; the children of one
span never overlap, because the program runs in one thread.

Two layers are not wrapped.  The ``bits`` helpers run once per 10- or
11-bit group, so a wrapper would cost more than the call; their time shows
in the self time of their ``codec`` and ``auth`` callers.  ``cli`` is not
wrapped either: ``simulate --batch`` is a process pool around the same
calls that bundled_batch makes serially, and on a small machine timing the
pool would measure the scheduler.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

from balisim import auth, codec
from balisim.sim import anomaly, conservative, deployment, hoa, plant, scenario

# (span name, namespace the caller looks the function up in, attribute).
# sim.scenario imports the anomaly and deployment functions by name, so
# they are replaced in the scenario module.
TARGETS = [
    ("codec.decode_stream", codec, "decode_stream"),
    ("codec.encode", codec, "encode"),
    ("codec.keystream", codec, "keystream"),
    ("codec.compute_check_bits", codec, "compute_check_bits"),
    ("codec.substitute", codec, "substitute"),
    ("codec.desubstitute", codec, "desubstitute"),
    ("auth.verify_and_decode", auth, "verify_and_decode"),
    ("auth.derive_keys", auth, "derive_keys"),
    ("auth.tag_sb", auth, "tag_sb"),
    ("auth.prf_s", auth, "prf_s"),
    ("auth.encode_authenticated", auth, "encode_authenticated"),
    ("sim.plant.BrakePlant.step", plant.BrakePlant, "step"),
    ("sim.hoa.HoaController.on_balise", hoa.HoaController, "on_balise"),
    ("sim.anomaly.derive_trustworthy_info", scenario, "derive_trustworthy_info"),
    ("sim.anomaly.balise_missing", scenario, "balise_missing"),
    ("sim.anomaly.PositionEstimate.advance", anomaly.PositionEstimate, "advance"),
    ("sim.conservative.ConservativeController.step",
     conservative.ConservativeController, "step"),
    ("sim.scenario.run_scenario", scenario, "run_scenario"),
    ("sim.scenario.load_config", scenario, "load_config"),
    ("sim.scenario.write_trajectory_csv", scenario, "write_trajectory_csv"),
    ("sim.scenario.write_summary", scenario, "write_summary"),
    ("sim.deployment.build_deployment", scenario, "build_deployment"),
    ("sim.deployment.apply_attacks", scenario, "apply_attacks"),
    ("sim.deployment.parse_payload", scenario, "parse_payload"),
    ("sim.deployment.pack_payload", deployment, "pack_payload"),
]
NAMES = [name for name, _, _ in TARGETS]

# Outcomes always reported, also when they did not occur.
OUTCOMES = {
    "codec.decode_stream": ("ok", "NoTelegramFound", "ControlBitError",
                            "AlphabetError"),
    "auth.verify_and_decode": ("ok", "AuthFailure"),
}

# Functions every workload calls.  The self time of any other function is
# exactly zero on some workload, so it is printed in the full table but is
# not a benchmark metric: a time that reads the same on every run is not a
# measurement.
SHARED = (
    "codec.decode_stream", "codec.encode", "codec.keystream",
    "codec.compute_check_bits", "codec.substitute", "codec.desubstitute",
    "auth.verify_and_decode", "auth.tag_sb", "auth.prf_s",
    "auth.encode_authenticated", "sim.deployment.pack_payload",
)

OVERHEAD = {
    "trace.untraced_work_per_s": "1/s",
    "trace.traced_work_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer benchmark metric, in order."""
    units = {f"{name}.calls": "count" for name in NAMES}
    for name, outcomes in OUTCOMES.items():
        units.update({f"{name}.{outcome}": "count" for outcome in outcomes})
    units["codec.decode_stream.shift_sum"] = "count"
    units["auth.verify_and_decode.useful_ratio"] = "ratio"
    units.update({f"{name}.self_s": "s" for name in SHARED})
    units.update(OVERHEAD)
    return units


class Tracer:
    """Context manager that wraps every function in TARGETS while open."""

    def __init__(self, run_id=lambda: 0):
        self.name_id = array("H")
        self.parent = array("l")
        self.run = array("L")
        self.start = array("d")
        self.end = array("d")
        self.outcomes: Counter = Counter()   # (name, outcome) -> calls
        self.shift_sum = 0
        self._stack: list[int] = []
        self._run_id = run_id
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for idx, (_, namespace, attr) in enumerate(TARGETS):
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(idx, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        stack = self._stack
        name_id, parent, run = self.name_id, self.parent, self.run
        start, end = self.start, self.end
        outcomes, run_id = self.outcomes, self._run_id
        is_decode = name == "codec.decode_stream"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            run.append(run_id())
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[span] = perf_counter()
                stack.pop()
                outcomes[name, type(exc).__name__] += 1
                raise
            end[span] = perf_counter()
            stack.pop()
            outcomes[name, "ok"] += 1
            if is_decode:
                self.shift_sum += result.shift
            return result

        return traced

    def self_times(self) -> array:
        """Self time of each span, in span order."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        result = array("d", own)
        for child, p in enumerate(self.parent):
            if p >= 0:
                result[p] -= own[child]
        return result

    def table(self, units: int) -> dict[str, float]:
        """Every per-function statistic, per unit of work."""
        calls = Counter()
        self_s = Counter()
        for idx, t in zip(self.name_id, self.self_times()):
            calls[NAMES[idx]] += 1
            self_s[NAMES[idx]] += t
        out: dict[str, float] = {}
        for name in NAMES:
            out[f"{name}.calls"] = calls[name] / units
            out[f"{name}.self_s"] = self_s[name] / units
        for name, outcomes in OUTCOMES.items():
            for outcome in outcomes:
                out[f"{name}.{outcome}"] = 0.0
        for (name, outcome), count in sorted(self.outcomes.items()):
            out[f"{name}.{outcome}"] = count / units
        out["codec.decode_stream.shift_sum"] = self.shift_sum / units
        verify = calls["auth.verify_and_decode"]
        out["auth.verify_and_decode.useful_ratio"] = (
            self.outcomes["auth.verify_and_decode", "ok"] / verify if verify else 0.0)
        return out

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\trun\tparent\tname\tstart_s\tend_s\n")
            for span, row in enumerate(zip(self.run, self.parent, self.name_id,
                                           self.start, self.end)):
                run, parent, idx, s, e = row
                f.write(f"{span}\t{run}\t{parent}\t{NAMES[idx]}\t{s!r}\t{e!r}\n")
