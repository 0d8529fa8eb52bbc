"""Scenario configuration, the stop-control run loop, and result output.

A scenario deploys telegrams on a balise sequence, optionally attacks
them, and integrates the train from p0 until standstill.  Balise
crossings are processed at the step in which the train position passes
the balise; the onboard reader decodes the transmitted stream through
the real codec.  read_telegram is that reader, and it reads an
alignment: the run loop, the check of a scenario's telegrams,
balisim verify and scripts/keyless_forgery.py pass it align_codeword of
a telegram int, which aligns each distinct codeword once per process.
A legacy reader descrambles with the public legacy S.  An authenticated
one tries the key of every balise id in the track map in turn and
accepts the first payload that verifies under a key, which
auth.verify_and_decode allows only for a payload that names the id of
that key (see auth).  A cloned telegram still verifies under its source
key and names its source id.
The controller is either the plain online braking controller, which
consumes reports as-is and skips a failed read, or the resilient
hybrid, which filters every encounter, read or failed, through one
derive_trustworthy_info call and falls back to the conservative
controller when balise_missing fires.  A scenario's keystore and
telegram files are read when its config is loaded, and the config holds
what they hold, so run_scenario reads no file.  The run loop evaluates
balise_missing only once p_est reaches the watch point the last
evaluation left, which derive_trustworthy_info resets at a crossing.

The run loop steps the train in stretches.  An event block handles the
crossings at the current position, the balise_missing evaluation and
the command the default controller holds (the hoa command, or
alpha_max once the marker is seen).  The steps up to the next event
follow: until the train reaches the next balise, p_est reaches the
watch point while the default controller of the resilient hybrid runs,
the train stops, or round(max_time_s / dt) steps are spent
(SimTimeout).  While the default controller runs, nothing between
events changes the command, and _hold takes the stretch: it repeats
BrakePlant.step's and PositionEstimate.advance's arithmetic on locals
and calls neither.  The conservative controller commands each step
from the speed of the step before, so its steps call it, the plant and
the estimate in turn.

Every step, held or not, appends its p, v and alpha_actual to the run's
Trajectory, as arrays of doubles, about 25 bytes a step.  alpha_cmd,
mode and event are held as runs of rows, and Trajectory.open_run alone
decides where a run opens: a held stretch offers it its first row (and
its second, after an event), and a conservative stretch each row whose
command is another object than the last one offered.  t is not stored:
row i is step i, and its t is i * dt, the float the loop computes.
write_trajectory_csv formats the columns and the runs.  It builds each
line as bytes, with one bytes % per row, and writes the file in binary
mode, as UTF-8.  It formats each run's command and its mode and event
once, and a v or alpha_actual text that a whole block of a run shares
once for the block.
It takes row i's t text, b"%.2f" % (i * dt), from a table of texts kept
for the process for one dt (_time_texts), as every run of a batch at the
same dt writes the same texts from row 0; rows past the table's
_TIME_TEXT_ROWS are formatted as they are written.
write_trajectory_csv and write_summary replace a regular file at their
path with a new one (_open_output), so a rewrite is never a truncate,
after which ext4 starts writeback in close().
"""

from __future__ import annotations

import errno
import functools
import json
import math
import operator
import os
import stat
import struct
from array import array
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .. import auth, codec
from .anomaly import AnomalyState, PositionEstimate, balise_missing, \
    derive_trustworthy_info
from .conservative import ConservativeController, MODE_MAX_BRAKE
from .deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, AttackSpec, \
    BaliseSpec, Clone, KIND_CONTROLLED, KIND_FIXED, Tamper, Unavailable, \
    apply_attacks, build_deployment, load_telegram, location_mm, parse_payload
from .hoa import FULL_BRAKE, HoaController, IGNORE
from . import params
from .params import MAX_STEPS, CheckedRecord, TrainParams, is_finite_number
from .plant import BrakePlant

CONTROLLER_HOA = "hoa"
CONTROLLER_RESILIENT = "resilient"

MODE_HOA = "hoa"


class ConfigError(ValueError):
    """Scenario configuration is malformed."""


class SimTimeout(Exception):
    """The train did not stop within max_time_s."""


DEFAULT_BALISES = (
    BaliseSpec(id=1, loc=-100.0, kind=KIND_FIXED),
    BaliseSpec(id=2, loc=-64.0, kind=KIND_FIXED),
    BaliseSpec(id=3, loc=-36.0, kind=KIND_FIXED),
    BaliseSpec(id=4, loc=-16.0, kind=KIND_FIXED),
    BaliseSpec(id=5, loc=-4.0, kind=KIND_FIXED),
    BaliseSpec(id=6, loc=0.0, kind=KIND_CONTROLLED),
)

# The names each enumerated field of a scenario takes.
_CHOICES = {
    "controller": (CONTROLLER_HOA, CONTROLLER_RESILIENT),
    "dbz_strategy": (FULL_BRAKE, IGNORE),
    "auth_mode": (AUTH_LEGACY, AUTH_AUTHENTICATED),
    "telegram_format": codec.FORMATS,
}


class _ScenarioFields(NamedTuple):
    train: TrainParams = TrainParams()
    balises: list[BaliseSpec] | tuple[BaliseSpec, ...] = DEFAULT_BALISES
    attacks: list[AttackSpec] | tuple[AttackSpec, ...] = ()
    controller: str = CONTROLLER_HOA
    dbz_strategy: str = FULL_BRAKE
    auth_mode: str = AUTH_LEGACY
    p_est0: float | None = None   # None: start from the true position
    delta0: float = 15.0
    growth_k: float = 0.02
    eta0: float = params.ETA0
    v_con: float = params.V_CREEP
    keystore: auth.Keystore = auth.new_keystore(seed=1)
    max_time_s: float = 600.0
    telegram_format: str = "long"
    # A balise id's codeword, deployed in place of the one it programs.
    telegrams: Mapping[int, int] = MappingProxyType({})


class ScenarioConfig(CheckedRecord, _ScenarioFields):
    """One scenario, checked when it is made; ConfigError if malformed."""

    __slots__ = ()

    def _replace(self, **kwargs) -> ScenarioConfig:
        # NamedTuple._replace would raise a plain ValueError.
        unknown = [name for name in kwargs if name not in self._fields]
        if unknown:
            raise ConfigError(f"unknown scenario field {unknown[0]!r}")
        return super()._replace(**kwargs)

    def _check(self) -> None:
        if not isinstance(self.train, TrainParams):
            raise ConfigError(f"train must be a TrainParams, not {self.train!r}")
        if type(self.balises) not in (list, tuple) or not all(
                isinstance(b, BaliseSpec) for b in self.balises):
            raise ConfigError("balises must be a list of BaliseSpec")
        if type(self.attacks) not in (list, tuple) or not all(
                isinstance(a, AttackSpec) for a in self.attacks):
            raise ConfigError("attacks must be a list of Tamper, Clone and "
                              "Unavailable")
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            # Only a str names a choice; a list `in` FORMATS would raise
            # TypeError.
            if type(value) is not str or value not in choices:
                raise ConfigError(f"unknown {name} {value!r}")
        locs = [b.loc for b in self.balises]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ConfigError("balise locations must be strictly increasing")
        controlled = [b for b in self.balises if b.kind == KIND_CONTROLLED]
        if len(controlled) != 1 or controlled[0].loc != 0.0:
            raise ConfigError("exactly one controlled balise at location 0 required")
        # A train that starts past a balise would read it, behind it, at
        # its first step.
        if self.train.p0 > self.balises[0].loc:
            raise ConfigError(f"train.p0 {self.train.p0} m lies past the "
                              f"first balise at {self.balises[0].loc} m")
        # A fixed balise reporting the stop point has no braking law
        # (hoa.DegenerateReference); its telegram carries whole millimetres.
        for b in self.balises:
            if b.kind == KIND_FIXED and location_mm(b.loc) == 0:
                raise ConfigError(f"fixed balise {b.id} at {b.loc} m "
                                  "reports the stop point")
        track_ids = [b.id for b in self.balises]
        if len(set(track_ids)) != len(track_ids):
            raise ConfigError("balise ids must be unique")
        ks = self.keystore
        if not (isinstance(ks, auth.Keystore) and type(ks.mk) is bytes
                and len(ks.mk) == 32 and type(ks.ver) is int
                and 0 <= ks.ver < (1 << auth.VER_BITS)):
            raise ConfigError("keystore must be a Keystore: 32-byte mk, 16-bit ver")
        fmt = codec.FORMATS[self.telegram_format]
        if type(self.telegrams) not in (dict, MappingProxyType) or not all(
                type(i) is int and i in track_ids
                and type(t) is int and 0 <= t < (1 << fmt.n)
                for i, t in self.telegrams.items()):
            raise ConfigError("telegrams must map balise ids of the track to "
                              f"ints of at most {fmt.n} bits")
        for balise_id, t in self.telegrams.items():
            # The reader is deterministic, so this is what every crossing
            # of the telegram (cloned or not) will read.
            fields = read_telegram(align_codeword(t, fmt), self.auth_mode,
                                   ks, track_ids, fmt)
            if fields is not None and fields[1:] == (KIND_FIXED, 0.0):
                raise ConfigError(f"the telegram of balise {balise_id} "
                                  "reports the stop point from a fixed balise")
        if self.p_est0 is not None and not is_finite_number(self.p_est0):
            raise ConfigError("p_est0 must be a finite number")
        for name in ("delta0", "growth_k"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite non-negative number")
        for name in ("eta0", "v_con", "max_time_s"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ConfigError(f"{name} must be a finite positive number")
        if self.max_time_s / self.train.dt > MAX_STEPS:
            raise ConfigError(f"max_time_s / train.dt exceeds {MAX_STEPS} steps")
        # run_scenario takes round(max_time_s / dt) steps; a run of none
        # would end in SimTimeout even for a train that stands still.
        if round(self.max_time_s / self.train.dt) < 1:
            raise ConfigError("max_time_s / train.dt rounds to 0 steps")
        # The plant's dead-time delay line holds round(Td / dt) entries.
        if self.train.Td / self.train.dt > MAX_STEPS:
            raise ConfigError(f"train.Td / train.dt exceeds {MAX_STEPS} steps")
        m = len(self.balises)
        for attack in self.attacks:
            if isinstance(attack, Tamper):
                try:
                    loc_mm = location_mm(attack.new_loc)
                except ValueError as exc:
                    raise ConfigError(f"attack {attack!r}: {exc}") from exc
                # A fixed balise reporting the stop point has no braking
                # law (hoa.DegenerateReference).
                if loc_mm == 0:
                    raise ConfigError(f"attack {attack!r} reports the stop point")
            indexes = ((attack.src, attack.dst) if isinstance(attack, Clone)
                       else (attack.balise,))
            # A bool would index the track as an int, a float would not.
            if not all(type(i) is int and 1 <= i <= m for i in indexes):
                raise ConfigError(f"attack {attack!r}: balise numbers must be "
                                  f"integers in 1..{m}")


_ATTACKS = {"tamper": Tamper, "clone": Clone, "unavailable": Unavailable}


def _parse_attack(raw: dict) -> AttackSpec:
    """The attack an object names by its "type"; its other keys are the
    attack's fields, so a missing or unknown one is a TypeError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"attack spec must be an object, got {raw!r}")
    kind = raw.get("type")
    attack = _ATTACKS.get(kind) if isinstance(kind, str) else None
    if attack is None:
        raise ConfigError(f"unknown attack type {kind!r}")
    return attack(**{k: v for k, v in raw.items() if k != "type"})


# The fields config_from_dict parses from "train", "balises" (and their
# telegram files), "attacks", "seed" and "keystore"; it copies the others.
_PLAIN_KEYS = tuple(field for field in ScenarioConfig._fields if field not in (
    "train", "balises", "attacks", "keystore", "telegrams"))


def config_from_dict(raw: dict, base_dir: str | None = None) -> ScenarioConfig:
    """raw's scenario, with the files it names read (relative to base_dir)."""
    def read_file(what: str, load, path):
        # open() would read an int path as a file descriptor.
        if type(path) is not str:
            raise ConfigError(f"{what} must be a path string, not {path!r}")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return _load_file(what, load, path)

    unknown = [key for key in raw if key not in
               ("train", "balises", "attacks", "keystore", "seed", *_PLAIN_KEYS)]
    if unknown:
        raise ConfigError(f"unknown scenario key {unknown[0]!r}")
    if "seed" in raw and "keystore" in raw:
        raise ConfigError("a scenario sets seed or keystore, not both")
    fmt_name = raw.get("telegram_format",
                       _ScenarioFields._field_defaults["telegram_format"])
    try:
        kwargs: dict = {}
        if "train" in raw:
            kwargs["train"] = TrainParams(**raw["train"])
        for key in ("balises", "attacks"):
            # Iterating a string or an object would read its characters
            # or keys as entries.
            if key in raw and type(raw[key]) is not list:
                raise ConfigError(f"{key} must be an array, got {raw[key]!r}")
        if "balises" in raw:
            specs, telegrams = [], {}
            for entry in raw["balises"]:
                if not isinstance(entry, dict):
                    raise ConfigError(
                        f"balise spec must be an object, got {entry!r}")
                spec = BaliseSpec(**{k: v for k, v in entry.items()
                                     if k != "telegram"})
                specs.append(spec)
                if "telegram" in entry:
                    what = f"balise {spec.id} telegram"
                    fmt, telegrams[spec.id] = read_file(
                        what, load_telegram, entry["telegram"])
                    if fmt.name != fmt_name:
                        raise ConfigError(f"{what} is {fmt.name}, scenario "
                                          f"uses {fmt_name!r}")
            kwargs["balises"] = tuple(specs)
            kwargs["telegrams"] = MappingProxyType(telegrams)
        if "attacks" in raw:
            kwargs["attacks"] = tuple(_parse_attack(a) for a in raw["attacks"])
        if "keystore" in raw:
            kwargs["keystore"] = read_file("keystore", auth.load_keystore,
                                           raw["keystore"])
        if "seed" in raw:
            # new_keystore would draw a random key for a null seed.
            if raw["seed"] is None:
                raise ConfigError("seed must be an integer in 0..2^64-1")
            kwargs["keystore"] = auth.new_keystore(seed=raw["seed"])
        kwargs.update((key, raw[key]) for key in _PLAIN_KEYS if key in raw)
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError as exc:  # nested deeper than the parser goes
            raise ValueError(f"malformed JSON: {exc}") from exc


def load_config(path: str) -> ScenarioConfig:
    """The scenario in a JSON file; an unreadable file is a ConfigError."""
    raw = _load_file("scenario", _read_json, path)
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

# A float's (or an int's) IEEE 754 double as bytes: compares bits, so that
# -0.0 differs from 0.0 and a NaN equals its copy.
_double_bits = struct.Struct("d").pack


class Trajectory:
    """A run's rows, held as columns and runs.

    p, v and alpha_actual are arrays of doubles, one value per row.
    alpha_cmd, mode and event are held as runs: run k covers rows
    starts[k] up to the next run's start, with command cmds[k], mode
    modes[k] and event events[k], and open_run decides where a run
    opens.  The alpha_cmd, mode and event properties expand the runs to
    one value per row.  t is not stored: row i is step i, so its t is
    i * dt.  len is the number of rows.  Two trajectories are equal when
    they hold the same bits.
    """

    __slots__ = ("dt", "p", "v", "alpha_actual", "starts", "cmds", "modes",
                 "events")

    def __init__(self, dt: float):
        """An empty trajectory: append each row's p, v and alpha_actual to
        the columns, and offer its command, mode and event to open_run."""
        self.dt = dt
        self.p, self.v, self.alpha_actual = array("d"), array("d"), array("d")
        self.starts, self.cmds = [], array("d")
        self.modes, self.events = [], []

    def open_run(self, start: int, cmd: float, mode: str, event: str) -> None:
        """Row start, on command cmd in mode and carrying event, continues
        the last run when that run has cmd's bits and mode, and neither it
        nor row start carries an event; otherwise it opens a run.

        So a run holds commands of one bit pattern (-0.0 apart from 0.0, a
        NaN with its copy), and a run with an event covers one row.  A row
        not offered continues the run before it.
        """
        events = self.events
        if event or not events or events[-1] or self.modes[-1] != mode \
                or _double_bits(self.cmds[-1]) != _double_bits(cmd):
            self.starts.append(start)
            self.cmds.append(cmd)
            self.modes.append(mode)
            events.append(event)

    def _expand(self, values) -> chain:
        """Each run's value in values, once per row of the run."""
        ends = chain(islice(self.starts, 1, None), (len(self.p),))
        return chain.from_iterable(map(repeat, values, map(
            operator.sub, ends, self.starts)))

    @property
    def alpha_cmd(self) -> array:
        return array("d", self._expand(self.cmds))

    @property
    def mode(self) -> list[str]:
        return list(self._expand(self.modes))

    @property
    def event(self) -> list[str]:
        return list(self._expand(self.events))

    def __len__(self) -> int:
        return len(self.p)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        # Past row 0, a different dt gives a different t.  Equal rows make
        # equal runs, as open_run alone opens them.  The floats compare as
        # their bytes: a NaN equals its copy, and -0.0, which writes other
        # CSV text, differs from 0.0.
        return ((self.dt == other.dt or len(self) <= 1)
                and (self.starts, self.modes, self.events)
                == (other.starts, other.modes, other.events)
                and all(a.tobytes() == b.tobytes() for a, b in zip(
                    (self.cmds, self.p, self.v, self.alpha_actual),
                    (other.cmds, other.p, other.v, other.alpha_actual))))


class SimResult(NamedTuple):
    stop_error: float
    stop_time: float
    trajectory: Trajectory
    mode_switches: int
    auth_failures: int
    balise_missing_events: int


def _received(t: int, fmt: codec.TelegramFormat) -> codec.Stream:
    """The stream a crossing receives: three copies of the codeword."""
    n = fmt.n
    return codec.Stream(t << 2 * n | t << n | t, 3 * n)


@functools.lru_cache(maxsize=1024)
def align_codeword(t: int, fmt: codec.TelegramFormat) -> codec.Aligned | None:
    """codec.align of the stream a crossing of codeword t receives.

    None when it does not align.  Every read of a telegram int aligns
    through here and passes the result to read_telegram.  Kept per
    (t, fmt) for the life of the process, 1,024 entries at most, about
    0.55 KB each (0.6 MB in all); the least recently read codeword goes
    first.  Alignment is a pure function of the received bits, so a kept
    result is never stale, and it holds only what a balise broadcasts in
    the clear.
    """
    try:
        return codec.align(_received(t, fmt), fmt)
    except codec.CodecError:
        return None


def read_telegram(
    aligned: codec.Aligned | None,
    auth_mode: str,
    keystore: auth.Keystore | None,
    track_ids: list[int],
    fmt: codec.TelegramFormat,
) -> tuple[int, str, float] | None:
    """(id, kind, loc) the reader reads from an aligned stream, trying the
    keys of track_ids in turn; None when unusable (see the module notes).
    aligned is None for a stream that does not align.  Each trial derives
    its key pair through auth.derive_keys under the keystore's mk and ver,
    whose cache returns the pair of an id requested before."""
    if aligned is None:
        return None  # neither mode reads a stream that does not align
    if auth_mode == AUTH_LEGACY:
        try:
            return parse_payload(codec.descramble_legacy(aligned, fmt), fmt)
        except ValueError:
            return None
    verify, derive = auth.verify_and_decode, auth.derive_keys
    mk, ver = keystore.mk, keystore.ver
    for balise_id in track_ids:
        try:
            keys = derive(mk, balise_id, ver)
            return parse_payload(verify(aligned, keys, fmt), fmt)
        except (auth.AuthFailure, ValueError):
            continue
    return None


def _load_file(what: str, load, path: str):
    """load(path), with a missing or malformed file as a ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc


def _hold(plant: BrakePlant, est: PositionEstimate, cmd: float, mode: str,
          event: str, rows: Trajectory, step: int, max_steps: int,
          next_loc: float, watch: float) -> int:
    """Steps step + 1, step + 2, ... under the held command cmd; returns
    the last step taken.

    Each step is BrakePlant.step(cmd) and then est.advance(v * dt), in
    their arithmetic and order, on locals that are written back at the
    end.  It appends each step's p, v and alpha_actual to rows, whose
    last row on entry is step's, and offers its first row, which carries
    event, to rows.open_run, and its second too when event is not empty;
    the rows after those continue that row's run.  The stretch ends at
    the step where the train stops, p reaches next_loc or p_est reaches
    watch, or at max_steps.  tests/test_scenarios.py pins it to the two
    methods bit for bit.
    """
    dt, Tp, alpha_max = plant.dt, plant.Tp, plant.alpha_max
    delay = plant._delay
    alpha, v, p = plant.alpha, plant.v, plant.p
    p_est, dist = est.p_est, est.dist_since_ref
    append_p, append_v = rows.p.append, rows.v.append
    append_alpha = rows.alpha_actual.append
    first = step + 1
    rows.open_run(first, cmd, mode, event)
    for step in range(first, max_steps + 1):
        if delay:
            delay.append(cmd)
            delayed = delay.popleft()
        else:
            delayed = cmd
        if Tp > 0:
            alpha += dt * (delayed - alpha) / Tp
        else:
            alpha = delayed
        alpha = alpha if alpha > alpha_max else alpha_max
        alpha = alpha if alpha < 0.0 else 0.0
        v += alpha * dt
        v = v if v > 0.0 else 0.0
        ds = v * dt
        p += ds
        p_est += ds
        dist += ds
        append_p(p)
        append_v(v)
        append_alpha(alpha)
        if v == 0.0 or p >= next_loc or p_est >= watch:
            break
    if event and step > first:
        rows.open_run(first + 1, cmd, mode, "")
    plant.alpha, plant.v, plant.p = alpha, v, p
    est.p_est, est.dist_since_ref = p_est, dist
    return step


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    fmt = codec.FORMATS[cfg.telegram_format]
    balises = cfg.balises
    track_ids = [b.id for b in balises]
    telegrams = build_deployment(balises, cfg.auth_mode, cfg.keystore, fmt)
    for i, balise_id in enumerate(track_ids):
        telegrams[i] = cfg.telegrams.get(balise_id, telegrams[i])
    apply_attacks(telegrams, balises, cfg.attacks, fmt)

    train = cfg.train
    plant = BrakePlant(train)
    hoa = HoaController(eta0=cfg.eta0, alpha_max=train.alpha_max,
                        dbz_strategy=cfg.dbz_strategy)
    resilient = cfg.controller == CONTROLLER_RESILIENT
    conservative = ConservativeController(v_con=cfg.v_con,
                                          alpha_max=train.alpha_max)
    p_est0 = train.p0 if cfg.p_est0 is None else cfg.p_est0
    est = PositionEstimate(p_est0, cfg.delta0, cfg.growth_k)
    # The map holds each fixed balise's location as its telegram reports it.
    state = AnomalyState(known_locs=[location_mm(b.loc) / 1000.0
                                     for b in balises if b.kind == KIND_FIXED])

    cmd = 0.0
    marker_seen = False
    conservative_active = False
    auth_failures = 0
    missing_events = 0
    mode_switches = 0
    next_idx = 0
    next_loc = balises[0].loc
    mode = MODE_HOA
    dt = train.dt
    rows = Trajectory(dt)
    append_p, append_v = rows.p.append, rows.v.append
    append_alpha, open_run = rows.alpha_actual.append, rows.open_run
    append_p(plant.p)
    append_v(plant.v)
    append_alpha(plant.alpha)
    open_run(0, cmd, mode, "")
    plant_step, advance = plant.step, est.advance
    max_steps = int(round(cfg.max_time_s / dt))
    step = 0  # steps taken

    while step < max_steps:
        # The event block, at the first step and where a crossing or the
        # watch point may change the command.
        events: list[str] = []

        # Balise crossings at the current position, in track order.
        while plant.p >= next_loc:
            t = telegrams[next_idx]
            next_idx += 1
            # NaN past the last balise: no position compares >= to it.
            next_loc = (balises[next_idx].loc
                        if next_idx < len(balises) else math.nan)
            label = f"B{next_idx}"
            if t is None:
                events.append(f"{label}:no_telegram")
                continue
            fields = read_telegram(align_codeword(t, fmt), cfg.auth_mode,
                                   cfg.keystore, track_ids, fmt)
            if fields is None:
                auth_failures += 1
                events.append(f"{label}:auth_fail")
                kind = loc_reported = None
            else:
                _, kind, loc_reported = fields
            if resilient:
                res = derive_trustworthy_info(
                    loc_reported, est, state,
                    allow_ordering=not conservative_active)
                events.append(f"{label}:{res.event}")
                # A stop marker that ordering placed at a fixed balise is
                # a clone: the controller brakes for that balise instead.
                if kind == KIND_CONTROLLED \
                        and res.event != "ordering_corrected":
                    marker_seen = True
                    events.append(f"{label}:marker")
                elif res.loc is not None and not conservative_active \
                        and not marker_seen:
                    cmd = hoa.on_balise(plant.v, res.loc)
            elif kind == KIND_CONTROLLED:
                marker_seen = True
                events.append(f"{label}:marker")
            elif kind == KIND_FIXED and not marker_seen:
                cmd = hoa.on_balise(plant.v, loc_reported)
                events.append(f"{label}:hoa_update")

        # Missing-balise detection, active while the default controller
        # runs; below the watch point no clause can fire.
        if resilient and not conservative_active and est.p_est >= state.watch:
            trigger = balise_missing(est, state)
            if trigger is not None:
                conservative_active = True
                missing_events += 1
                events.append(f"balise_missing({trigger})")

        # The default controller holds its command until the next event:
        # the hoa command, or the strongest braking once the marker is seen.
        if not conservative_active:
            if marker_seen:
                cmd = train.alpha_max
            new_mode = MODE_MAX_BRAKE if marker_seen else MODE_HOA
            if new_mode != mode:
                mode = new_mode
                mode_switches += 1

        # The stepping loop: one step (step < max_steps here), then more
        # up to the next event, the stop or the budget.
        event = ";".join(events)
        if conservative_active:
            # The command last offered to open_run, or None to offer the
            # next step's: a row whose command is that object, in the same
            # mode and after a row without an event, continues its run.
            run_cmd = None
            for step in range(step + 1, max_steps + 1):
                cmd = conservative.step(plant.v, marker_seen, dt)
                if conservative.mode != mode:
                    mode = conservative.mode
                    mode_switches += 1
                    run_cmd = None
                plant_step(cmd)
                p, v = plant.p, plant.v
                advance(v * dt)
                append_p(p)
                append_v(v)
                append_alpha(plant.alpha)
                if cmd is not run_cmd:
                    open_run(step, cmd, mode, event)
                    run_cmd = None if event else cmd
                    event = ""
                if v == 0.0 or p >= next_loc:
                    break
        else:
            step = _hold(plant, est, cmd, mode, event, rows, step, max_steps,
                         next_loc, state.watch if resilient else math.inf)
        # BrakePlant.stopped, without the property call.
        if plant.v == 0.0:
            return SimResult(
                stop_error=plant.p,
                stop_time=step * dt,
                trajectory=rows,
                mode_switches=mode_switches,
                auth_failures=auth_failures,
                balise_missing_events=missing_events,
            )
    raise SimTimeout(f"train still moving after {cfg.max_time_s} s")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

CSV_HEADER = ["t", "p", "v", "alpha_cmd", "alpha_actual", "mode", "event"]

# trajectory.csv is written byte for byte as csv.writer's default dialect
# would, in UTF-8: "\r\n" line ends and minimal quoting.  Each line is
# built as bytes and the file is written in binary mode.  Each run is
# written in blocks of up to _CSV_BLOCK_ROWS rows, and each block in one
# bytes % per row, into a line format built for that block: it holds the
# run's alpha_cmd text (b"%.6f") and its "mode,event" text, encoded as
# strict UTF-8 with each % doubled, as text.  It holds the v text too when
# the block's v values have one bit pattern, and the alpha_actual text
# when they all have one text (_shared_text); otherwise the column is a
# b"%.6f" field.  A row zipped from row i's t text, p and the columns left
# as fields is a tuple that formats straight into the line.  Row i's t
# text is b"%.2f" % (i * dt): the first _TIME_TEXT_ROWS of them come from
# _time_texts, and rows past those are formatted as they are written.
# The mode names contain no character that needs quoting; an event is
# checked by _csv_text.
_CSV_HEADER_LINE = (",".join(CSV_HEADER) + "\r\n").encode()
# A block's columns are copied, joined and written at this many rows at
# most, which bounds the memory of the formatted text.
_CSV_BLOCK_ROWS = 1024
# The t texts kept for one dt: 2^15 rows, 327 s at the default dt, cover
# every bundled run (17,597 rows at most) in about 1.5 MB.
_TIME_TEXT_ROWS = 1 << 15


@functools.lru_cache(maxsize=1)
def _time_texts(dt_repr: str) -> list[bytes]:
    """The t texts of rows 0, 1, ... at the dt whose repr is dt_repr.

    Kept for the process, for the last dt written.  The list starts
    empty, and write_trajectory_csv extends it in place up to
    _TIME_TEXT_ROWS texts, 40 bytes each.  It is keyed by repr, not by the
    float: -0.0 == 0.0, yet row 0's text is -0.00 at dt -0.0 and 0.00 at
    dt 0.0.
    """
    return []


def _open_output(path: str, kind: str, encoding: str | None = None):
    """Open path to write a run's output, in kind "b" or "t".

    A regular file at path, or a symlink to one, is removed and the file
    created anew, so a rewrite is never a truncate: a symlink or a hard
    link is replaced, not written through, and the new file's mode
    follows the umask.  A regular file that the process may not write
    is refused, as open refuses it.  Anything else is opened in place,
    as by open(path, "w"): a missing path, a dangling symlink, a device
    such as /dev/null, a FIFO, a directory (which fails), and a file
    that is one of the process's standard streams, as /dev/stdout is.
    """
    try:
        found = os.stat(path)
    except FileNotFoundError:
        found = None
    replace = (found is not None and stat.S_ISREG(found.st_mode)
               and not _is_standard_stream(found))
    if replace:
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        os.unlink(path)
    return open(path, ("x" if replace else "w") + kind, encoding=encoding)


def _is_standard_stream(found: os.stat_result) -> bool:
    for fd in (0, 1, 2):
        try:
            if os.path.samestat(found, os.fstat(fd)):
                return True
        except OSError:  # fd is closed
            pass
    return False


def _csv_text(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trajectory_csv(result: SimResult, path: str) -> None:
    """Write result's trajectory to path (see _open_output).

    The bytes are csv.writer's, with CSV_HEADER as the first line.  A
    write that fails or is killed leaves a partial file or none.
    """
    traj = result.trajectory
    n, dt = len(traj), traj.dt
    kept = min(n, _TIME_TEXT_ROWS)
    texts = _time_texts(repr(dt))
    start = len(texts)
    if start < kept:
        # One slice assignment: a write in another thread that extended
        # the list meanwhile has put the same text at each index.
        texts[start:kept] = [b"%.2f" % (i * dt) for i in range(start, kept)]
    times = chain(islice(texts, kept),
                  map(b"%.2f".__mod__, map(dt.__rmul__, range(kept, n))))
    cmds = map(b"%.6f".__mod__, traj.cmds)
    tails = (tail.encode().replace(b"%", b"%%") for tail in map(
        "%s,%s".__mod__, zip(traj.modes, map(_csv_text, traj.events))))
    ends = chain(islice(traj.starts, 1, None), (n,))
    p, v, alpha_actual = traj.p, traj.v, traj.alpha_actual
    with _open_output(path, "b") as f:
        f.write(_CSV_HEADER_LINE)
        for run_start, run_end, cmd, tail in zip(traj.starts, ends, cmds,
                                                 tails):
            for start in range(run_start, run_end, _CSV_BLOCK_ROWS):
                end = min(start + _CSV_BLOCK_ROWS, run_end)
                columns = [islice(times, end - start), p[start:end]]
                block_v = v[start:end]
                v_bytes = block_v.tobytes()
                if v_bytes == v_bytes[:8] * (end - start):
                    v_text = b"%.6f" % block_v[0]
                else:
                    v_text = b"%.6f"
                    columns.append(block_v)
                block_alpha = alpha_actual[start:end]
                alpha_text = _shared_text(block_alpha)
                if alpha_text is None:
                    alpha_text = b"%.6f"
                    columns.append(block_alpha)
                line = b"%%s,%%.6f,%s,%s,%s,%s\r\n" % (
                    v_text, cmd, alpha_text, tail)
                f.write(b"".join([line % row for row in zip(*columns)]))


def _shared_text(values: array) -> bytes | None:
    """The b"%.6f" text of every value in values, or None if they differ.

    %.6f rounds correctly, so it is monotone, and when the least and the
    greatest value have one text, every value between them has it too.
    A NaN makes the sum NaN (as do inf and -inf together), and min and
    max are then no bounds.  -0.0 == 0.0, so min and max may return
    either zero: a text of zero is shared only by values all below it
    (-0.000000) or all above it (0.000000).
    """
    if math.isnan(sum(values)):
        return None
    low, high = min(values), max(values)
    text = b"%.6f" % low
    if text != b"%.6f" % high or (text == b"-0.000000" and not high < 0.0) \
            or (text == b"0.000000" and not low > 0.0):
        return None
    return text


def summary_dict(result: SimResult) -> dict:
    return {
        "stop_error_m": result.stop_error,
        "stop_time_s": result.stop_time,
        "mode_switches": result.mode_switches,
        "auth_failures": result.auth_failures,
        "balise_missing_events": result.balise_missing_events,
    }


def write_summary(result: SimResult, path: str) -> None:
    """Write summary_dict(result) to path as JSON (see _open_output)."""
    with _open_output(path, "t", encoding="utf-8") as f:
        json.dump(summary_dict(result), f, indent=2)
        f.write("\n")
