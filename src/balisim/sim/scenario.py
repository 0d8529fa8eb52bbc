"""Scenario configuration, the stop-control run loop, and result output.

A scenario deploys telegrams on a balise sequence, optionally attacks
them, and integrates the train from p0 until standstill.  Balise
crossings are processed at the step in which the train position passes
the balise; the onboard reader decodes the transmitted stream through
the real codec.  read_telegram is that reader: the run loop, the check
of a scenario's telegram files, balisim verify and
scripts/keyless_forgery.py all read a telegram int through it.  In both
auth modes it aligns each distinct codeword once per process (see
align_codeword).  A legacy reader then descrambles with the public
legacy S.  An authenticated one tries the key of every balise id in the
track map in turn and accepts the first payload that verifies under a
key, which auth.verify_and_decode allows only for a payload that names
the id of that key (see auth).  A cloned telegram still verifies under
its source key and names its source id.
The controller is either the plain online braking controller, which
consumes reports as-is and skips a failed read, or the resilient
hybrid, which filters every encounter, read or failed, through one
derive_trustworthy_info call and falls back to the conservative
controller when balise_missing fires.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import NamedTuple

from .. import auth, codec
from .anomaly import AnomalyState, PositionEstimate, balise_missing, \
    derive_trustworthy_info
from .conservative import ConservativeController, MODE_MAX_BRAKE
from .deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, AttackSpec, \
    BaliseSpec, Clone, KIND_CONTROLLED, KIND_FIXED, Tamper, Unavailable, \
    apply_attacks, build_deployment, load_telegram, location_mm, parse_payload
from .hoa import FULL_BRAKE, HoaController, IGNORE
from . import params
from .params import TrainParams, is_finite_number
from .plant import BrakePlant

CONTROLLER_HOA = "hoa"
CONTROLLER_RESILIENT = "resilient"

MODE_HOA = "hoa"


# The run loop keeps one trajectory row per step; a longer run is refused
# at config time rather than left to fill memory.
MAX_STEPS = 1_000_000


class ConfigError(ValueError):
    """Scenario configuration is malformed."""


class SimTimeout(Exception):
    """The train did not stop within max_time_s."""


DEFAULT_BALISES = [
    BaliseSpec(id=1, loc=-100.0, kind=KIND_FIXED),
    BaliseSpec(id=2, loc=-64.0, kind=KIND_FIXED),
    BaliseSpec(id=3, loc=-36.0, kind=KIND_FIXED),
    BaliseSpec(id=4, loc=-16.0, kind=KIND_FIXED),
    BaliseSpec(id=5, loc=-4.0, kind=KIND_FIXED),
    BaliseSpec(id=6, loc=0.0, kind=KIND_CONTROLLED),
]


class ScenarioConfig:
    """One scenario, checked when it is made; ConfigError if malformed.

    train, balises, attacks and telegram_files left as None are
    TrainParams(), DEFAULT_BALISES, no attacks and no telegram files.
    """

    def __init__(
        self,
        train: TrainParams | None = None,
        balises: list[BaliseSpec] | None = None,
        attacks: list[AttackSpec] | None = None,
        controller: str = CONTROLLER_HOA,
        dbz_strategy: str = FULL_BRAKE,
        auth_mode: str = AUTH_LEGACY,
        p_est0: float | None = None,   # None: start from the true position
        delta0: float = 15.0,
        growth_k: float = 0.02,
        eta0: float = params.ETA0,
        v_con: float = params.V_CREEP,
        seed: int = 1,
        max_time_s: float = 600.0,
        telegram_format: str = "long",
        keystore_path: str | None = None,
        telegram_files: dict[int, str] | None = None,
    ):
        self.train = TrainParams() if train is None else train
        self.balises = list(DEFAULT_BALISES) if balises is None else balises
        self.attacks = [] if attacks is None else attacks
        self.controller = controller
        self.dbz_strategy = dbz_strategy
        self.auth_mode = auth_mode
        self.p_est0 = p_est0
        self.delta0 = delta0
        self.growth_k = growth_k
        self.eta0 = eta0
        self.v_con = v_con
        self.seed = seed
        self.max_time_s = max_time_s
        self.telegram_format = telegram_format
        self.keystore_path = keystore_path
        self.telegram_files = {} if telegram_files is None else telegram_files
        self._check()

    def _check(self) -> None:
        if not isinstance(self.train, TrainParams):
            raise ConfigError(f"train must be a TrainParams, not {self.train!r}")
        if type(self.balises) is not list or not all(
                isinstance(b, BaliseSpec) for b in self.balises):
            raise ConfigError("balises must be a list of BaliseSpec")
        if type(self.attacks) is not list or not all(
                isinstance(a, AttackSpec) for a in self.attacks):
            raise ConfigError("attacks must be a list of Tamper, Clone and "
                              "Unavailable")
        if self.controller not in (CONTROLLER_HOA, CONTROLLER_RESILIENT):
            raise ConfigError(f"unknown controller {self.controller!r}")
        if self.dbz_strategy not in (FULL_BRAKE, IGNORE):
            raise ConfigError(f"unknown dbz_strategy {self.dbz_strategy!r}")
        if self.auth_mode not in (AUTH_LEGACY, AUTH_AUTHENTICATED):
            raise ConfigError(f"unknown auth_mode {self.auth_mode!r}")
        # A list is not a dict key: FORMATS would raise TypeError.
        if type(self.telegram_format) is not str \
                or self.telegram_format not in codec.FORMATS:
            raise ConfigError(f"unknown telegram_format {self.telegram_format!r}")
        locs = [b.loc for b in self.balises]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise ConfigError("balise locations must be strictly increasing")
        controlled = [b for b in self.balises if b.kind == KIND_CONTROLLED]
        if len(controlled) != 1 or controlled[0].loc != 0.0:
            raise ConfigError("exactly one controlled balise at location 0 required")
        # A fixed balise reporting the stop point has no braking law
        # (hoa.DegenerateReference); its telegram carries whole millimetres.
        for b in self.balises:
            if b.kind == KIND_FIXED and location_mm(b.loc) == 0:
                raise ConfigError(f"fixed balise {b.id} at {b.loc} m "
                                  "reports the stop point")
        track_ids = {b.id for b in self.balises}
        if len(track_ids) != len(self.balises):
            raise ConfigError("balise ids must be unique")
        # open() would read an int path as a file descriptor.
        if self.keystore_path is not None and type(self.keystore_path) is not str:
            raise ConfigError("keystore_path must be a string")
        if type(self.telegram_files) is not dict or not all(
                type(i) is int and i in track_ids and type(path) is str
                for i, path in self.telegram_files.items()):
            raise ConfigError("telegram_files must map balise ids of the "
                              "track to path strings")
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
        if type(self.seed) is not int or not 0 <= self.seed < (1 << 64):
            raise ConfigError("seed must be an integer in 0..2^64-1")
        if self.max_time_s / self.train.dt > MAX_STEPS:
            raise ConfigError(f"max_time_s / train.dt exceeds {MAX_STEPS} steps")
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


def _parse_attack(raw: dict) -> AttackSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"attack spec must be an object, got {raw!r}")
    kind = raw.get("type")
    try:
        if kind == "tamper":
            return Tamper(balise=raw["balise"], new_loc=raw["new_loc"])
        if kind == "clone":
            return Clone(src=raw["src"], dst=raw["dst"])
        if kind == "unavailable":
            return Unavailable(balise=raw["balise"])
    except KeyError as exc:
        raise ConfigError(f"bad attack spec {raw!r}") from exc
    raise ConfigError(f"unknown attack type {kind!r}")


def config_from_dict(raw: dict, base_dir: str | None = None) -> ScenarioConfig:
    def resolve(field: str, path) -> str:
        # open() would read an int path as a file descriptor.
        if type(path) is not str:
            raise ConfigError(f"{field} must be a path string, not {path!r}")
        if base_dir is not None and not os.path.isabs(path):
            return os.path.join(base_dir, path)
        return path

    try:
        kwargs: dict = {}
        if "train" in raw:
            kwargs["train"] = TrainParams(**raw["train"])
        if "balises" in raw:
            specs, files = [], {}
            for entry in raw["balises"]:
                entry = dict(entry)
                spec = BaliseSpec(**{k: v for k, v in entry.items()
                                     if k != "telegram"})
                specs.append(spec)
                if "telegram" in entry:
                    files[spec.id] = resolve(f"balise {spec.id} telegram",
                                             entry["telegram"])
            kwargs["balises"] = specs
            kwargs["telegram_files"] = files
        if "attacks" in raw:
            kwargs["attacks"] = [_parse_attack(a) for a in raw["attacks"]]
        if "keystore" in raw:
            kwargs["keystore_path"] = resolve("keystore", raw["keystore"])
        for key in ("controller", "dbz_strategy", "auth_mode", "p_est0",
                    "delta0", "growth_k", "eta0", "v_con", "seed",
                    "max_time_s", "telegram_format"):
            if key in raw:
                kwargs[key] = raw[key]
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

class TrajectoryRow(NamedTuple):
    t: float
    p: float
    v: float
    alpha_cmd: float
    alpha_actual: float
    mode: str
    event: str


class SimResult(NamedTuple):
    stop_error: float
    stop_time: float
    trajectory: list[TrajectoryRow]
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

    None when it does not align.  The reader of either auth mode and
    balisim verify align through here.  Kept per (t, fmt) for the life
    of the process, 1,024 entries at most, about 0.55 KB each (0.6 MB in
    all); the least recently read codeword goes first.  Alignment is a
    pure function of the received bits, so a kept result is never stale,
    and it holds only what a balise broadcasts in the clear.
    """
    try:
        return codec.align(_received(t, fmt), fmt)
    except codec.CodecError:
        return None


def read_telegram(
    t: int,
    auth_mode: str,
    keystore: auth.Keystore | None,
    track_ids: list[int],
    fmt: codec.TelegramFormat,
) -> tuple[int, str, float] | None:
    """(id, kind, loc) a crossing of codeword t reads, trying the keys of
    track_ids in turn; None when unusable (see the module notes)."""
    aligned = align_codeword(t, fmt)
    if aligned is None:
        return None  # neither mode reads a stream that does not align
    if auth_mode == AUTH_LEGACY:
        try:
            return parse_payload(codec.descramble_legacy(aligned, fmt), fmt)
        except ValueError:
            return None
    verify, keys_for = auth.verify_and_decode, keystore.keys_for
    for balise_id in track_ids:
        try:
            return parse_payload(verify(aligned, keys_for(balise_id), fmt), fmt)
        except (auth.AuthFailure, ValueError):
            continue
    return None


def _load_file(what: str, load, path: str):
    """load(path), with a missing or malformed file as a ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    fmt = codec.FORMATS[cfg.telegram_format]
    if cfg.keystore_path is not None:
        keystore = _load_file("keystore", auth.load_keystore, cfg.keystore_path)
    else:
        keystore = auth.new_keystore(seed=cfg.seed)
    balises = cfg.balises
    track_ids = [b.id for b in balises]
    telegrams = build_deployment(balises, cfg.auth_mode, keystore, fmt)
    for i, balise_id in enumerate(track_ids):
        path = cfg.telegram_files.get(balise_id)
        if path is not None:
            file_fmt, t = _load_file("telegram", load_telegram, path)
            if file_fmt.name != fmt.name:
                raise ConfigError(
                    f"telegram file {path} is {file_fmt.name}, "
                    f"scenario uses {fmt.name}")
            telegrams[i] = t
            # The reader is deterministic, so this is what every crossing
            # of the file's telegram (cloned or not) will read.
            fields = read_telegram(t, cfg.auth_mode, keystore, track_ids, fmt)
            if fields is not None and fields[1] == KIND_FIXED \
                    and fields[2] == 0.0:
                raise ConfigError(f"telegram file {path} reports the stop "
                                  "point from a fixed balise")
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
    state = AnomalyState(
        known_locs=[b.loc for b in cfg.balises if b.kind == KIND_FIXED])

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
    alpha_max = train.alpha_max
    rows = [TrajectoryRow(0.0, plant.p, plant.v, cmd, plant.alpha, mode, "")]
    append_row = rows.append
    # tuple.__new__ builds the same TrajectoryRow without the NamedTuple's
    # Python-level __new__, once per step.
    new_row = tuple.__new__
    max_steps = int(round(cfg.max_time_s / dt))

    for step in range(max_steps):
        # A step without a crossing or a missing balise builds no list.
        events: list[str] | tuple[()] = ()

        # Balise crossings at the current position, in track order.
        if plant.p >= next_loc:
            events = []
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
            fields = read_telegram(t, cfg.auth_mode, keystore, track_ids, fmt)
            if fields is None:
                auth_failures += 1
                events.append(f"{label}:auth_fail")
                kind = loc_reported = None
            else:
                _, kind, loc_reported = fields
            if resilient:
                res = derive_trustworthy_info(
                    fields is not None, loc_reported, est, state,
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

        # Missing-balise detection, active while the default controller runs.
        if resilient and not conservative_active:
            trigger = balise_missing(est, state)
            if trigger is not None:
                conservative_active = True
                missing_events += 1
                events = [*events, f"balise_missing({trigger})"]

        # Command selection.
        if conservative_active:
            cmd = conservative.step(plant.v, marker_seen, dt)
            new_mode = conservative.mode
        elif marker_seen:
            cmd = alpha_max
            new_mode = MODE_MAX_BRAKE
        else:
            new_mode = MODE_HOA
        if new_mode != mode:
            mode = new_mode
            mode_switches += 1

        plant.step(cmd)
        est.advance(plant.v * dt)
        append_row(new_row(TrajectoryRow, ((step + 1) * dt, plant.p, plant.v,
                                           cmd, plant.alpha, mode,
                                           ";".join(events) if events else "")))
        if plant.stopped:
            return SimResult(
                stop_error=plant.p,
                stop_time=(step + 1) * dt,
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
# would: "\r\n" line ends and minimal quoting.  A TrajectoryRow is a tuple,
# so it formats straight into this line.  The mode names contain no
# character that needs quoting; an event is checked by _csv_text.
_CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\r\n"
_CSV_ROW = "%.2f,%.6f,%.6f,%.6f,%.6f,%s,%s\r\n"
# Rows are joined and written in blocks of this many, which bounds the
# memory of the formatted text.
_CSV_BLOCK_ROWS = 1024


def _csv_text(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trajectory_csv(result: SimResult, path: str) -> None:
    rows = result.trajectory
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(_CSV_HEADER_LINE)
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            f.write("".join([
                _CSV_ROW % (row if not row.event
                            else (*row[:6], _csv_text(row.event)))
                for row in rows[start:start + _CSV_BLOCK_ROWS]]))


def summary_dict(result: SimResult) -> dict:
    return {
        "stop_error_m": result.stop_error,
        "stop_time_s": result.stop_time,
        "mode_switches": result.mode_switches,
        "auth_failures": result.auth_failures,
        "balise_missing_events": result.balise_missing_events,
    }


def write_summary(result: SimResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary_dict(result), f, indent=2)
        f.write("\n")
