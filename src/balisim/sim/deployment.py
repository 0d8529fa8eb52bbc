"""Trackside deployment: balise payloads, telegram programming, attacks.

Each balise stores one telegram whose user data encodes the balise id,
its kind (fixed position reference or controlled stop marker), and the
reported location.  Attacks transform the deployed telegrams the way a
trackside adversary would: tampering re-encodes modified user data in
legacy mode (the attacker holds no keys), cloning copies a valid
telegram bit-for-bit onto another balise, and an availability attack
suppresses transmission entirely.

The user data is one int of fmt.user_bits bits, first bit most
significant, as codec.encode takes it and auth.verify_and_decode
returns it: pack_payload builds it and parse_payload reads it with
shifts and masks.  A deployed telegram is the codec.codeword int of
fmt.n bits, from programming to the reader; only the telegram file
holds it as bits.

build_deployment programs a track only when it differs from the track
it built last.  A one-slot memo keeps that track's codewords, a tuple
of ints, keyed by the balise specs compared by value (loc -100 and
-100.0 are one key), the auth mode, the keystore and the format.
Building another track replaces the slot, which lives as long as the
process.  Each call wraps the kept ints in new DeployedBalise records,
so attacks and telegram files change only that run's records.  The
kept codewords expose nothing: a balise broadcasts its telegram in the
clear at every crossing.  The keystore in the slot's key is the one the
run holds, and auth's key memo keeps the master key of the last
authenticated track as well.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

from .. import auth, codec
from ..bits import bits_to_str, str_to_bits
from .params import is_finite_number

KIND_FIXED = "fixed"
KIND_CONTROLLED = "controlled"
_KIND_CODE = {KIND_FIXED: 0, KIND_CONTROLLED: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_LOC_BITS = 48  # reported location in signed millimeters
_KIND_BITS = 2
_FIELD_BITS = auth.ID_BITS + _KIND_BITS + _LOC_BITS  # the rest is zero pad


class _BaliseFields(NamedTuple):
    id: int
    loc: float
    kind: str


class BaliseSpec(_BaliseFields):
    """One balise of the track, checked when it is made."""

    __slots__ = ()

    def __new__(cls, id, loc, kind):
        self = super().__new__(cls, id, loc, kind)
        if type(self.id) is not int or not 0 <= self.id < (1 << auth.ID_BITS):
            raise ValueError("balise id must be a 14-bit integer")
        location_mm(self.loc)
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown balise kind {self.kind!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it runs the checks too.
        return cls(*iterable)


def location_mm(loc: float) -> int:
    """loc in whole millimetres; ValueError unless the payload can hold it."""
    if not is_finite_number(loc):
        raise ValueError(f"location {loc!r} must be a finite number")
    half = 1 << (_LOC_BITS - 1)
    # loc * 1000 can overflow to inf, which round() rejects; a product that
    # large is out of range anyway.
    loc_mm = round(loc * 1000.0) if abs(loc * 1000.0) < 2 * half else half
    if not -half <= loc_mm < half:
        raise ValueError(f"location {loc!r} is out of range")
    return loc_mm


def pack_payload(balise_id: int, kind: str, loc: float,
                 fmt: codec.TelegramFormat) -> int:
    """User data: id (14) | kind (2) | loc in signed mm (48) | zero pad."""
    if not 0 <= balise_id < (1 << auth.ID_BITS):
        raise ValueError("balise id must be a 14-bit integer")
    loc_mm = location_mm(loc)
    fields = (balise_id << _KIND_BITS | _KIND_CODE[kind]) << _LOC_BITS
    fields |= loc_mm & ((1 << _LOC_BITS) - 1)
    return fields << (fmt.user_bits - _FIELD_BITS)


def parse_payload(user: int, fmt: codec.TelegramFormat) -> tuple[int, str, float]:
    """Inverse of pack_payload; returns (id, kind, loc).

    Raises codec.FormatError, a ValueError, unless user is an int of
    fmt.user_bits bits, and ValueError for an unknown kind code.
    """
    codec.check_user(user, fmt)
    fields = user >> (fmt.user_bits - _FIELD_BITS)
    raw = fields & ((1 << _LOC_BITS) - 1)
    if raw >> (_LOC_BITS - 1):
        raw -= 1 << _LOC_BITS
    kind_code = (fields >> _LOC_BITS) & ((1 << _KIND_BITS) - 1)
    kind = _CODE_KIND.get(kind_code)
    if kind is None:
        raise ValueError(f"unknown kind code {kind_code}")
    return fields >> (_KIND_BITS + _LOC_BITS), kind, raw / 1000.0


AUTH_LEGACY = "legacy"
AUTH_AUTHENTICATED = "authenticated"

# sb used when programming legacy telegrams; carries no security.
LEGACY_SB = 0x555


class DeployedBalise:
    def __init__(self, spec: BaliseSpec, telegram: int | None):
        self.spec = spec
        self.telegram = telegram  # the codeword; None: transmission suppressed


def program_telegram(
    spec: BaliseSpec,
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
    loc_reported: float | None = None,
) -> int:
    """The codeword a (honest) programming tool would write."""
    loc = spec.loc if loc_reported is None else loc_reported
    user = pack_payload(spec.id, spec.kind, loc, fmt)
    if auth_mode == AUTH_AUTHENTICATED:
        if keystore is None:
            raise ValueError("authenticated deployment needs a keystore")
        sb, s = auth.generate_tag(user, keystore.keys_for(spec.id), fmt)
        return codec.codeword(user, sb, s, fmt)
    return codec.codeword(user, LEGACY_SB, codec.legacy_s_from_sb(LEGACY_SB), fmt)


@functools.lru_cache(maxsize=1)
def _track_codewords(
    balises: tuple[BaliseSpec, ...],
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
) -> tuple[int, ...]:
    return tuple(program_telegram(spec, auth_mode, keystore, fmt)
                 for spec in balises)


def build_deployment(
    balises: list[BaliseSpec],
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
) -> list[DeployedBalise]:
    """New records of the track's kept codewords (see the module notes)."""
    codewords = _track_codewords(tuple(balises), auth_mode, keystore, fmt)
    return [DeployedBalise(spec, t) for spec, t in zip(balises, codewords)]


def save_telegram(path: str, bits: list[int],
                  fmt: codec.TelegramFormat) -> None:
    """Telegram file: JSON with the format name and the bits as text."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"format": fmt.name, "bits": bits_to_str(bits)}, f)
        f.write("\n")


def load_telegram(path: str) -> tuple[codec.TelegramFormat, list[int]]:
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
            fmt = codec.FORMATS[raw["format"]]
            bits = str_to_bits(raw["bits"])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed telegram file {path}: {exc}") from exc
    if len(bits) != fmt.n:
        raise ValueError(
            f"telegram file {path}: {len(bits)} bits, {fmt.name} needs {fmt.n}")
    return fmt, bits


# ---------------------------------------------------------------------------
# Attacks (balise numbers are 1-based, matching B_1 .. B_m)
# ---------------------------------------------------------------------------

class Tamper(NamedTuple):
    balise: int
    new_loc: float


class Clone(NamedTuple):
    src: int
    dst: int


class Unavailable(NamedTuple):
    balise: int


AttackSpec = Tamper | Clone | Unavailable


def apply_attacks(deployment: list[DeployedBalise],
                  attacks: list[AttackSpec],
                  fmt: codec.TelegramFormat) -> None:
    """Mutate the deployment in place as the adversary would."""
    for attack in attacks:
        if isinstance(attack, Tamper):
            target = deployment[attack.balise - 1]
            # The attacker rewrites the location and re-encodes with the
            # public legacy scrambling rule, reusing the observed sb; it
            # cannot produce a valid tag without keys.
            user = pack_payload(target.spec.id, target.spec.kind,
                                attack.new_loc, fmt)
            sb = LEGACY_SB
            if target.telegram is not None:
                low = codec.ESB_WIDTH + codec.CHECK_WIDTH
                sb = (target.telegram >> low) & ((1 << codec.SB_WIDTH) - 1)
            target.telegram = codec.codeword(user, sb, codec.legacy_s_from_sb(sb), fmt)
        elif isinstance(attack, Clone):
            deployment[attack.dst - 1].telegram = deployment[attack.src - 1].telegram
        elif isinstance(attack, Unavailable):
            deployment[attack.balise - 1].telegram = None
        else:
            raise TypeError(f"unknown attack {attack!r}")
