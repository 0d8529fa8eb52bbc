"""Trackside deployment: balise payloads, telegram programming, attacks.

Each balise stores one telegram whose user data encodes the balise id,
its kind (fixed position reference or controlled stop marker), and the
reported location.  Attacks transform the deployed telegrams the way a
trackside adversary would: tampering re-encodes modified user data in
legacy mode (the attacker holds no keys), cloning copies a valid
telegram bit-for-bit onto another balise, and an availability attack
suppresses transmission entirely.

The user data is one int of fmt.user_bits bits, first bit most
significant, as codec.codeword takes it and auth.verify_and_decode
returns it: pack_payload builds it and parse_payload reads it with
shifts and masks.  A telegram is the codec.codeword int of fmt.n bits
from programming to the reader, and in a telegram file: JSON with the
format name and the int as fmt.n '0'/'1' characters.

A deployment is a list of telegrams, one per balise of the track in
track order: the codeword int, or None where transmission is
suppressed.  build_deployment programs a track only when it is not one
of the last two tracks it deployed.  A two-slot memo (_track_codewords)
keeps those tracks' codewords, keyed by the balise specs compared by
value (loc -100 and -100.0 are one key), the auth mode, the keystore and
the format.  Two slots hold the bundled scenarios' tracks: their sorted
batch alternates between an authenticated and a legacy track.  Building a
third track replaces the slot used least recently; the slots live as
long as the process.  Each call returns a new list of the kept ints, so
attacks and telegram files change only that run's list.  The kept
codewords expose nothing: a balise broadcasts its telegram in the clear
at every crossing.  The keystore in a slot's key is the one the run
holds, and auth's cache of key pairs keeps the master key of every pair
it holds as well.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

from .. import auth, codec
from .params import CheckedRecord, is_finite_number

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


class BaliseSpec(CheckedRecord, _BaliseFields):
    """One balise of the track, checked when it is made."""

    __slots__ = ()

    def _check(self) -> None:
        if type(self.id) is not int or not 0 <= self.id < (1 << auth.ID_BITS):
            raise ValueError("balise id must be a 14-bit integer")
        location_mm(self.loc)
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown balise kind {self.kind!r}")


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


def program_telegram(
    spec: BaliseSpec,
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
) -> int:
    """The codeword a (honest) programming tool would write."""
    user = pack_payload(spec.id, spec.kind, spec.loc, fmt)
    if auth_mode == AUTH_AUTHENTICATED:
        if keystore is None:
            raise ValueError("authenticated deployment needs a keystore")
        sb, s = auth.generate_tag(user, keystore.keys_for(spec.id), fmt)
        return codec.codeword(user, sb, s, fmt)
    return codec.codeword(user, LEGACY_SB, codec.legacy_s_from_sb(LEGACY_SB), fmt)


@functools.lru_cache(maxsize=2)
def _track_codewords(
    balises: tuple[BaliseSpec, ...],
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
) -> tuple[int, ...]:
    """The codewords of a track, kept for the last two tracks deployed.

    Each slot holds one codeword int of fmt.n bits per balise, 164 bytes
    for a long one and 72 for a short one, and its key holds the specs
    and the keystore.
    """
    return tuple(program_telegram(spec, auth_mode, keystore, fmt)
                 for spec in balises)


def build_deployment(
    balises: list[BaliseSpec],
    auth_mode: str,
    keystore: auth.Keystore | None,
    fmt: codec.TelegramFormat,
) -> list[int | None]:
    """A new list of the track's kept codewords (see the module notes)."""
    return list(_track_codewords(tuple(balises), auth_mode, keystore, fmt))


def save_telegram(path: str, t: int, fmt: codec.TelegramFormat) -> None:
    """Write a telegram file; ValueError, with no file opened, unless t
    is an int, not a bool, of at most fmt.n bits."""
    if type(t) is not int or t < 0 or t >> fmt.n:
        raise ValueError(f"a {fmt.name} telegram is an int of at most {fmt.n} bits")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"format": fmt.name, "bits": format(t, f"0{fmt.n}b")}, f)
        f.write("\n")


def load_telegram(path: str) -> tuple[codec.TelegramFormat, int]:
    """The format and the telegram int of a telegram file."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
            fmt = codec.FORMATS[raw["format"]]
            text = raw["bits"]
            if type(text) is not str:
                raise TypeError("bits must be a string")
            # int() would also take '_', whitespace and a sign.
            bad = set(text) - {"0", "1"}
            if bad:
                raise ValueError(f"invalid bit character {min(bad)!r}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed telegram file {path}: {exc}") from exc
    if len(text) != fmt.n:
        raise ValueError(
            f"telegram file {path}: {len(text)} bits, {fmt.name} needs {fmt.n}")
    return fmt, int(text, 2)


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


def apply_attacks(telegrams: list[int | None],
                  balises: list[BaliseSpec],
                  attacks: list[AttackSpec],
                  fmt: codec.TelegramFormat) -> None:
    """Rewrite the telegrams of the balises in place as the adversary would."""
    for attack in attacks:
        if isinstance(attack, Tamper):
            i = attack.balise - 1
            spec, t = balises[i], telegrams[i]
            # The attacker rewrites the location and re-encodes with the
            # public legacy scrambling rule, reusing the observed sb; it
            # cannot produce a valid tag without keys.
            user = pack_payload(spec.id, spec.kind, attack.new_loc, fmt)
            sb = LEGACY_SB
            if t is not None:
                low = codec.ESB_WIDTH + codec.CHECK_WIDTH
                sb = (t >> low) & ((1 << codec.SB_WIDTH) - 1)
            telegrams[i] = codec.codeword(user, sb, codec.legacy_s_from_sb(sb), fmt)
        elif isinstance(attack, Clone):
            telegrams[attack.dst - 1] = telegrams[attack.src - 1]
        elif isinstance(attack, Unavailable):
            telegrams[attack.balise - 1] = None
        else:
            raise TypeError(f"unknown attack {attack!r}")
