"""Device-level telegram authentication via the sb and S fields.

The 12-bit scrambling-bits field doubles as a truncated MAC over the
user data, and the 32-bit scrambling key becomes a truncated PRF of the
tag, so authenticated telegrams keep the exact legacy bit layout.  KDF,
MAC and PRF are all HMAC-SHA256 (RFC 2104, computed by _hmac256) with
domain-separating leading message bytes:

    0x4B | id (2 bytes BE) | ver (2 bytes BE) | i      key derivation
    fmt byte (0x01 long / 0x02 short) | packed U       tag MAC
    0x53 | sb left-aligned in 2 bytes                  scrambling PRF

"first k bits" always means the k most significant bits of the digest
read big-endian.  Packed U is the user data MSB-first, zero-padded on
the right to whole bytes (830 bits to 104 bytes, 210 bits to 27).  The
user data is an int of fmt.user_bits bits, first bit most significant,
as codec.codeword takes it and codec.descramble_legacy returns it:
generate_tag, tag_sb and encode_authenticated take it, and
verify_and_decode returns it, so neither a write nor a key trial builds
a bit list.  A writer passes generate_tag's (sb, S) to codec.codeword;
encode_authenticated is that telegram's list view.

Per-balise keys are derived from the master key and held in memory
only, never persisted; the keystore holds only mk and a version.

A 12-bit tag passes under a wrong key once in 4,096 trials, and the user
data that key descrambles is random.  A reader that tries several keys
must therefore accept a payload only under the key of the id the
payload names; a keyless forgery then passes about m * 2^-27 of its
crossings on an m-balise map (m * 2^-12 tags, half the kind codes,
2^-14 for the id).  The id is the payload's leading ID_BITS bits.  The
keystream's leading 32 bits are S itself (see codec.keystream), so the
descrambled id is the leading ID_BITS of the scrambled data XOR those of
S, S >> (32 - ID_BITS), and verify_and_decode checks it before it
descrambles and before the tag.  So a wrong key's trial costs the dict
lookups of its memoised key pair and of its S, two shifts, an XOR and a
compare: no keystream call, no tag MAC and no range check.  The first
trial of an sb under a key adds its PRF MAC.  A payload is accepted
exactly when it would be by the tag check followed by an id check.

derive_keys memoises per master key.  One entry per process holds the
master key, a dict of the key pair of each (id, ver) requested under
it, and for each such pair's k1 a dict from sb to its S, which prf_s
fills as it computes them.  So a pair costs its two KDF MACs on its
first request only and a dict lookup after that, and an S costs its PRF
MAC on its first request under that k1 only.  The entry is found by the
master key's value, so every keystore that holds an equal mk shares it.
A k1 has at most 4,096 values of S, one per sb, so the memo is bounded
by 4,096 entries per pair requested under the current master key, in a
simulation the ids of its track map.  Using another master key replaces
the entry and drops the old pairs and their S values with it.  Whoever
can read the cached pairs can read the master key beside them, which
derives every key and so every S, so the memo exposes nothing the
master key does not.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import NamedTuple

from . import codec

KEY_BYTES = 16
ID_BITS = 14
VER_BITS = 16

_KDF_PREFIX = b"\x4b"
_PRF_PREFIX = b"\x53"
_FORMAT_BYTE = {"long": b"\x01", "short": b"\x02"}


class AuthFailure(Exception):
    """Tag verification failed: tampered data or wrong keys."""


class BaliseKeyPair(NamedTuple):
    k0: bytes  # tag MAC key
    k1: bytes  # scrambling PRF key
    id: int
    ver: int


_BLOCK_BYTES = 64  # SHA-256 block size
_IPAD = bytes(x ^ 0x36 for x in range(256))  # translate tables for K^ipad
_OPAD = bytes(x ^ 0x5C for x in range(256))  # and K^opad


class _Master(NamedTuple):
    """What derive_keys keeps for one master key."""
    mk: bytes
    pairs: dict[tuple[int, int], BaliseKeyPair]  # by (id, ver)
    prf: dict[bytes, dict[int, int]]             # each pair's k1: S by sb


# The entry of the master key last used; b"" is no master key.
_master = _Master(b"", {}, {})


def _hmac256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 of msg: sha256(K^opad | sha256(K^ipad | msg)).

    K is the key as one SHA-256 block: hashed first if longer, then
    zero-padded.
    """
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_BYTES, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD) + msg).digest()
    return hashlib.sha256(key.translate(_OPAD) + inner).digest()


def _check_uint(value: int, bits: int, what: str) -> None:
    """ValueError unless value is an int, not a bool, of at most bits bits."""
    if type(value) is not int or not 0 <= value < (1 << bits):
        raise ValueError(f"{what} must be an integer in 0..2^{bits}-1")


def derive_keys(mk: bytes, balise_id: int, ver: int = 0) -> BaliseKeyPair:
    """The per-balise key pair under the 256-bit master key.

    A pair requested before under an equal mk is returned at once: the
    entry's mk and its pairs' (id, ver) were checked when they were
    stored, so only the types are checked again.  Any other call checks
    every argument, and the pair's two KDF MACs are computed on its first
    request under mk only (see the module notes).  Threads that miss
    together compute the same pair, so either store leaves the memo right
    and it needs no lock.
    """
    global _master
    entry = _master
    if (type(mk) is bytes and mk == entry.mk
            and type(balise_id) is int and type(ver) is int):
        keys = entry.pairs.get((balise_id, ver))
        if keys is not None:
            return keys
    if type(mk) is not bytes or len(mk) != 32:
        raise ValueError("master key must be 32 bytes")
    _check_uint(balise_id, ID_BITS, "balise id")
    _check_uint(ver, VER_BITS, "ver")
    if entry.mk != mk:
        entry = _master = _Master(mk, {}, {})
    keys = entry.pairs.get((balise_id, ver))
    if keys is None:
        base = _KDF_PREFIX + balise_id.to_bytes(2, "big") + ver.to_bytes(2, "big")
        keys = BaliseKeyPair(_hmac256(mk, base + b"\x00")[:KEY_BYTES],
                             _hmac256(mk, base + b"\x01")[:KEY_BYTES],
                             balise_id, ver)
        entry.prf[keys.k1] = {}
        entry.pairs[balise_id, ver] = keys
    return keys


def tag_sb(k0: bytes, user: int, fmt: codec.TelegramFormat) -> int:
    """12-bit tag: leading bits of MAC(k0, format byte | packed user data).

    user is the fmt.user_bits user bits as an int, first bit MSB.
    """
    pad = -fmt.user_bits % 8
    packed = (user << pad).to_bytes((fmt.user_bits + pad) // 8, "big")
    digest = _hmac256(k0, _FORMAT_BYTE[fmt.name] + packed)
    return (digest[0] << 4) | (digest[1] >> 4)


def prf_s(k1: bytes, sb: int) -> int:
    """32-bit scrambling key: leading bits of PRF(k1, sb).

    An S is looked up in the memo of a k1 that derive_keys derived under
    the current master key (see the module notes); any other key's S is
    computed and not kept.  Threads that miss together store the same S,
    so the memo needs no lock.
    """
    shifted = sb << 4  # TypeError for an sb that is not an int, 1.0 too
    memo = _master.prf.get(k1)
    s = None if memo is None else memo.get(sb)
    if s is None:  # OverflowError below for an sb outside 0..4095
        msg = _PRF_PREFIX + shifted.to_bytes(2, "big")
        s = int.from_bytes(_hmac256(k1, msg)[:4], "big")
        if memo is not None:
            memo[sb] = s
    return s


def generate_tag(
    user: int,
    keys: BaliseKeyPair,
    fmt: codec.TelegramFormat = codec.LONG,
) -> tuple[int, int]:
    """Return (sb, S) binding the user data to the balise keys.

    user is the fmt.user_bits user bits as an int, first bit MSB; any
    other value raises codec.FormatError.
    """
    codec.check_user(user, fmt)
    sb = tag_sb(keys.k0, user, fmt)
    return sb, prf_s(keys.k1, sb)


def encode_authenticated(
    user: int,
    keys: BaliseKeyPair,
    fmt: codec.TelegramFormat = codec.LONG,
) -> list[int]:
    """Encode a telegram whose sb field is the authentication tag."""
    sb, s = generate_tag(user, keys, fmt)
    return codec.encode(user, sb, s, fmt)


def verify_and_decode(
    stream: list[int] | codec.Stream | codec.Aligned,
    keys: BaliseKeyPair,
    fmt: codec.TelegramFormat = codec.LONG,
) -> int:
    """Decode a stream and verify its tag under one key pair.

    The stream may be what codec.align takes or the codec.Aligned it
    returns, so a reader that tries several keys aligns once.  Returns
    the user data as an int, first bit MSB.  Raises codec.NoTelegramFound
    when no window aligns and codec.FormatError for a list element that
    is not a bit.  Raises AuthFailure when the payload does not name
    keys.id in its leading ID_BITS bits, which is checked first (see the
    module notes), and when the recomputed tag differs from the received
    sb.
    """
    aligned = stream if isinstance(stream, codec.Aligned) else codec.align(stream, fmt)
    s = prf_s(keys.k1, aligned.sb)
    if (aligned.data >> (fmt.user_bits - ID_BITS)) ^ s >> (32 - ID_BITS) != keys.id:
        raise AuthFailure(f"payload does not name balise id {keys.id}")
    user = aligned.data ^ codec.keystream(s, fmt.user_bits)
    if tag_sb(keys.k0, user, fmt) != aligned.sb:
        raise AuthFailure(f"tag mismatch for balise id {keys.id}")
    return user


# ---------------------------------------------------------------------------
# Keystore
# ---------------------------------------------------------------------------

class Keystore(NamedTuple):
    mk: bytes
    ver: int

    def keys_for(self, balise_id: int) -> BaliseKeyPair:
        return derive_keys(self.mk, balise_id, self.ver)


def new_keystore(seed: int | None = None, ver: int = 0) -> Keystore:
    """Fresh keystore; a seed makes mk reproducible for tests.

    ValueError unless seed (when given) is an int in 0..2^64-1 and ver
    one in 0..2^16-1, neither a bool.
    """
    _check_uint(ver, VER_BITS, "ver")
    if seed is None:
        mk = os.urandom(32)
    else:
        _check_uint(seed, 64, "keystore seed")
        mk = hashlib.sha256(b"balisim-keygen" + seed.to_bytes(8, "big")).digest()
    return Keystore(mk=mk, ver=ver)


def save_keystore(store: Keystore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"mk_hex": store.mk.hex(), "ver": store.ver}, f)
        f.write("\n")


def load_keystore(path: str) -> Keystore:
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
            mk = bytes.fromhex(raw["mk_hex"])
            ver = raw["ver"]
            _check_uint(ver, VER_BITS, "ver")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed keystore file {path}: {exc}") from exc
    if len(mk) != 32:
        raise ValueError(f"malformed keystore file {path}: mk_hex must encode 32 bytes")
    return Keystore(mk=mk, ver=ver)
