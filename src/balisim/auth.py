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
descrambles and before the tag.  So a wrong key's trial costs the cache
lookups of its key pair and of its S, two shifts, an XOR, a compare and
the raise of an AuthFailure whose message is the fixed ID_MISMATCH: no
keystream call, no tag MAC, no range check and no message formatting.
A trial whose S is not cached adds its PRF MAC.  A payload is accepted
exactly when it would be by the tag check followed by an id check.

derive_keys and prf_s are pure functions, each memoised by a
functools.lru_cache: up to 2^ID_BITS key pairs and 2^16 S values per
process, the least recently used dropped first.  A pair costs its two
KDF MACs and an S its PRF MAC on a miss only.  The caches key each call
by its argument values and types, and by its form, so a positional and a
keyword call, or a call with and without ver, are distinct entries;
every caller in balisim passes derive_keys all three arguments
positionally.  The master key is part of every key pair's entry, so
whoever can read the caches can read it, and it derives every pair and
every S: the caches expose nothing the master key does not.
"""

from __future__ import annotations

import functools
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
    """Tag verification failed: tampered data or wrong keys.

    Its message is the reason, ID_MISMATCH or TAG_MISMATCH.
    """


# The two reasons verify_and_decode rejects a payload for.  They are
# fixed, since the caller holds the key pair whose id they would name.
ID_MISMATCH = "payload does not name the balise id of the key pair"
TAG_MISMATCH = "tag does not match the user data under the key pair"


class BaliseKeyPair(NamedTuple):
    k0: bytes  # tag MAC key
    k1: bytes  # scrambling PRF key
    id: int
    ver: int


_BLOCK_BYTES = 64  # SHA-256 block size
_IPAD = bytes(x ^ 0x36 for x in range(256))  # translate tables for K^ipad
_OPAD = bytes(x ^ 0x5C for x in range(256))  # and K^opad


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


@functools.lru_cache(maxsize=1 << ID_BITS, typed=True)
def derive_keys(mk: bytes, balise_id: int, ver: int = 0) -> BaliseKeyPair:
    """The per-balise key pair under the 256-bit master key.

    ValueError unless mk is 32 bytes and balise_id and ver are ints, not
    bools, of at most ID_BITS and VER_BITS bits.  Memoised (see the
    module notes); an unhashable mk is a TypeError of the cache.
    """
    if type(mk) is not bytes or len(mk) != 32:
        raise ValueError("master key must be 32 bytes")
    _check_uint(balise_id, ID_BITS, "balise id")
    _check_uint(ver, VER_BITS, "ver")
    base = _KDF_PREFIX + balise_id.to_bytes(2, "big") + ver.to_bytes(2, "big")
    return BaliseKeyPair(_hmac256(mk, base + b"\x00")[:KEY_BYTES],
                         _hmac256(mk, base + b"\x01")[:KEY_BYTES],
                         balise_id, ver)


def tag_sb(k0: bytes, user: int, fmt: codec.TelegramFormat) -> int:
    """12-bit tag: leading bits of MAC(k0, format byte | packed user data).

    user is the fmt.user_bits user bits as an int, first bit MSB.
    """
    pad = -fmt.user_bits % 8
    packed = (user << pad).to_bytes((fmt.user_bits + pad) // 8, "big")
    digest = _hmac256(k0, _FORMAT_BYTE[fmt.name] + packed)
    return (digest[0] << 4) | (digest[1] >> 4)


@functools.lru_cache(maxsize=1 << 16, typed=True)
def prf_s(k1: bytes, sb: int) -> int:
    """32-bit scrambling key: leading bits of PRF(k1, sb).

    TypeError for an sb that is not an int and OverflowError for one
    outside 0..4095.  Memoised (see the module notes).
    """
    msg = _PRF_PREFIX + (sb << 4).to_bytes(2, "big")
    return int.from_bytes(_hmac256(k1, msg)[:4], "big")


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
    is not a bit.  Raises AuthFailure for one of two reasons, its
    message: ID_MISMATCH when the payload does not name keys.id in its
    leading ID_BITS bits, which is checked first (see the module notes),
    and TAG_MISMATCH when the recomputed tag differs from the received
    sb.
    """
    aligned = stream if isinstance(stream, codec.Aligned) else codec.align(stream, fmt)
    s = prf_s(keys.k1, aligned.sb)
    if (aligned.data >> (fmt.user_bits - ID_BITS)) ^ s >> (32 - ID_BITS) != keys.id:
        raise AuthFailure(ID_MISMATCH)
    user = aligned.data ^ codec.keystream(s, fmt.user_bits)
    if tag_sb(keys.k0, user, fmt) != aligned.sb:
        raise AuthFailure(TAG_MISMATCH)
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
