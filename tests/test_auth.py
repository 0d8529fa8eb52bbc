"""Authentication layer tests with an independent HMAC oracle.

The oracle below rebuilds HMAC from the raw ipad/opad construction so
the key derivation, tag and PRF chains are checked against something
other than the module's own hmac calls.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balisim import auth, codec
from balisim.bits import bits_to_int, int_to_bits

LONG = codec.LONG
SHORT = codec.SHORT

MK = bytes(range(32))


def hmac_oracle(key, msg):
    """HMAC-SHA256 from first principles (ipad/opad)."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key + b"\x00" * (64 - len(key))
    inner = hashlib.sha256(bytes(k ^ 0x36 for k in key) + msg).digest()
    return hashlib.sha256(bytes(k ^ 0x5C for k in key) + inner).digest()


def pack_bits(bits):
    """Bits MSB-first into bytes, one byte at a time, the last zero-padded."""
    padded = bits + [0] * (-len(bits) % 8)
    return bytes(sum(b << (7 - i) for i, b in enumerate(padded[k : k + 8]))
                 for k in range(0, len(padded), 8))


def test_hmac_oracle_agrees_with_stdlib():
    import hmac as hmac_std
    for key, msg in ((b"k", b"m"), (MK, b"hello"), (b"x" * 100, b"y" * 99)):
        assert hmac_oracle(key, msg) == \
            hmac_std.new(key, msg, hashlib.sha256).digest()


# Key lengths around the 64-byte block (longer keys are hashed first) and
# message lengths around the SHA-256 padding edges of one and two blocks
# after the 64-byte pad.
KEY_LENS = [0, 1, 16, 32, 63, 64, 65, 100, 200]
MSG_LENS = (0, 3, 55, 56, 63, 64, 65, 105, 119, 120, 200)


@pytest.mark.parametrize("key_len", KEY_LENS)
def test_hmac_from_pads_matches_stdlib(key_len):
    # _hmac256 builds K^ipad and K^opad through its translate tables.
    # The pads built byte by byte agree with those tables, the RFC 2104
    # construction on them agrees with the stdlib, and _hmac256 keeps no
    # state between calls: a second MAC agrees.
    import hmac as hmac_std
    rng = random.Random(key_len)
    key = rng.randbytes(key_len)
    block = hashlib.sha256(key).digest() if key_len > 64 else key
    block = block.ljust(64, b"\0")
    ipad = bytes(b ^ 0x36 for b in block)
    opad = bytes(b ^ 0x5C for b in block)
    assert block.translate(auth._IPAD) == ipad
    assert block.translate(auth._OPAD) == opad
    for msg_len in MSG_LENS:
        msg = rng.randbytes(msg_len)
        expected = hmac_std.digest(key, msg, "sha256")
        inner = hashlib.sha256(ipad + msg).digest()
        assert hashlib.sha256(opad + inner).digest() == expected, msg_len
        assert auth._hmac256(key, msg) == expected, msg_len
        assert auth._hmac256(key, msg) == expected, msg_len


@pytest.mark.parametrize("key_len", KEY_LENS)
def test_one_shot_hmac_matches_stdlib(key_len):
    import hmac as hmac_std
    rng = random.Random(key_len)
    key = rng.randbytes(key_len)
    for msg_len in MSG_LENS:
        msg = rng.randbytes(msg_len)
        assert auth._hmac256(key, msg) == \
            hmac_std.digest(key, msg, "sha256"), msg_len


def test_auth_defines_one_hmac_function():
    # Every KDF, tag and PRF MAC goes through _hmac256, so counting its
    # calls by message prefix counts all of them.
    import inspect
    source = inspect.getsource(auth)
    assert re.findall(r"^def (\w*hmac\w*)\(", source, re.M) == ["_hmac256"]
    # The two memos are the typed lru caches around the KDF and the PRF.
    assert auth.derive_keys.cache_parameters() == {
        "maxsize": 1 << auth.ID_BITS, "typed": True}
    assert auth.prf_s.cache_parameters() == {"maxsize": 1 << 16, "typed": True}


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

def test_derive_keys_matches_oracle():
    keys = auth.derive_keys(MK, balise_id=0x2A7, ver=3)
    base = b"\x4b" + (0x2A7).to_bytes(2, "big") + (3).to_bytes(2, "big")
    assert keys.k0 == hmac_oracle(MK, base + b"\x00")[:16]
    assert keys.k1 == hmac_oracle(MK, base + b"\x01")[:16]


def test_derive_keys_follows_a_changing_master_key(macs):
    # The pairs of every master key are cached side by side: switching
    # keys back and forth derives each pair once and never returns a
    # pair, or derives under a key, of the other master key.
    mk_b = bytes(range(100, 132))
    base = b"\x4b" + (0x2A7).to_bytes(2, "big") + (3).to_bytes(2, "big")
    first = {}
    for mk in (MK, mk_b, MK, mk_b):
        keys = auth.derive_keys(mk, balise_id=0x2A7, ver=3)
        assert keys.k0 == hmac_oracle(mk, base + b"\x00")[:16]
        assert keys.k1 == hmac_oracle(mk, base + b"\x01")[:16]
        assert first.setdefault(mk, keys) is keys
    assert macs["kdf"] == [MK, MK, mk_b, mk_b]
    assert auth.derive_keys.cache_info().currsize == 2


def test_each_call_form_is_its_own_cache_entry(macs):
    # A positional and a keyword call, or a call with and without ver,
    # return equal pairs but are distinct entries, each with its own
    # KDF MACs; the same form again is a hit.
    forms = [((MK, 3), {}), ((MK, 3, 0), {}), ((MK,), {"balise_id": 3}),
             ((MK, 3), {"ver": 0})]
    pairs = [auth.derive_keys(*args, **kwargs) for args, kwargs in forms]
    assert all(p == pairs[0] for p in pairs)
    assert macs["kdf"] == [MK, MK] * len(forms)
    for (args, kwargs), pair in zip(forms, pairs):
        assert auth.derive_keys(*args, **kwargs) is pair
    info = auth.derive_keys.cache_info()
    assert (info.currsize, info.hits) == (len(forms), len(forms))


def stdlib_prf_s(key, sb):
    import hmac as hmac_std
    msg = b"\x53" + (sb << 4).to_bytes(2, "big")
    return int.from_bytes(hmac_std.digest(key, msg, "sha256")[:4], "big")


def test_prf_memo_keeps_the_s_of_every_key_it_signs(macs):
    # prf_s keeps S by (key, sb) for any key: a derived k1, a k0 or a raw
    # key is signed on its first request only.  Deriving pairs under
    # another master key drops none of the values kept before.
    import hmac as hmac_std
    prf_macs = macs["prf"]
    pairs = [auth.derive_keys(MK, i) for i in (3, 4)]
    rng = random.Random(25)
    raw = [rng.randbytes(key_len) for key_len in KEY_LENS]
    keys = [p.k1 for p in pairs] + [p.k0 for p in pairs] + raw
    sbs = (0, 0x5A5, 0xFFF)
    for _ in range(2):
        for key in keys:
            for sb in sbs:
                assert auth.prf_s(key, sb) == stdlib_prf_s(key, sb)
    assert prf_macs == [key for key in keys for _ in sbs]
    assert auth.prf_s.cache_info().currsize == len(keys) * len(sbs)
    for key in raw:  # and a tag under a raw key matches the stdlib's
        for fmt, fmt_byte in ((LONG, b"\x01"), (SHORT, b"\x02")):
            user = rng.getrandbits(fmt.user_bits)
            packed = pack_bits(int_to_bits(user, fmt.user_bits))
            digest = hmac_std.digest(key, fmt_byte + packed, "sha256")
            assert auth.tag_sb(key, user, fmt) == (digest[0] << 4) | (digest[1] >> 4)

    prf_macs.clear()
    new = auth.derive_keys(bytes(range(100, 132)), 3)
    assert auth.prf_s(new.k1, 0x5A5) == stdlib_prf_s(new.k1, 0x5A5)
    for key in keys:
        assert auth.prf_s(key, 0x5A5) == stdlib_prf_s(key, 0x5A5)
    assert prf_macs == [new.k1]
    assert auth.prf_s.cache_info().currsize == len(keys) * len(sbs) + 1


def test_prf_memo_matches_stdlib_for_every_sb(macs):
    # All 4,096 S values of a k1, computed cold and then read back warm,
    # and the memo holds one entry per sb.
    k1 = auth.derive_keys(MK, 7).k1
    expected = [stdlib_prf_s(k1, sb) for sb in range(1 << codec.SB_WIDTH)]
    for _ in range(2):
        assert [auth.prf_s(k1, sb) for sb in range(1 << codec.SB_WIDTH)] == expected
    assert len(macs["prf"]) == auth.prf_s.cache_info().currsize == 4096


def test_the_prf_memo_drops_its_least_recent_s_at_its_bound(macs):
    # maxsize S values are kept; one more drops the least recently read,
    # the first, which is then signed again.
    bound = auth.prf_s.cache_parameters()["maxsize"]
    k1s = [auth.derive_keys(MK, i).k1 for i in range(bound // 4096 + 1)]
    requests = [(k1, sb) for k1 in k1s for sb in range(1 << codec.SB_WIDTH)]
    for k1, sb in requests[:bound]:
        auth.prf_s(k1, sb)
    assert auth.prf_s.cache_info().currsize == bound
    auth.prf_s(*requests[bound])
    assert auth.prf_s.cache_info().currsize == bound
    macs["prf"].clear()
    auth.prf_s(*requests[1])
    assert macs["prf"] == []
    assert auth.prf_s(*requests[0]) == stdlib_prf_s(*requests[0])
    assert macs["prf"] == [requests[0][0]]


@pytest.mark.parametrize("sb, error", [
    (1.0, TypeError), ("1", TypeError),
    (1 << codec.SB_WIDTH, OverflowError), (-1, OverflowError),
    (-(1 << 12), OverflowError),
])
def test_a_prf_memo_hit_lets_no_invalid_sb_through(empty_memos, sb, error):
    # 1.0 == 1 and hashes alike, so only the typed cache keeps it from
    # the S of sb 1; the memo never holds an sb outside 0..4095.
    k1 = auth.derive_keys(MK, 7).k1
    for good in (0, 1, 0xFFF):
        auth.prf_s(k1, good)
    before = auth.prf_s.cache_info()
    with pytest.raises(error):
        auth.prf_s(k1, sb)
    with pytest.raises(error):  # and a key with no S kept raises the same
        auth.prf_s(bytes(16), sb)
    after = auth.prf_s.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


def test_derive_keys_deterministic_and_separated():
    a = auth.derive_keys(MK, 5, 0)
    b = auth.derive_keys(MK, 5, 0)
    assert (a.k0, a.k1) == (b.k0, b.k1)
    assert a.k0 != a.k1
    c = auth.derive_keys(MK, 6, 0)
    d = auth.derive_keys(MK, 5, 1)
    assert len({a.k0, a.k1, c.k0, c.k1, d.k0, d.k1}) == 6


@pytest.mark.parametrize("args", [
    (b"short", 1, 0),
    (MK.hex()[:32], 1, 0),
    (bytearray(MK), 1, 0),
    (MK, 1 << 14, 0),
    (MK, -1, 0),
    (MK, True, 0),
    (MK, 1.0, 0),
    (MK, 1, 1 << 16),
    (MK, 1, -1),
    (MK, 1, False),
    (MK, 1, 0.0),
])
def test_derive_keys_validates_its_inputs_over_a_cached_pair(args):
    # (MK, 1, 0) is cached first.  True == 1 and 0.0 == 0 hash alike, so
    # only the typed cache and the body's checks keep them from returning
    # its pair.  bytearray(MK) == MK is unhashable: the cache's TypeError.
    auth.derive_keys(MK, 1, 0)
    error = TypeError if type(args[0]) is bytearray else ValueError
    with pytest.raises(error):
        auth.derive_keys(*args)


def test_an_equal_master_key_object_hits_the_cached_pair(macs, monkeypatch):
    # Each keystore holds its own mk bytes.  The cache finds a pair by
    # value, so a request under an equal copy returns the cached pair at
    # once: no KDF MAC, no range check and no new entry.
    pair = auth.derive_keys(MK, 3, 0)
    checks = []
    check_uint = auth._check_uint
    monkeypatch.setattr(auth, "_check_uint",
                        lambda *args: checks.append(args) or check_uint(*args))
    for _ in range(3):
        copy = bytes(bytearray(MK))
        assert copy == MK and copy is not MK
        assert auth.Keystore(copy, 0).keys_for(3) is pair
        assert auth.derive_keys(copy, 3, 0) is pair
    assert checks == []
    assert macs["kdf"] == [MK, MK]
    assert auth.derive_keys.cache_info().currsize == 1


def test_a_different_master_key_adds_its_pairs_beside_the_old(macs):
    pair = auth.derive_keys(MK, 3)
    auth.prf_s(pair.k1, 0x5A5)
    auth.derive_keys(bytes(bytearray(MK)), 3)
    other = bytes(range(100, 132))
    new = auth.derive_keys(other, 3)
    assert new != pair
    assert auth.derive_keys(MK, 3) is pair
    assert auth.derive_keys.cache_info().currsize == 2
    assert macs["kdf"] == [MK, MK, other, other]
    assert auth.prf_s(pair.k1, 0x5A5) == stdlib_prf_s(pair.k1, 0x5A5)
    assert macs["prf"] == [pair.k1]


def test_the_id_check_reads_the_leading_bits_of_s_as_the_keystream():
    # verify_and_decode takes the id's keystream bits as S >> 18; the
    # register maps S = 0 to 1, which shifts to the same 0.
    rng = random.Random(23)
    shift = 32 - auth.ID_BITS
    for s in [0, 1, (1 << shift) - 1, 1 << shift, (1 << 32) - 1,
              *(rng.getrandbits(32) for _ in range(1000))]:
        assert s >> shift == codec.keystream(s, auth.ID_BITS)


# ---------------------------------------------------------------------------
# Tag and PRF
# ---------------------------------------------------------------------------

def test_tag_and_prf_match_oracle():
    rng = random.Random(20)
    keys = auth.derive_keys(MK, 99)
    for fmt, fmt_byte in ((LONG, b"\x01"), (SHORT, b"\x02")):
        user = [rng.randrange(2) for _ in range(fmt.user_bits)]
        digest = hmac_oracle(keys.k0, fmt_byte + pack_bits(user))
        expected_sb = (digest[0] << 4) | (digest[1] >> 4)
        sb, s = auth.generate_tag(bits_to_int(user), keys, fmt)
        assert sb == expected_sb
        assert 0 <= sb < (1 << 12)
        prf_digest = hmac_oracle(keys.k1, b"\x53" + (sb << 4).to_bytes(2, "big"))
        assert s == int.from_bytes(prf_digest[:4], "big")
        assert 0 <= s < (1 << 32)


# The user data at the pad edges: none set, all set, only the first bit
# and only the last bit, the one next to the 2 (long) or 6 (short) pad
# bits.  The tags under derive_keys(MK, 98) were computed by packing a
# bit list, before tag_sb took an int.
PAD_EDGE_TAGS = {
    "long": (0x9FA, 0x476, 0x248, 0x12F),
    "short": (0x71F, 0x070, 0xF98, 0xA72),
}


def pad_edge_users(fmt):
    n = fmt.user_bits
    return (0, (1 << n) - 1, 1 << (n - 1), 1)


@pytest.mark.parametrize("fmt, fmt_byte", [(LONG, b"\x01"), (SHORT, b"\x02")])
def test_tag_on_int_matches_oracle_at_pad_edges(fmt, fmt_byte):
    keys = auth.derive_keys(MK, 98)
    n = fmt.user_bits
    users = pad_edge_users(fmt) + (random.Random(n).getrandbits(n),)
    for user in users:
        digest = hmac_oracle(keys.k0, fmt_byte + pack_bits(int_to_bits(user, n)))
        assert auth.tag_sb(keys.k0, user, fmt) == (digest[0] << 4) | (digest[1] >> 4)
    assert tuple(auth.tag_sb(keys.k0, u, fmt) for u in pad_edge_users(fmt)) == \
        PAD_EDGE_TAGS[fmt.name]


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_encode_authenticated_is_the_codeword_of_its_tag_as_bits(fmt):
    keys = auth.derive_keys(MK, 98)
    for user, tag in zip(pad_edge_users(fmt), PAD_EDGE_TAGS[fmt.name]):
        sb, s = auth.generate_tag(user, keys, fmt)
        assert sb == tag
        assert auth.encode_authenticated(user, keys, fmt) == \
            int_to_bits(codec.codeword(user, sb, s, fmt), fmt.n)


def test_decode_result_user_is_the_encoded_int():
    rng = random.Random(32)
    for fmt in (LONG, SHORT):
        for user_int in pad_edge_users(fmt) + (rng.getrandbits(fmt.user_bits),):
            stream = codec.encode_legacy(user_int, 0x3C5, fmt) * 3
            result = codec.decode_stream(stream, fmt)
            assert result.user == user_int
            assert not hasattr(result, "user_bits")


@pytest.mark.parametrize("field", ["k0", "k1", "id", "ver"])
def test_balise_key_pair_is_immutable(field):
    keys = auth.derive_keys(MK, 5)
    with pytest.raises(AttributeError):
        setattr(keys, field, getattr(keys, field))


@pytest.mark.parametrize("field", ["user", "sb", "shift", "inverted"])
def test_decode_result_is_immutable(field):
    result = codec.decode_stream(codec.encode_legacy(0x2A, 0x3C5) * 3)
    with pytest.raises(AttributeError):
        setattr(result, field, getattr(result, field))


def test_tag_is_deterministic():
    keys = auth.derive_keys(MK, 7)
    user = bits_to_int([1, 0] * (LONG.user_bits // 2))
    assert auth.generate_tag(user, keys) == auth.generate_tag(user, keys)


def test_single_bit_flip_changes_tag_mostly():
    rng = random.Random(21)
    keys = auth.derive_keys(MK, 8)
    unchanged = 0
    trials = 1000
    for _ in range(trials):
        user = bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)])
        sb = auth.tag_sb(keys.k0, user, SHORT)
        flipped = user ^ (1 << rng.randrange(SHORT.user_bits))
        if auth.tag_sb(keys.k0, flipped, SHORT) == sb:
            unchanged += 1
    # unchanged-tag probability is ~2^-12 per trial
    assert unchanged <= 3


# ---------------------------------------------------------------------------
# Authenticated round trip
# ---------------------------------------------------------------------------

def naming(keys, user, fmt):
    """user with its leading ID_BITS bits replaced by the id of keys."""
    low = fmt.user_bits - auth.ID_BITS
    return keys.id << low | user & ((1 << low) - 1)


def test_round_trip_both_formats():
    rng = random.Random(22)
    keys = auth.derive_keys(MK, 123)
    for fmt in (LONG, SHORT):
        user = naming(keys, bits_to_int([rng.randrange(2) for _ in range(fmt.user_bits)]),
                      fmt)
        telegram = auth.encode_authenticated(user, keys, fmt)
        assert len(telegram) == fmt.n
        assert auth.verify_and_decode(telegram * 3, keys, fmt) == user
        stream = codec.Stream(bits_to_int(telegram * 3), 3 * fmt.n)
        assert auth.verify_and_decode(stream, keys, fmt) == user


def test_round_trip_survives_rotation():
    rng = random.Random(23)
    keys = auth.derive_keys(MK, 124)
    user = naming(keys, bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)]),
                  SHORT)
    stream = auth.encode_authenticated(user, keys, SHORT) * 3
    for _ in range(5):
        k = rng.randrange(SHORT.n)
        assert auth.verify_and_decode(stream[k:] + stream[:k], keys, SHORT) == user


def test_wrong_id_fails():
    # The payload names the writing key's id, which the other key's
    # trial rejects, or the other key's id, whose tag it fails.
    rng = random.Random(24)
    keys = auth.derive_keys(MK, 50)
    other = auth.derive_keys(MK, 51)
    user = bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)])
    for named in (keys, other):
        stream = auth.encode_authenticated(naming(named, user, SHORT), keys, SHORT) * 3
        with pytest.raises(auth.AuthFailure):
            auth.verify_and_decode(stream, other, SHORT)


def test_each_rejection_names_its_reason():
    # A wrong key fails the id check; the right key over user data with
    # one flipped bit outside the id field passes it and fails the tag.
    rng = random.Random(25)
    assert auth.ID_MISMATCH != auth.TAG_MISMATCH
    for fmt in (LONG, SHORT):
        keys = auth.derive_keys(MK, 70)
        other = auth.derive_keys(MK, 71)
        user = naming(keys, bits_to_int([rng.randrange(2)
                                         for _ in range(fmt.user_bits)]), fmt)
        sb, s = auth.generate_tag(user, keys, fmt)
        assert auth.verify_and_decode(codec.encode(user, sb, s, fmt) * 3,
                                      keys, fmt) == user
        with pytest.raises(auth.AuthFailure) as wrong_key:
            auth.verify_and_decode(codec.encode(user, sb, s, fmt) * 3, other, fmt)
        assert wrong_key.value.args == (auth.ID_MISMATCH,)
        flip = 1 << rng.randrange(fmt.user_bits - auth.ID_BITS)
        with pytest.raises(auth.AuthFailure) as flipped:
            auth.verify_and_decode(codec.encode(user ^ flip, sb, s, fmt) * 3,
                                   keys, fmt)
        assert flipped.value.args == (auth.TAG_MISMATCH,)


def test_aligned_stream_verifies_under_right_key_only():
    # Each payload is written under the key of the id it names, and read
    # under that key and under the key of a neighbouring id.
    rng = random.Random(29)
    for fmt in (LONG, SHORT):
        low = fmt.user_bits - auth.ID_BITS
        users = [bits_to_int([rng.randrange(2) for _ in range(fmt.user_bits)])]
        users += pad_edge_users(fmt)
        for user in users:
            keys = auth.derive_keys(MK, user >> low)
            other = auth.derive_keys(MK, user >> low ^ 1)
            stream = auth.encode_authenticated(user, keys, fmt) * 3
            k = rng.randrange(fmt.n)
            aligned = codec.align(stream[k:] + stream[:k], fmt)
            got = auth.verify_and_decode(aligned, keys, fmt)
            assert type(got) is int and got == user
            with pytest.raises(auth.AuthFailure):
                auth.verify_and_decode(aligned, other, fmt)


def verify_outcome(stream, keys, fmt):
    """The user data verify_and_decode returns, or None on AuthFailure."""
    try:
        return auth.verify_and_decode(stream, keys, fmt)
    except auth.AuthFailure:
        return None


def tag_outcome(aligned, keys, fmt):
    """The user data whose tag under keys is the received sb, else None."""
    user = aligned.data ^ codec.keystream(auth.prf_s(keys.k1, aligned.sb), fmt.user_bits)
    return user if auth.tag_sb(keys.k0, user, fmt) == aligned.sb else None


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_verify_accepts_exactly_the_tag_passes_that_name_the_key(fmt):
    # Telegrams written under the key of one id, whose payload names that
    # id, another id or random bits; some carry a sb that is not their
    # tag but the S of that sb, so they descramble and fail the tag.
    # Each is verified under the keys of every id and compared with a
    # tag check that ignores the id.
    rng = random.Random(151)
    ids = (3, 4, (1 << auth.ID_BITS) - 1)
    keys = {i: auth.derive_keys(MK, i) for i in ids}
    low = fmt.user_bits - auth.ID_BITS
    seen = set()
    for _ in range(40):
        writer = rng.choice(ids)
        named = rng.choice((writer, rng.choice(ids), rng.getrandbits(auth.ID_BITS)))
        user = named << low | rng.getrandbits(low)
        if rng.randrange(2):
            telegram = auth.encode_authenticated(user, keys[writer], fmt)
        else:
            sb = auth.tag_sb(keys[writer].k0, user, fmt) ^ rng.randrange(1, 1 << 12)
            telegram = codec.encode(user, sb, auth.prf_s(keys[writer].k1, sb), fmt)
        stream = telegram * 3
        aligned = codec.align(stream, fmt)
        for reader in ids:
            tagged = tag_outcome(aligned, keys[reader], fmt)
            names_key = (tagged is not None and tagged >> low == reader)
            # A raw stream is aligned inside verify_and_decode.
            assert verify_outcome(aligned, keys[reader], fmt) == \
                verify_outcome(stream, keys[reader], fmt) == \
                (tagged if names_key else None)
            seen.add((tagged is not None, writer == reader and named == reader))
    # Tag passes that name the key and that do not, and, under the right
    # key, payloads that name it but fail the tag.
    assert seen >= {(True, True), (True, False), (False, True)}


def test_trial_under_a_key_the_payload_does_not_name_computes_no_tag(monkeypatch):
    # The id is read off the leading bits of S, so only a trial under the
    # key the payload names expands the keystream over the user data and
    # computes a tag, whether it is given the stream or its Aligned.
    tags, lengths = [], []
    tag_sb, keystream = auth.tag_sb, codec.keystream
    monkeypatch.setattr(auth, "tag_sb", lambda *args: tags.append(args) or tag_sb(*args))
    monkeypatch.setattr(codec, "keystream",
                        lambda seed, nbits: lengths.append(nbits) or keystream(seed, nbits))
    keys, other = auth.derive_keys(MK, 5), auth.derive_keys(MK, 6)
    low = SHORT.user_bits - auth.ID_BITS
    for named, reader in ((5, other), (7, keys), (5, keys)):
        stream = auth.encode_authenticated(named << low | 0x2A, keys, SHORT) * 3
        for received in (stream, codec.align(stream, SHORT)):
            tags.clear()
            lengths.clear()
            if named == reader.id:
                assert auth.verify_and_decode(received, reader, SHORT) == named << low | 0x2A
                assert len(tags) == lengths.count(SHORT.user_bits) == 1
            else:
                with pytest.raises(auth.AuthFailure):
                    auth.verify_and_decode(received, reader, SHORT)
                assert tags == [] and SHORT.user_bits not in lengths


def test_wrong_version_fails():
    rng = random.Random(25)
    k0 = auth.derive_keys(MK, 50, ver=0)
    k1 = auth.derive_keys(MK, 50, ver=1)
    user = naming(k0, bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)]),
                  SHORT)
    stream = auth.encode_authenticated(user, k0, SHORT) * 3
    with pytest.raises(auth.AuthFailure):
        auth.verify_and_decode(stream, k1, SHORT)


def test_legacy_telegram_fails_authentication():
    rng = random.Random(26)
    keys = auth.derive_keys(MK, 60)
    user = naming(keys, bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)]),
                  SHORT)
    stream = codec.encode_legacy(user, 0x555, SHORT) * 3
    with pytest.raises(auth.AuthFailure):
        auth.verify_and_decode(stream, keys, SHORT)


def test_altered_user_data_with_reused_sb_fails():
    # content-swap attack: rewrite user data, keep sb, re-encode publicly
    rng = random.Random(27)
    keys = auth.derive_keys(MK, 61)
    user = naming(keys, bits_to_int([rng.randrange(2) for _ in range(SHORT.user_bits)]),
                  SHORT)
    telegram = auth.encode_authenticated(user, keys, SHORT)
    sb = auth.tag_sb(keys.k0, user, SHORT)
    altered = int_to_bits(user, SHORT.user_bits)
    altered[17] ^= 1
    forged = codec.encode(bits_to_int(altered), sb, auth.prf_s(keys.k1, sb), SHORT)
    with pytest.raises(auth.AuthFailure):
        auth.verify_and_decode(forged * 3, keys, SHORT)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_tag_and_encoding_take_the_user_data_as_an_int_of_user_bits(fmt):
    keys = auth.derive_keys(MK, 63)
    for user in ([0] * fmt.user_bits, -1, 1 << fmt.user_bits):
        with pytest.raises(codec.FormatError):
            auth.generate_tag(user, keys, fmt)
        with pytest.raises(codec.FormatError):
            auth.encode_authenticated(user, keys, fmt)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_stream_of_character_codes_fails_to_verify(fmt):
    # The telegram sent as the codes of '0' and '1'.  Before non-bits were
    # rejected it verified at shift 0 and ended in NoTelegramFound
    # rotated by 100, as the per-bit roll ORed 48 and 49 into the remainder.
    keys = auth.derive_keys(MK, 64)
    user = random.Random(64).getrandbits(fmt.user_bits)
    stream = [48 + b for b in auth.encode_authenticated(user, keys, fmt)] * 3
    for bits in (stream, stream[100:] + stream[:100]):
        with pytest.raises(codec.FormatError):
            auth.verify_and_decode(bits, keys, fmt)


def test_garbage_stream_raises_no_telegram():
    keys = auth.derive_keys(MK, 62)
    rng = random.Random(28)
    stream = [rng.randrange(2) for _ in range(3 * SHORT.n)]
    with pytest.raises(codec.NoTelegramFound):
        auth.verify_and_decode(stream, keys, SHORT)


def test_key_separation_sampled():
    # A tag made under (id, ver) must not verify under (id', ver'):
    # the verifier derives a different S, descrambles to garbled user
    # bits and recomputes a different tag.  Per-trial accidental match
    # probability is ~2^-12; the seed is chosen so this deterministic
    # 10^4-trial sample is collision-free (the statistical accept-rate
    # law itself is measured in the acceptance suite).
    rng = random.Random(31)
    fmt = SHORT
    for _ in range(10_000):
        id_a = rng.randrange(1 << auth.ID_BITS)
        keys_a = auth.derive_keys(MK, id_a, rng.randrange(4))
        user = bits_to_int([rng.randrange(2) for _ in range(fmt.user_bits)])
        sb = auth.tag_sb(keys_a.k0, user, fmt)
        id_b = rng.randrange(1 << auth.ID_BITS)
        ver_b = rng.randrange(4)
        if (id_b, ver_b) == (keys_a.id, keys_a.ver):
            continue
        keys_b = auth.derive_keys(MK, id_b, ver_b)
        s_a = auth.prf_s(keys_a.k1, sb)
        s_b = auth.prf_s(keys_b.k1, sb)
        n = fmt.user_bits
        u_prime = user ^ codec.keystream(s_a, n) ^ codec.keystream(s_b, n)
        assert auth.tag_sb(keys_b.k0, u_prime, fmt) != sb


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**210 - 1),
       st.integers(min_value=0, max_value=(1 << auth.ID_BITS) - 1))
def test_round_trip_property(user_int, balise_id):
    keys = auth.derive_keys(MK, balise_id)
    user_int = naming(keys, user_int, SHORT)
    stream = auth.encode_authenticated(user_int, keys, SHORT) * 3
    assert auth.verify_and_decode(stream, keys, SHORT) == user_int


# ---------------------------------------------------------------------------
# Keystore
# ---------------------------------------------------------------------------

def test_keystore_seeded_reproducible():
    assert auth.new_keystore(seed=42).mk == auth.new_keystore(seed=42).mk
    assert auth.new_keystore(seed=42).mk != auth.new_keystore(seed=43).mk


def test_keystore_rejects_out_of_range_seed():
    auth.new_keystore(seed=0)
    auth.new_keystore(seed=(1 << 64) - 1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            auth.new_keystore(seed=seed)


@pytest.mark.parametrize("kwargs", [
    {"seed": True},
    {"seed": 1.5},
    {"seed": 1, "ver": -1},
    {"seed": 1, "ver": 1 << 16},
    {"seed": 1, "ver": True},
    {"seed": 1, "ver": 1.5},
    {"ver": -1},
])
def test_keystore_rejects_a_bool_or_non_int_seed_or_ver(kwargs):
    # load_keystore refuses each of these vers, so no keystore may hold one.
    with pytest.raises(ValueError):
        auth.new_keystore(**kwargs)


def test_keystore_unseeded_distinct():
    assert auth.new_keystore().mk != auth.new_keystore().mk


def test_keystore_file_round_trip(tmp_path):
    store = auth.new_keystore(seed=7, ver=2)
    path = str(tmp_path / "ks.json")
    auth.save_keystore(store, path)
    loaded = auth.load_keystore(path)
    assert loaded == store
    assert loaded.keys_for(9) == store.keys_for(9)


MK_HEX = "00" * 32


@pytest.mark.parametrize("raw", [
    [1, 2],
    "mk",
    {"ver": 0},
    {"mk_hex": 7, "ver": 0},
    {"mk_hex": MK_HEX},
    {"mk_hex": MK_HEX, "ver": "0"},
    {"mk_hex": MK_HEX, "ver": 1.5},
    {"mk_hex": MK_HEX, "ver": True},
    {"mk_hex": MK_HEX, "ver": -1},
    {"mk_hex": MK_HEX, "ver": 1 << 16},
])
def test_keystore_rejects_malformed_file(tmp_path, raw):
    path = tmp_path / "ks.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        auth.load_keystore(str(path))


def test_keystore_rejects_short_mk(tmp_path):
    path = tmp_path / "ks.json"
    path.write_text('{"mk_hex": "abcd", "ver": 0}')
    with pytest.raises(ValueError):
        auth.load_keystore(str(path))


def test_emit_tag_vectors_script_matches_auth():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "emit_tag_vectors.py"),
         "--count", "3", "--format", "short"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    for vec in lines:
        assert vec["format"] == "short"
        text = vec["user_bits"]
        assert len(text) == SHORT.user_bits and set(text) <= {"0", "1"}
        keys = auth.derive_keys(bytes.fromhex(vec["mk_hex"]), vec["id"], vec["ver"])
        sb = auth.tag_sb(keys.k0, int(text, 2), SHORT)
        assert vec["sb_hex"] == f"{sb:03x}"
        assert vec["S_hex"] == f"{auth.prf_s(keys.k1, sb):08x}"


# SHA-256 of emit_tag_vectors.py --seed 0 --count 16 in each format: the
# KDF, tag and PRF outputs frozen as the codec vectors are.
TAG_VECTOR_DIGESTS = {
    "long": "66f49faf2e01e7324d7af7c210c4ac22be543b82f016d642965fcd2fefefd510",
    "short": "7f0cc2a7dfe0cd5f7d867675c4e262464a53b209bbe69c24b285f33a6938b28a",
}


@pytest.mark.parametrize("fmt", sorted(TAG_VECTOR_DIGESTS))
def test_emit_tag_vectors_output_is_frozen(fmt):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "emit_tag_vectors.py"),
         "--seed", "0", "--count", "16", "--format", fmt],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, check=True, timeout=60,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == TAG_VECTOR_DIGESTS[fmt]


@pytest.mark.parametrize("script,args", [
    ("keyless_forgery", ["--crossings", "0"]),   # raised ZeroDivisionError
    ("keyless_forgery", ["--crossings", "-5"]),  # printed -0.0000% per crossing
    ("emit_tag_vectors", ["--seed", "-1"]),      # raised ValueError
    ("emit_tag_vectors", ["--count", "-3"]),     # printed nothing, exit 0
], ids=["crossings_0", "crossings_-5", "seed_-1", "count_-3"])
def test_scripts_reject_out_of_range_arguments(script, args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", script + ".py"), *args],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert f"error: {args[0]} must be " in run.stderr
    assert "Traceback" not in run.stderr


def test_keyless_forgery_script_counts_are_consistent():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "keyless_forgery.py"),
         "--crossings", "200", "--seed", "0"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    n, m = map(int, re.search(r"crossings N = (\d+), keys per crossing m = (\d+)",
                              out).groups())
    tag_passes = int(re.search(r"^tag passes: (\d+) \(", out, re.M).group(1))
    accepted = int(re.search(r"^accepted: +(\d+) \(", out, re.M).group(1))
    kept, bound = re.search(r"^S values kept: (\d+) \(at most ([\d,]+)\)$",
                            out, re.M).groups()
    assert n == 200
    assert 0 <= accepted <= tag_passes <= n * m
    assert int(bound.replace(",", "")) == auth.prf_s.cache_parameters()["maxsize"]
    # The exact counts of this seeded run.  One of the three tag passes
    # parsed to a payload under a key whose id it does not name; the
    # reader, which accepts a payload only under its own id's key,
    # accepts none of them.  Each key keeps the S of the 190 distinct
    # forged sb values.
    assert (m, tag_passes, accepted, int(kept)) == (50, 3, 0, 50 * 190)
