"""Seeded bit-flip channel over transmitted streams.

Each of N = 2000 trials encodes a random payload, legacy or
authenticated, in the long or the short format.  It flips 1 to 4
telegram bits, repeats the telegram three times (so every copy carries
the same flips), rotates the stream and inverts it half the time.  A
read that returns a payload other than the one sent is an undetected
error, and there must be none; a rejection is a detected error.  The
same holds over channel model v2 (channel_model.py), which adds
independent flips per copy, bursts, slipped bits, truncation, random
streams and wrong control bits.
"""

import random

from balisim import auth, codec

import channel_model

N = 2000


def named_by(keys, user, fmt):
    """user with its leading id bits replaced by the id of keys, which
    verify_and_decode requires of a payload it accepts."""
    low = fmt.user_bits - auth.ID_BITS
    return keys.id << low | user & ((1 << low) - 1)


def test_bit_flip_channel_2000_streams_no_undetected_error():
    rng = random.Random(2026)
    keys = auth.derive_keys(bytes(range(32)), balise_id=7)
    undetected = detected = 0
    for trial in range(N):
        fmt = codec.SHORT if trial % 2 else codec.LONG
        authenticated = trial % 4 >= 2
        user = rng.getrandbits(fmt.user_bits)
        if authenticated:
            user = named_by(keys, user, fmt)
            telegram = auth.encode_authenticated(user, keys, fmt)
        else:
            telegram = codec.encode_legacy(user, rng.randrange(1 << codec.SB_WIDTH), fmt)
        for pos in rng.sample(range(fmt.n), rng.randint(1, 4)):
            telegram[pos] ^= 1
        stream = telegram * 3
        k = rng.randrange(fmt.n)
        stream = stream[k:] + stream[:k]
        if rng.randrange(2):
            stream = [1 - b for b in stream]
        try:
            if authenticated:
                got = auth.verify_and_decode(stream, keys, fmt)
            else:
                got = codec.decode_stream(stream, fmt).user
        except (codec.CodecError, auth.AuthFailure):
            detected += 1
            continue
        undetected += got != user
    print(f"bit-flip channel: N={N}, detected={detected}, undetected={undetected}")
    assert undetected == 0


def test_channel_model_v2_returns_no_payload_that_was_not_sent():
    # Each case is read twice over the same impairment: a legacy telegram
    # through decode_stream and an authenticated one through
    # verify_and_decode.  Any exception is a rejection.
    keys = auth.derive_keys(bytes(range(32)), balise_id=9)
    tally = {}
    for fmt, impairment, inverted, rng in channel_model.corpus(seed=2027, per_case=100):
        user = named_by(keys, rng.getrandbits(fmt.user_bits), fmt)
        legacy = codec.encode_legacy(user, rng.randrange(1 << codec.SB_WIDTH), fmt)
        channel = rng.getstate()
        for path, telegram in (("legacy", legacy),
                               ("auth", auth.encode_authenticated(user, keys, fmt))):
            rng.setstate(channel)
            stream = channel_model.receive(telegram, fmt, impairment, inverted, rng)
            try:
                if path == "legacy":
                    got = codec.decode_stream(stream, fmt).user
                else:
                    got = auth.verify_and_decode(stream, keys, fmt)
                outcome = "sent" if got == user else "wrong"
            except (codec.CodecError, auth.AuthFailure) as exc:
                outcome = type(exc).__name__
            key = (impairment, fmt.name, path, outcome)
            tally[key] = tally.get(key, 0) + 1
    for key in sorted(tally):
        print("channel v2:", *key, tally[key])
    assert not any(key[-1] == "wrong" for key in tally)
    # Impairments that leave no clean window are always rejected.
    for impairment, _, _, outcome in tally:
        if impairment in ("flips_same", "burst", "random", "bad_cb"):
            assert outcome != "sent"
