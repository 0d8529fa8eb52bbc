"""Seeded bit-flip channel over transmitted streams.

Each of N = 2000 trials encodes a random payload, legacy or
authenticated, in the long or the short format.  It flips 1 to 4
telegram bits, repeats the telegram three times (so every copy carries
the same flips), rotates the stream and inverts it half the time.  The
stream is read as the train reads it, through one codec.align and
read_telegram, the authenticated one on a 50-key track (see
channel_model.verdict).  A read that returns other fields, data or sb
than those sent is an undetected error, and there must be none; a
rejection is a detected error.  The same holds over channel model v2
(channel_model.py), which adds independent flips per copy, bursts,
slipped bits, truncation, random streams and wrong control bits.  And
it holds by enumeration for every error of weight 1 and 2 of one short
codeword, the same in all three copies.
"""

import collections
import itertools
import random

import pytest

from balisim import auth, codec
from balisim.sim import read_telegram, scenario
from balisim.sim.deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, \
    BaliseSpec, KIND_FIXED, program_telegram

import channel_model

N = 2000


def test_bit_flip_channel_2000_streams_no_undetected_error():
    rng = random.Random(2026)
    undetected = detected = 0
    for trial in range(N):
        fmt = codec.SHORT if trial % 2 else codec.LONG
        n = fmt.n
        auth_mode = AUTH_AUTHENTICATED if trial % 4 >= 2 else AUTH_LEGACY
        user = channel_model.payload(rng, fmt)
        sb = None if auth_mode == AUTH_AUTHENTICATED \
            else rng.randrange(1 << codec.SB_WIDTH)
        telegram, sent = channel_model.telegram(user, fmt, auth_mode, sb)
        telegram = channel_model.rotated(
            channel_model.flipped(telegram, n, rng), rng.randrange(n), n)
        value, length = channel_model.joined([telegram] * 3, n)
        if rng.randrange(2):
            value ^= (1 << length) - 1
        verdict = channel_model.verdict(codec.Stream(value, length), fmt,
                                        auth_mode, sent)
        undetected += verdict == "wrong"
        detected += verdict not in ("sent", "wrong")
    print(f"bit-flip channel: N={N}, detected={detected}, undetected={undetected}")
    assert undetected == 0


def test_channel_model_v2_returns_no_payload_that_was_not_sent():
    tally = channel_model.tally()
    for key in sorted(tally):
        print("channel v2:", *key, tally[key])
    assert not any(key[-1] == "wrong" for key in tally)
    # Impairments that leave no clean window are always rejected.
    for impairment, _, _, outcome in tally:
        if impairment in ("flips_same", "burst", "random", "bad_cb"):
            assert outcome != "sent"


@pytest.mark.parametrize("auth_mode", [AUTH_LEGACY, AUTH_AUTHENTICATED])
def test_every_error_of_weight_1_and_2_is_rejected_or_read_as_sent(auth_mode):
    # Balise 3's short codeword at -36 m with each of its 341 single-bit
    # and 57,970 two-bit errors, the same in all three copies, read as a
    # crossing of the default track reads it.
    fmt = codec.SHORT
    keystore = auth.new_keystore(seed=1)
    track_ids = [1, 2, 3, 4, 5, 6]
    t = program_telegram(BaliseSpec(3, -36.0, KIND_FIXED), auth_mode,
                         keystore, fmt)

    def read(codeword):
        return read_telegram(scenario.align_codeword(codeword, fmt),
                             auth_mode, keystore, track_ids, fmt)

    sent = read(t)
    assert sent == (3, KIND_FIXED, -36.0)
    bits = [1 << i for i in range(fmt.n)]
    errors = itertools.chain(
        bits, (a | b for a, b in itertools.combinations(bits, 2)))
    outcomes = collections.Counter(
        "rejected" if fields is None else "sent" if fields == sent
        else "wrong" for fields in map(read, (t ^ e for e in errors)))
    print(f"weight 1-2, {auth_mode}: {dict(outcomes)}")
    assert sum(outcomes.values()) == 58_311
    assert set(outcomes) <= {"rejected", "sent"}
