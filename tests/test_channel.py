"""Seeded bit-flip channel over transmitted streams.

Each of N = 2000 trials encodes a random payload, legacy or
authenticated, in the long or the short format.  It flips 1 to 4
telegram bits, repeats the telegram three times (so every copy carries
the same flips), rotates the stream and inverts it half the time.  A
read that returns a payload other than the one sent is an undetected
error, and there must be none; a rejection is a detected error.
"""

import random

from balisim import auth, codec
from balisim.bits import int_to_bits

N = 2000


def test_bit_flip_channel_2000_streams_no_undetected_error():
    rng = random.Random(2026)
    keys = auth.derive_keys(bytes(range(32)), balise_id=7)
    undetected = detected = 0
    for trial in range(N):
        fmt = codec.SHORT if trial % 2 else codec.LONG
        authenticated = trial % 4 >= 2
        user = int_to_bits(rng.getrandbits(fmt.user_bits), fmt.user_bits)
        if authenticated:
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
                got = codec.decode_stream(stream, fmt).user_bits
        except (codec.CodecError, auth.AuthFailure):
            detected += 1
            continue
        undetected += got != user
    print(f"bit-flip channel: N={N}, detected={detected}, undetected={undetected}")
    assert undetected == 0
