"""Channel model v2: the streams a reader may receive for one telegram.

A balise repeats its telegram, and the reader records three copies that
start at a random offset into it.  The copies pass through one
impairment of IMPAIRMENTS, and the received stream is inverted for half
of the streams.  corpus() draws a seeded set of cases over both formats
and every impairment; a test encodes each case's payload the way it
reads it (legacy or authenticated) and passes the telegram to receive().
"""

import random

from balisim import codec
from balisim.bits import bits_to_int, int_to_bits

COPIES = 3
BURST_BITS = 16
MAX_FLIPS = 4

IMPAIRMENTS = (
    "clean",
    "flips_same",         # 1-4 flipped bits, the same in every copy
    "flips_per_copy",     # 1-4 flipped bits drawn anew for each copy
    "burst",              # a 16-bit burst, the same in every copy
    "delete",             # one bit deleted somewhere in the stream
    "insert",             # one random bit inserted somewhere in the stream
    "truncate_short",     # cut to 1-5 windows
    "truncate",           # cut to 6q + s windows, s in 0..5
    "random",             # uniform random bits, as long as three copies
    "bad_cb",             # a codeword with wrong control bits, alone
    "bad_cb_then_good",   # two copies of that codeword, then the telegram
)


def corpus(seed, per_case):
    """(fmt, impairment, inverted, rng) for per_case streams of every
    format and impairment; the rng draws the payload and the impairment."""
    rng = random.Random(seed)
    cases = []
    for fmt in (codec.LONG, codec.SHORT):
        for impairment in IMPAIRMENTS:
            for i in range(per_case):
                cases.append((fmt, impairment, i % 2 == 1,
                              random.Random(rng.getrandbits(64))))
    return cases


def with_control_bits(telegram, fmt, rng):
    """telegram with control bits other than 001, check bits recomputed."""
    cb = rng.choice([c for c in range(8) if c != 0b001])
    prefix = telegram[: fmt.check_prefix_bits]
    prefix[fmt.shaped_bits : fmt.shaped_bits + codec.CB_WIDTH] = \
        int_to_bits(cb, codec.CB_WIDTH)
    check = codec.compute_check_bits(bits_to_int(prefix))
    return prefix + int_to_bits(check, codec.CHECK_WIDTH)


def receive(telegram, fmt, impairment, inverted, rng):
    """The stream received for telegram under impairment."""
    n = fmt.n
    k = rng.randrange(n)
    start = telegram[k:] + telegram[:k]
    if impairment in ("bad_cb", "bad_cb_then_good"):
        bad = with_control_bits(telegram, fmt, rng)
        bad = bad[k:] + bad[:k]
        copies = COPIES if impairment == "bad_cb" else COPIES - 1
        stream = bad * copies
        if impairment == "bad_cb_then_good":
            stream += start * COPIES
    elif impairment == "flips_per_copy":
        stream = []
        for _ in range(COPIES):
            copy = list(start)
            for pos in rng.sample(range(n), rng.randint(1, MAX_FLIPS)):
                copy[pos] ^= 1
            stream += copy
    else:
        copy = list(start)
        if impairment == "flips_same":
            for pos in rng.sample(range(n), rng.randint(1, MAX_FLIPS)):
                copy[pos] ^= 1
        elif impairment == "burst":
            pos = rng.randrange(n - BURST_BITS + 1)
            pattern = rng.getrandbits(BURST_BITS) | 1 | (1 << (BURST_BITS - 1))
            for i in range(BURST_BITS):
                copy[pos + i] ^= (pattern >> i) & 1
        stream = copy * COPIES
        windows = len(stream) - n - fmt.r_init + 1
        if impairment == "delete":
            del stream[rng.randrange(len(stream))]
        elif impairment == "insert":
            stream.insert(rng.randrange(len(stream) + 1), rng.randrange(2))
        elif impairment == "truncate_short":
            stream = stream[: len(stream) - windows + rng.randint(1, 5)]
        elif impairment == "truncate":
            keep = 6 * rng.randrange(1, windows // 6) + rng.randrange(6)
            stream = stream[: len(stream) - windows + keep]
        elif impairment == "random":
            stream = [rng.randrange(2) for _ in stream]
    return [1 - b for b in stream] if inverted else stream
