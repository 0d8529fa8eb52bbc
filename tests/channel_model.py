"""Channel model v2: the streams a reader may receive for one telegram.

A balise repeats its telegram, and the reader records three copies that
start at a random offset into it.  The copies pass through one
impairment of IMPAIRMENTS, and the received stream is inverted for half
of the streams.  corpus() draws a seeded set of cases over both formats
and every impairment; tally() sends each case twice, as a legacy and as
an authenticated telegram, and reads each received stream as the train
does (see verdict): one codec.align, then sim.scenario.read_telegram, in
the authenticated mode on a track of TRACK_BALISES keys that tries the
sender's key last.  A telegram and a stream are ints, the stream a
codec.Stream.
"""

import functools
import random

from balisim import auth, codec
from balisim.sim import deployment, parse_payload, scenario

COPIES = 3
BURST_BITS = 16
MAX_FLIPS = 4
PER_CASE = 100
TRACK_BALISES = 50

KEYSTORE = auth.Keystore(bytes(range(32)), 0)
SENDER = 9
# The ids of the authenticated reader's track map, the sender's last.
TRACK = [i for i in range(1, TRACK_BALISES + 1) if i != SENDER] + [SENDER]

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


def payload(rng, fmt):
    """Random user data that names SENDER and parses: its leading id bits
    are SENDER's, which verify_and_decode requires of a payload it
    accepts, and the high bit of its 2-bit kind code is 0."""
    low = fmt.user_bits - auth.ID_BITS
    user = SENDER << low | rng.getrandbits(fmt.user_bits) & ((1 << low) - 1)
    return user & ~(1 << (low - 1))


def telegram(user, fmt, auth_mode, sb=None):
    """(codeword, sent): the telegram of user in auth_mode, with sb in
    legacy mode, and the (fields, data, sb) a read of it must give:
    parse_payload's fields, and the scrambled data and sb it carries."""
    if auth_mode == deployment.AUTH_LEGACY:
        s = codec.legacy_s_from_sb(sb)
    else:
        sb, s = auth.generate_tag(user, KEYSTORE.keys_for(SENDER), fmt)
    sent = (parse_payload(user, fmt),
            user ^ codec.keystream(s, fmt.user_bits), sb)
    return codec.codeword(user, sb, s, fmt), sent


def verdict(stream, fmt, auth_mode, sent):
    """How the train's reader reads a received stream: "sent", "wrong"
    (accepted, with fields, data or sb other than sent's), "unread"
    (aligned, but read_telegram returns None) or the name of the
    CodecError with which codec.align rejects it."""
    try:
        aligned = codec.align(stream, fmt)
    except codec.CodecError as exc:
        return type(exc).__name__
    fields = scenario.read_telegram(aligned, auth_mode, KEYSTORE, TRACK, fmt)
    if fields is None:
        return "unread"
    return "sent" if (fields, aligned.data, aligned.sb) == sent else "wrong"


def rotated(t, k, n):
    """The n-bit int t rotated left by k < n bits: list t[k:] + t[:k]."""
    return (t << k | t >> (n - k)) & ((1 << n) - 1)


def flipped(t, n, rng):
    """The n-bit int t with 1 to MAX_FLIPS distinct bits flipped."""
    for pos in rng.sample(range(n), rng.randint(1, MAX_FLIPS)):
        t ^= 1 << (n - 1 - pos)
    return t


def joined(copies, n):
    """The n-bit ints of copies one after the other, as (value, length)."""
    value = 0
    for copy in copies:
        value = value << n | copy
    return value, n * len(copies)


def with_control_bits(telegram, fmt, rng):
    """telegram with control bits other than 001, check bits recomputed."""
    cb = rng.choice([c for c in range(8) if c != 0b001])
    shift = codec.SB_WIDTH + codec.ESB_WIDTH  # bits after cb in the prefix
    mask = ((1 << codec.CB_WIDTH) - 1) << shift
    prefix = telegram >> codec.CHECK_WIDTH & ~mask | cb << shift
    return prefix << codec.CHECK_WIDTH | codec.compute_check_bits(prefix)


def receive(telegram, fmt, impairment, inverted, rng):
    """The codec.Stream received for telegram under impairment."""
    n = fmt.n
    k = rng.randrange(n)
    start = rotated(telegram, k, n)
    if impairment in ("bad_cb", "bad_cb_then_good"):
        bad = rotated(with_control_bits(telegram, fmt, rng), k, n)
        copies = [bad] * (COPIES if impairment == "bad_cb" else COPIES - 1)
        if impairment == "bad_cb_then_good":
            copies += [start] * COPIES
        value, length = joined(copies, n)
    elif impairment == "flips_per_copy":
        value, length = joined([flipped(start, n, rng) for _ in range(COPIES)], n)
    else:
        copy = start
        if impairment == "flips_same":
            copy = flipped(copy, n, rng)
        elif impairment == "burst":
            pos = rng.randrange(n - BURST_BITS + 1)
            pattern = rng.getrandbits(BURST_BITS) | 1 | (1 << (BURST_BITS - 1))
            for i in range(BURST_BITS):  # bit i of pattern onto bit pos + i
                copy ^= (pattern >> i & 1) << (n - 1 - pos - i)
        value, length = joined([copy] * COPIES, n)
        windows = length - n - fmt.r_init + 1
        drop = 0  # the bits that truncation cuts off the end
        if impairment == "delete":
            after = length - 1 - rng.randrange(length)  # bits after the deleted
            value = value >> (after + 1) << after | value & ((1 << after) - 1)
            length -= 1
        elif impairment == "insert":
            after = length - rng.randrange(length + 1)
            bit = rng.randrange(2)
            value = (value >> after << 1 | bit) << after | value & ((1 << after) - 1)
            length += 1
        elif impairment == "truncate_short":
            drop = windows - rng.randint(1, 5)
        elif impairment == "truncate":
            drop = windows - 6 * rng.randrange(1, windows // 6) - rng.randrange(6)
        elif impairment == "random":
            value = 0
            for _ in range(length):
                value = value << 1 | rng.randrange(2)
        value >>= drop
        length -= drop
    if inverted:
        value ^= (1 << length) - 1
    return codec.Stream(value, length)


@functools.cache
def tally():
    """(impairment, format name, path, outcome) -> reads, over PER_CASE
    streams per format and impairment.  path is "legacy" or "auth";
    outcome is verdict's.  Both reads of a case see the same impairment."""
    counts = {}
    for fmt, impairment, inverted, rng in corpus(seed=2027, per_case=PER_CASE):
        user = payload(rng, fmt)
        legacy_sb = rng.randrange(1 << codec.SB_WIDTH)
        channel = rng.getstate()
        for path, auth_mode, sb in (
                ("legacy", deployment.AUTH_LEGACY, legacy_sb),
                ("auth", deployment.AUTH_AUTHENTICATED, None)):
            t, sent = telegram(user, fmt, auth_mode, sb)
            rng.setstate(channel)
            stream = receive(t, fmt, impairment, inverted, rng)
            key = (impairment, fmt.name, path, verdict(stream, fmt, auth_mode, sent))
            counts[key] = counts.get(key, 0) + 1
    return counts
