"""Telegram codec tests: frozen oracle vectors, independent reference
implementations, and property-based round trips.

Oracle values were computed once from standalone reference code (naive
polynomial long division, a list-based LFSR) and frozen here; the
module under test must keep matching them bit for bit.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balisim import auth, codec
from balisim.bits import bits_to_int, int_to_bits

import channel_model

LONG = codec.LONG
SHORT = codec.SHORT


# ---------------------------------------------------------------------------
# Reference implementations (kept deliberately naive and independent)
# ---------------------------------------------------------------------------

def longdiv_remainder(bits, g_bits):
    """Schoolbook polynomial long division over GF(2) on bit lists."""
    work = list(bits)
    for i in range(len(work) - len(g_bits) + 1):
        if work[i]:
            for j, gb in enumerate(g_bits):
                work[i + j] ^= gb
    return work[-(len(g_bits) - 1):]


def lfsr_reference(seed, nbits):
    """Fibonacci LFSR, taps 32/22/2/1, as an explicit bit-list register."""
    if seed == 0:
        seed = 1
    state = [(seed >> (31 - i)) & 1 for i in range(32)]
    out = []
    for _ in range(nbits):
        out.append(state[0])
        fb = state[0] ^ state[10] ^ state[30] ^ state[31]
        state = state[1:] + [fb]
    return out


G_BITS = int_to_bits(codec.GEN_POLY, codec.CHECK_WIDTH + 1)


def check_bits(prefix):
    """codec.compute_check_bits of a bit list, as a bit list."""
    return int_to_bits(codec.compute_check_bits(bits_to_int(prefix)),
                       codec.CHECK_WIDTH)


# ---------------------------------------------------------------------------
# Scrambler
# ---------------------------------------------------------------------------

def test_keystream_frozen_vectors():
    assert format(codec.keystream(0x12345678, 40), "040b") == \
        "0001001000110100010101100111100010110100"
    assert format(codec.keystream(0x00000000, 40), "040b") == \
        "0000000000000000000000000000000110110110"
    assert format(codec.keystream(0xFFFFFFFF, 40), "040b") == \
        "1111111111111111111111111111111101101101"


def test_keystream_first_32_bits_replay_seed():
    # the Fibonacci register shifts the seed out MSB-first, so up to 32
    # bits the keystream is read off the register; past that it comes
    # from the tables, which the list LFSR checks.
    assert codec.keystream(0xDEADBEEF, 32) == 0xDEADBEEF
    rng = random.Random(17)
    seeds = [0, 1, 1 << 31, (1 << 32) - 1, 1 << 32]
    seeds += [rng.randrange(1 << 32) for _ in range(1000)]
    for seed in seeds:
        register = (seed & 0xFFFFFFFF) or 1
        full = codec.keystream(seed, 830)
        assert int_to_bits(full >> (830 - 64), 64) == lfsr_reference(seed & 0xFFFFFFFF, 64)
        for k in range(33):
            assert codec.keystream(seed, k) == register >> (32 - k) == full >> (830 - k)


def test_keystream_zero_seed_guard():
    assert codec.keystream(0, 64) != 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_keystream_matches_reference_lfsr(seed):
    assert int_to_bits(codec.keystream(seed, 100), 100) == lfsr_reference(seed, 100)


def test_keystream_matches_reference_across_block_boundaries():
    # Up to 32 bits are the register, 33 is the first from the tables;
    # 830 bits is one table block; 831 and 2000 chain blocks.
    rng = random.Random(16)
    seeds = [0, 1, 0xFFFFFFFF] + [rng.randrange(1 << 32) for _ in range(8)]
    for seed in seeds:
        reference = lfsr_reference(seed, 2000)
        for nbits in (0, 1, 32, 33, 210, 830, 831, 2000):
            assert int_to_bits(codec.keystream(seed, nbits), nbits) == reference[:nbits]


def test_keystream_pair_collisions():
    rng = random.Random(2)
    seen = set()
    for _ in range(1000):
        s = rng.randrange(1, 1 << 32)
        seen.add(codec.keystream(s, 64))
    assert len(seen) >= 999  # distinct seeds give distinct streams


def test_legacy_s_frozen_vectors():
    assert codec.legacy_s_from_sb(0x000) == 0x5A5A5A5A
    assert codec.legacy_s_from_sb(0xABC) == 0xF190ECE6
    assert codec.legacy_s_from_sb(0xFFF) == 0xA5A5AAA5
    assert codec.legacy_s_from_sb(0x001) == 0x5A4A5B5B


def test_legacy_s_deterministic_and_nonzero():
    for sb in range(0, 1 << 12, 17):
        s = codec.legacy_s_from_sb(sb)
        assert s == codec.legacy_s_from_sb(sb)
        assert 0 < s < (1 << 32)


# ---------------------------------------------------------------------------
# Substitution alphabet
# ---------------------------------------------------------------------------

def test_table_structure():
    words = codec.ALPHABET
    assert len(words) == 1024
    assert list(words) == sorted(words)
    assert all(bin(w).count("1") in (4, 5, 6, 7) for w in words)
    assert all(0 <= w < (1 << 11) for w in words)


def test_table_frozen_spot_values():
    words = codec.ALPHABET
    assert list(words[:8]) == [15, 23, 27, 29, 30, 31, 39, 43]
    assert words[512] == 689
    assert words[1023] == 1307
    digest = hashlib.sha256(json.dumps(list(words)).encode()).hexdigest()
    assert digest == \
        "2cd3a62296b24613dbf966a16485708495b01b21943ada1336132bee0eff2972"


def test_substitution_bijection():
    for block in range(1024):
        word = codec.substitute(block, 1)
        assert 0 <= word < (1 << 11)
        assert codec.desubstitute(word, 1) == block


def test_substitute_strictly_increasing():
    words = [codec.substitute(b, 1) for b in range(1024)]
    assert words == sorted(set(words))


def test_desubstitute_rejects_non_alphabet_words():
    with pytest.raises(codec.AlphabetError):
        codec.desubstitute(0, 1)  # popcount 0
    with pytest.raises(codec.AlphabetError):
        codec.desubstitute(0x7FF, 1)  # popcount 11


def oracle_substitute(groups: int, count: int) -> int:
    """codec.substitute as the per-group loop, verbatim."""
    words = 0
    for shift in range(codec.GROUP_WIDTH * (count - 1), -1, -codec.GROUP_WIDTH):
        words = (words << codec.WORD_WIDTH) | codec.ALPHABET[(groups >> shift) & 0x3FF]
    return words


_ORACLE_GROUP_OF = {w: i for i, w in enumerate(codec.ALPHABET)}


def oracle_desubstitute(words: int, count: int) -> int:
    """codec.desubstitute as the per-word loop, verbatim."""
    groups = 0
    for shift in range(codec.WORD_WIDTH * (count - 1), -1, -codec.WORD_WIDTH):
        word = (words >> shift) & 0x7FF
        group = _ORACLE_GROUP_OF.get(word)
        if group is None:
            raise codec.AlphabetError(f"word {word:#05x} is not in the alphabet")
        groups = (groups << codec.GROUP_WIDTH) | group
    return groups


# The smallest word with 4..7 ones that is not among the 1024 in ALPHABET.
FIRST_WORD_PAST_THE_ALPHABET = next(
    w for w in range(codec.ALPHABET[-1] + 1, 1 << codec.WORD_WIDTH)
    if 4 <= bin(w).count("1") <= 7)


def desubstitute_outcome(desubstitute, words, count):
    try:
        return desubstitute(words, count)
    except codec.AlphabetError as exc:
        return str(exc)


@pytest.mark.parametrize("count", [0, 1, 21, 83])
def test_substitution_matches_per_word_loops_on_random_ints(count):
    rng = random.Random(700 + count)
    for _ in range(50):
        groups = rng.getrandbits(codec.GROUP_WIDTH * count)
        words = codec.substitute(groups, count)
        assert words == oracle_substitute(groups, count)
        assert codec.desubstitute(words, count) == oracle_desubstitute(words, count) == groups
        # Random words: about half are outside the alphabet.
        junk = rng.getrandbits(codec.WORD_WIDTH * count)
        assert desubstitute_outcome(codec.desubstitute, junk, count) == \
            desubstitute_outcome(oracle_desubstitute, junk, count)


@pytest.mark.parametrize("count", [1, 21, 83])
def test_desubstitute_reports_the_first_invalid_word_at_every_position(count):
    # Every word position made invalid once, by a word with too few or
    # too many ones or the first word past the alphabet, and then with a
    # second invalid word after the first.
    rng = random.Random(710 + count)
    words = codec.substitute(rng.getrandbits(codec.GROUP_WIDTH * count), count)
    for k in range(count):
        shift = codec.WORD_WIDTH * (count - 1 - k)
        for bad in (0x000, 0x7FF, 0x001, 0x7FE, FIRST_WORD_PAST_THE_ALPHABET):
            broken = words & ~(0x7FF << shift) | bad << shift
            expected = f"word {bad:#05x} is not in the alphabet"
            with pytest.raises(codec.AlphabetError) as exc:
                codec.desubstitute(broken, count)
            assert str(exc.value) == expected
            assert desubstitute_outcome(oracle_desubstitute, broken, count) == expected
            if k + 1 < count:
                later = broken & ~(0x7FF << (shift - codec.WORD_WIDTH))
                assert desubstitute_outcome(codec.desubstitute, later, count) == expected


def test_substitution_matches_per_word_loops_at_the_alphabet_ends():
    # Groups 0 and 1023, the alphabet's first and last words, alone and
    # alternating.
    for count in (1, 21, 83):
        for pattern in ((0,), (1023,), (0, 1023), (1023, 0)):
            groups = words = 0
            for i in range(count):
                group = pattern[i % len(pattern)]
                groups = groups << codec.GROUP_WIDTH | group
                words = words << codec.WORD_WIDTH | codec.ALPHABET[group]
            assert codec.substitute(groups, count) == oracle_substitute(groups, count) == words
            assert codec.desubstitute(words, count) == oracle_desubstitute(words, count) == groups


def test_substitution_keeps_only_the_low_fields_as_the_loops_do():
    # Bits above the count fields are ignored, as the per-word loops
    # ignore them; a negative int is read in two's complement.
    rng = random.Random(720)
    for count in (1, 21, 83):
        groups = rng.getrandbits(codec.GROUP_WIDTH * count)
        words = codec.substitute(groups, count)
        for high in (1, rng.getrandbits(40) | 1):
            above = high << (codec.GROUP_WIDTH * count)
            assert codec.substitute(groups | above, count) == words
            assert codec.desubstitute(words | high << (codec.WORD_WIDTH * count), count) == groups
        assert codec.substitute(-1, count) == oracle_substitute(-1, count)
        assert desubstitute_outcome(codec.desubstitute, -1, count) == \
            desubstitute_outcome(oracle_desubstitute, -1, count)


# ---------------------------------------------------------------------------
# Check bits / polynomial arithmetic
# ---------------------------------------------------------------------------

def test_check_bits_zero_prefix():
    assert codec.compute_check_bits(0) == 0


def test_check_bits_match_long_division_oracle():
    rng = random.Random(3)
    for _ in range(100):
        prefix = [rng.randrange(2) for _ in range(LONG.check_prefix_bits)]
        expected = longdiv_remainder(prefix + [0] * 85, G_BITS)
        assert check_bits(prefix) == expected


def test_encoded_telegram_is_divisible():
    rng = random.Random(4)
    for fmt in (LONG, SHORT):
        prefix = [rng.randrange(2) for _ in range(fmt.check_prefix_bits)]
        telegram = prefix + check_bits(prefix)
        assert codec.poly_mod(bits_to_int(telegram), codec.GEN_POLY) == 0
        assert not any(longdiv_remainder(telegram, G_BITS))


@given(st.integers(min_value=0, max_value=2**200 - 1))
def test_poly_mod_matches_oracle(value):
    expected = bits_to_int(longdiv_remainder(int_to_bits(value, 200), G_BITS))
    assert codec.poly_mod(value, codec.GEN_POLY) == expected


def test_word_reduction_matches_poly_mod_at_every_length():
    # Every length from 0 to 1,200 bits, so the part above the low 85
    # bits fills its top 64-bit word to every depth; 63, 64 and 65 bits
    # long (lengths 148 to 150) among them.
    rng = random.Random(18)
    for length in range(1201):
        for value in (rng.getrandbits(length) | (1 << length) >> 1, (1 << length) - 1):
            assert codec._mod_g(value) == codec.poly_mod(value, codec.GEN_POLY), length


def poly_gcd(a, b):
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def test_gen_poly_structure():
    g = codec.GEN_POLY
    assert g.bit_length() - 1 == 85
    assert g & 1  # constant term, so x does not divide g
    # coprime to x^n + 1 for both block lengths.  This does not make
    # misaligned windows fail the divisibility check: a codeword rotated
    # by k <= 85 bits stays divisible when the k bits carried round are 0,
    # e.g. one ending in 0 read one bit early.  The decoder therefore
    # checks the control bits as part of alignment.
    for n in (LONG.n, SHORT.n):
        assert poly_gcd((1 << n) | 1, g) == 1


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def random_user(rng, fmt):
    return bits_to_int([rng.randrange(2) for _ in range(fmt.user_bits)])


def legacy_codeword(user, sb, fmt):
    """The legacy telegram of user and sb, as an int."""
    return codec.codeword(user, sb, codec.legacy_s_from_sb(sb), fmt)


def legacy_bits(user, sb, fmt):
    """The legacy telegram of user and sb, as a list of bits."""
    return int_to_bits(legacy_codeword(user, sb, fmt), fmt.n)


def test_encode_lengths():
    rng = random.Random(5)
    assert len(codec.encode(random_user(rng, LONG), 0x123, 7, LONG)) == 1023
    assert len(codec.encode(random_user(rng, SHORT), 0x123, 7, SHORT)) == 341


def test_encode_layout():
    rng = random.Random(6)
    user = random_user(rng, LONG)
    telegram = codec.encode(user, 0xABC, 0x1234, LONG)
    base = LONG.shaped_bits
    assert base == 913
    assert tuple(telegram[base : base + 3]) == (0, 0, 1)
    assert bits_to_int(telegram[base + 3 : base + 15]) == 0xABC
    assert telegram[base + 15 : base + 25] == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert len(telegram[base + 25 :]) == 85


def test_encode_rejects_bad_inputs():
    user = bits_to_int([0] * LONG.user_bits)
    for encoder in (codec.encode, codec.codeword):
        with pytest.raises(codec.FormatError):
            encoder([0] * 100, 0, 0, LONG)
        with pytest.raises(codec.FormatError):
            encoder(user, 1 << 12, 0, LONG)
        with pytest.raises(codec.FormatError):
            encoder(user, 0, 1 << 32, LONG)
        # As check_user does for the user data, sb and S must be ints,
        # and a bool is not one.
        for value in (5.0, True, False, "1", None):
            with pytest.raises(codec.FormatError, match="sb must be a 12-bit int"):
                encoder(user, value, 7, LONG)
            with pytest.raises(codec.FormatError, match="S must be a 32-bit int"):
                encoder(user, 5, value, LONG)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_encode_is_the_codeword_as_bits(fmt):
    # The seeds and sb values of the frozen keystream and legacy-S
    # vectors, with the user data at its ends and random.
    rng = random.Random(21)
    users = (0, (1 << fmt.user_bits) - 1, 1 << (fmt.user_bits - 1), random_user(rng, fmt))
    pairs = ((0x000, 0x12345678), (0xABC, 0x00000000),
             (0xFFF, 0xFFFFFFFF), (0x001, 0x5A4A5B5B))
    for user in users:
        for sb, s in pairs:
            word = codec.codeword(user, sb, s, fmt)
            assert type(word) is int and 0 <= word < 1 << fmt.n
            assert codec.encode(user, sb, s, fmt) == int_to_bits(word, fmt.n)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_encode_takes_the_user_data_as_an_int_of_user_bits(fmt):
    # A list, a negative int and an int one bit too wide.
    for user in ([0] * fmt.user_bits, -1, 1 << fmt.user_bits):
        with pytest.raises(codec.FormatError):
            codec.encode(user, 0x123, 7, fmt)
    for user in (0, (1 << fmt.user_bits) - 1):
        assert codec.decode_stream(legacy_bits(user, 0x123, fmt) * 3, fmt).user == user


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def test_decode_aligned_round_trip():
    rng = random.Random(7)
    for fmt in (LONG, SHORT):
        user = random_user(rng, fmt)
        telegram = legacy_bits(user, 0x2F1, fmt)
        result = codec.decode_stream(telegram * 3, fmt)
        assert result.user == user
        assert result.sb == 0x2F1
        assert result.shift == 0
        assert not result.inverted


def test_decode_rotation_transparency_sampled():
    rng = random.Random(8)
    for fmt in (LONG, SHORT):
        user = random_user(rng, fmt)
        telegram = legacy_bits(user, 0x0A5, fmt)
        stream = telegram * 3
        for _ in range(10):
            k = rng.randrange(fmt.n)
            rotated = stream[k:] + stream[:k]
            result = codec.decode_stream(rotated, fmt)
            assert result.user == user
            assert result.sb == 0x0A5


def test_decode_inverted_stream():
    rng = random.Random(9)
    user = random_user(rng, LONG)
    telegram = legacy_bits(user, 0x333, LONG)
    inverted = [1 - b for b in telegram * 3]
    result = codec.decode_stream(inverted, LONG)
    assert result.user == user
    assert result.inverted


def test_decode_detects_single_bit_flip():
    rng = random.Random(10)
    user = random_user(rng, SHORT)
    telegram = legacy_bits(user, 0x1C7, SHORT)
    pos = rng.randrange(SHORT.n)
    corrupted = list(telegram)
    corrupted[pos] ^= 1
    with pytest.raises(codec.NoTelegramFound):
        codec.decode_stream(corrupted * 3, SHORT)


def test_decode_skips_window_that_fails_only_on_control_bits():
    # The 690th telegram drawn ends in 0, so read one bit early it is the
    # codeword divided by x: that window passes divisibility, extra bits
    # and alphabet, and only its control bits (0, 0, 0) show it misaligned.
    rng = random.Random(2024)
    for _ in range(690):
        user = random_user(rng, SHORT)
        sb = rng.randrange(1 << codec.SB_WIDTH)
    assert sb == 1321
    telegram = legacy_bits(user, sb, SHORT)
    assert telegram[-1] == 0
    stream = telegram * 3
    k = SHORT.n - 1
    rotated = stream[k:] + stream[:k]
    for inverted, bits in ((False, rotated), (True, [1 - b for b in rotated])):
        result = codec.decode_stream(bits, SHORT)
        assert result.user == user
        assert result.sb == sb
        assert result.shift == 1
        assert result.inverted == inverted


def test_clean_stream_desubstitutes_only_the_window_it_returns(monkeypatch):
    # The window one bit before the telegram is divisible, as the
    # telegram ends in 0, and reads control bits (?, 0, 0): align rejects
    # it unread and desubstitutes the telegram's window alone.
    rng = random.Random(2024)
    user = random_user(rng, SHORT)
    telegram = next(t for t in (legacy_bits(user, sb, SHORT) for sb in range(4096))
                    if t[-1] == 0)
    k = SHORT.n - 1
    rotated = (telegram * 3)[k:] + (telegram * 3)[:k]
    calls = []
    desubstitute = codec.desubstitute
    monkeypatch.setattr(codec, "desubstitute",
                        lambda *args: calls.append(args) or desubstitute(*args))
    for bits in (rotated, [1 - b for b in rotated]):
        calls.clear()
        assert codec.decode_stream(bits, SHORT).shift == 1
        assert len(calls) == 1


def test_windows_that_fail_on_their_control_bits_are_not_desubstituted(monkeypatch):
    # A codeword with bad control bits that ends in 0, read from one bit
    # before it.  The windows at shifts 1 and n + 1 hold the codeword and
    # fail on their control bits unread; those at shifts 0 and n, read one
    # bit early, pass them and fail on the alphabet.
    rng = random.Random(152)
    calls = []
    desubstitute = codec.desubstitute
    monkeypatch.setattr(codec, "desubstitute",
                        lambda *args: calls.append(args) or desubstitute(*args))
    for fmt in (LONG, SHORT):
        bad = next(b for b in (channel_model.with_control_bits(
            legacy_codeword(random_user(rng, fmt), 0x1F0, fmt), fmt, rng)
            for _ in range(64)) if b & 1 == 0)
        bad = int_to_bits(bad, fmt.n)
        stream = [bad[-1]] + bad * 3
        early = (bits_to_int(stream[: fmt.n]) >> (fmt.n - fmt.shaped_bits),
                 fmt.shaped_bits // codec.WORD_WIDTH)
        with pytest.raises(codec.AlphabetError):
            desubstitute(*early)
        calls.clear()
        got = align_outcome(codec.align, stream, fmt)
        assert calls == [early, early]
        assert got[0] is codec.NoTelegramFound
        assert got == align_outcome(oracle_align, stream, fmt)


def test_decode_rejects_a_telegram_with_wrong_control_bits():
    rng = random.Random(15)
    telegram = legacy_bits(random_user(rng, SHORT), 0x2A5, SHORT)
    base = SHORT.shaped_bits
    bad_cb = telegram[:base] + [1, 1, 0] + telegram[base + 3 : SHORT.check_prefix_bits]
    bad_cb += check_bits(bad_cb)
    with pytest.raises(codec.NoTelegramFound):
        codec.decode_stream(bad_cb * 3, SHORT)
    window = bad_cb + bad_cb[:SHORT.r_init]  # exactly one window
    with pytest.raises(codec.NoTelegramFound):
        codec.align(window, SHORT)


def test_decode_rejects_garbage():
    rng = random.Random(11)
    stream = [rng.randrange(2) for _ in range(3 * SHORT.n)]
    with pytest.raises(codec.NoTelegramFound):
        codec.decode_stream(stream, SHORT)


def test_decode_short_stream():
    with pytest.raises(codec.NoTelegramFound):
        codec.decode_stream([0, 1] * 100, SHORT)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_stream_of_character_codes_is_a_format_error(fmt):
    # The telegram sent as the codes of '0' and '1'.  Before non-bits were
    # rejected it decoded at shift 0 and ended in NoTelegramFound rotated.
    telegram = legacy_bits(random_user(random.Random(19), fmt), 0x1D2, fmt)
    stream = [48 + b for b in telegram] * 3
    for bits in (stream, stream[100:] + stream[:100]):
        with pytest.raises(codec.FormatError, match="is not 0 or 1"):
            codec.align(bits, fmt)
        with pytest.raises(codec.FormatError):
            codec.decode_stream(bits, fmt)


# 2 is an int that is not a bit, -1 and 256 are not bytes, and None, 1.0
# and "1" are not ints.
@pytest.mark.parametrize("element", [2, None, 1.0, "1", -1, 256])
def test_align_converts_elements_that_are_not_bits_to_format_errors(element):
    # A non-bit in the first copy; one past a broken first copy, where the
    # scan goes on; and one in the last copy behind a clean first copy,
    # which aligns at shift 0 before the scan would reach it.
    rng = random.Random(20)
    n, r = SHORT.n, SHORT.r_init
    telegram = legacy_bits(random_user(rng, SHORT), 0x0F0, SHORT)
    stream = telegram * 3
    first = list(stream)
    first[5] = element
    for read in (codec.align, codec.decode_stream):
        with pytest.raises(codec.FormatError, match=r"^stream element 5 is not 0 or 1$"):
            read(first, SHORT)
    later = list(stream)
    later[3] ^= 1  # breaks the copy at shift 0
    later[n + r + 10] = element
    with pytest.raises(codec.FormatError,
                       match=rf"^stream element {n + r + 10} is not 0 or 1$"):
        codec.align(later, SHORT)
    keys = auth.derive_keys(bytes(range(32)), 20)
    low = SHORT.user_bits - auth.ID_BITS
    user = keys.id << low | random_user(rng, SHORT) & ((1 << low) - 1)
    last = auth.encode_authenticated(user, keys, SHORT) * 3
    assert auth.verify_and_decode(last, keys, SHORT) == user
    last[-1] = element
    for read in (codec.align, codec.decode_stream,
                 lambda bits, fmt: auth.verify_and_decode(bits, keys, fmt)):
        with pytest.raises(codec.FormatError,
                           match=rf"^stream element {3 * n - 1} is not 0 or 1$"):
            read(last, SHORT)


# Every element that bits_to_int rejects: ints other than 0 and 1, and
# None, floats and strings, which are not ints.
NON_BITS = st.one_of(st.integers().filter(lambda x: x not in (0, 1)), st.none(),
                     st.floats(), st.text(max_size=2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_non_bit_anywhere_in_a_list_is_a_format_error(data):
    # Telegram copies, rotated, or random bits, cut to any length, with
    # any non-bit at any index: a list shorter than one window has no
    # window to read, and every other list names the non-bit, wherever
    # the telegram is.
    fmt = data.draw(st.sampled_from([LONG, SHORT]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = fmt.n
    if data.draw(st.booleans()):
        k = rng.randrange(n)
        telegram = legacy_bits(random_user(rng, fmt), rng.randrange(1 << 12), fmt)
        stream = (telegram[k:] + telegram[:k]) * 3
    else:
        stream = [rng.randrange(2) for _ in range(3 * n)]
    length = data.draw(st.integers(1, 3 * n))
    index = data.draw(st.integers(0, length - 1))
    stream = stream[:length]
    stream[index] = data.draw(NON_BITS)
    for read in (codec.align, codec.decode_stream):
        if length < n + fmt.r_init:
            with pytest.raises(codec.NoTelegramFound):
                read(stream, fmt)
        else:
            with pytest.raises(codec.FormatError,
                               match=rf"^stream element {index} is not 0 or 1$"):
                read(stream, fmt)


def test_align_single_window_passes_aligned_window():
    rng = random.Random(12)
    for fmt in (LONG, SHORT):
        telegram = legacy_bits(random_user(rng, fmt), 0x70E, fmt)
        window = telegram + telegram[:fmt.r_init]  # exactly one window
        for inverted, bits in ((False, window), (True, [1 - b for b in window])):
            aligned = codec.align(bits, fmt)
            assert (aligned.sb, aligned.shift, aligned.inverted) == \
                (0x70E, 0, inverted)


def test_align_single_window_rejects_random_windows():
    rng = random.Random(13)
    for _ in range(1000):
        window = [rng.randrange(2) for _ in range(LONG.n + LONG.r_init)]
        with pytest.raises(codec.NoTelegramFound):
            codec.align(window, LONG)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**210 - 1),
       st.integers(min_value=0, max_value=2**12 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property_short(user_int, sb, s):
    user = user_int
    telegram = codec.encode(user, sb, s, SHORT)
    aligned = codec.align(telegram * 3, SHORT)
    assert aligned.data ^ codec.keystream(s, SHORT.user_bits) == user
    assert aligned.sb == sb


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**830 - 1),
       st.integers(min_value=0, max_value=2**12 - 1))
def test_round_trip_property_long(user_int, sb):
    user = user_int
    telegram = legacy_bits(user, sb, LONG)
    result = codec.decode_stream(telegram * 3, LONG)
    assert result.user == user
    assert result.sb == sb


def test_decode_result_reports_shift():
    rng = random.Random(14)
    user = random_user(rng, SHORT)
    telegram = legacy_bits(user, 0x051, SHORT)
    stream = telegram * 3
    k = 123
    result = codec.decode_stream(stream[k:] + stream[:k], SHORT)
    assert result.shift == SHORT.n - k


def test_align_then_keystream_decodes_under_any_s_from_sb():
    # A telegram scrambled with any S derived from sb decodes as align
    # followed by the keystream of that S; decode_stream is that with
    # the legacy rule.
    rng = random.Random(16)

    def s_from_sb(sb):
        return (sb * 0x9E3779B1) & 0xFFFFFFFF

    for i in range(40):
        fmt = (LONG, SHORT)[i % 2]
        user = random_user(rng, fmt)
        sb = rng.randrange(1 << codec.SB_WIDTH)
        k = rng.randrange(fmt.n)
        for derive in (s_from_sb, codec.legacy_s_from_sb):
            stream = codec.encode(user, sb, derive(sb), fmt) * 3
            stream = stream[k:] + stream[:k]
            if i % 4 >= 2:
                stream = [1 - b for b in stream]
            aligned = codec.align(stream, fmt)
            assert aligned.data ^ codec.keystream(derive(aligned.sb), fmt.user_bits) == user
            assert aligned.sb == sb
            assert aligned.inverted == (i % 4 >= 2)
        result = codec.decode_stream(stream, fmt)
        assert result == (user, aligned.sb, aligned.shift, aligned.inverted)


def test_align_raises_as_decode_does():
    rng = random.Random(17)
    with pytest.raises(codec.NoTelegramFound):
        codec.align([rng.randrange(2) for _ in range(3 * SHORT.n)], SHORT)
    with pytest.raises(codec.NoTelegramFound):
        codec.align([0, 1] * 100, SHORT)
    telegram = legacy_bits(random_user(rng, SHORT), 0x2A5, SHORT)
    base = SHORT.shaped_bits
    bad_cb = telegram[:base] + [1, 1, 0] + telegram[base + 3 : SHORT.check_prefix_bits]
    bad_cb += check_bits(bad_cb)
    with pytest.raises(codec.NoTelegramFound):
        codec.align(bad_cb * 3, SHORT)


def test_formats_registry():
    assert codec.FORMATS["long"] is LONG
    assert codec.FORMATS["short"] is SHORT
    for fmt in (LONG, SHORT):
        assert fmt.shaped_bits + 3 + 12 + 10 + 85 == fmt.n
        assert fmt.shaped_bits * 10 == fmt.user_bits * 11


# ---------------------------------------------------------------------------
# Stride-6 scan against the per-bit scan
# ---------------------------------------------------------------------------

def oracle_telegram_at(bits, j, rem, fmt):
    """codec._telegram_at of the per-bit scan, on a bit list, verbatim."""
    n, r = fmt.n, fmt.r_init
    if rem not in (0, codec._ONES[n]) or bits[j + n : j + n + r] != bits[j : j + r]:
        return None
    inverted = rem != 0
    window = bits_to_int(bits[j : j + n]) ^ ((1 << n) - 1) * inverted
    tail = n - fmt.shaped_bits
    cb = (window >> (tail - codec.CB_WIDTH)) & ((1 << codec.CB_WIDTH) - 1)
    if cb != codec._CB:
        return None
    try:
        data = codec.desubstitute(window >> tail, fmt.shaped_bits // codec.WORD_WIDTH)
    except codec.AlphabetError:
        return None
    sb = (window >> (tail - codec.CB_WIDTH - codec.SB_WIDTH)) & ((1 << codec.SB_WIDTH) - 1)
    return data, sb, inverted


def oracle_align(stream, fmt):
    """codec.align as the per-bit scan, verbatim: one shift per step."""
    n = fmt.n
    windows = len(stream) - n - fmt.r_init + 1
    if windows < 1:
        raise codec.NoTelegramFound(f"stream of {len(stream)} bits is shorter than one window")
    rot, ones = codec._ROT[n], codec._ONES[n]
    rem = codec.poly_mod(bits_to_int(stream[:n]), codec.GEN_POLY)
    for j in range(windows):
        if rem == 0 or rem == ones:  # as _telegram_at does; spares a call
            hit = oracle_telegram_at(stream, j, rem, fmt)
            if hit is not None:
                data, sb, inverted = hit
                return codec.Aligned(data, sb, j, inverted)
        # rem' = ((rem + b_out * x^{n-1}) * x + b_in) mod g, rot = x^{n-1} mod g
        if stream[j]:
            rem ^= rot
        rem = (rem << 1) | stream[j + n]
        if rem >> codec.CHECK_WIDTH:
            rem ^= codec.GEN_POLY
    raise codec.NoTelegramFound(f"no aligned window in {windows} windows")


def stream_bits(stream):
    """A codec.Stream as the list of its bits."""
    return int_to_bits(stream.value, stream.length)


def align_outcome(align, stream, fmt):
    try:
        return align(stream, fmt)
    except codec.CodecError as exc:
        return type(exc), str(exc)


def test_align_matches_per_bit_scan_under_channel_model_v2():
    outcomes = {}
    for fmt, impairment, inverted, rng in channel_model.corpus(seed=611, per_case=30):
        telegram = legacy_codeword(random_user(rng, fmt),
                                   rng.randrange(1 << codec.SB_WIDTH), fmt)
        stream = stream_bits(
            channel_model.receive(telegram, fmt, impairment, inverted, rng))
        got = align_outcome(codec.align, stream, fmt)
        assert got == align_outcome(oracle_align, stream, fmt), (fmt.name, impairment)
        kind = "ok" if isinstance(got, codec.Aligned) else got[0].__name__
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # The corpus reaches every outcome of the scan.
    assert set(outcomes) == {"ok", "NoTelegramFound"}


def test_align_matches_per_bit_scan_on_stream_lengths_around_a_stride():
    # Every window count from 1 to 25 on a rotated telegram and on a
    # codeword with bad control bits: the per-bit tail takes each length.
    rng = random.Random(612)
    for fmt in (LONG, SHORT):
        telegram = legacy_codeword(random_user(rng, fmt), 0x3C3, fmt)
        bad = channel_model.with_control_bits(telegram, fmt, rng)
        for bits in (int_to_bits(telegram, fmt.n), int_to_bits(bad, fmt.n)):
            for k in (0, 1, 5, 6, 7, fmt.n - 13, fmt.n - 1):
                rotated = (bits[k:] + bits[:k]) * 3
                for windows in range(1, 26):
                    stream = rotated[: fmt.n + fmt.r_init - 1 + windows]
                    for s in (stream, [1 - b for b in stream]):
                        assert align_outcome(codec.align, s, fmt) == \
                            align_outcome(oracle_align, s, fmt)


def assert_aligns_as_per_bit_scan(stream, fmt):
    """align and oracle_align agree on stream and on its inverse; returns
    the outcome on stream."""
    got = align_outcome(codec.align, stream, fmt)
    assert got == align_outcome(oracle_align, stream, fmt)
    inverse = [1 - b for b in stream]
    assert align_outcome(codec.align, inverse, fmt) == align_outcome(oracle_align, inverse, fmt)
    return got


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_align_matches_per_bit_scan_around_shift_n(fmt):
    # Hits at shifts n - 8 .. n + 8, around the last shift at which a
    # repeated telegram with a clean first copy aligns; a hit past n needs
    # a broken first copy.  Stream lengths around 2n + r + 5 end the
    # stream within a stride of these windows' ends, so the last stride
    # is short or whole.  A telegram that ends in six 0s keeps the six
    # windows before the hit divisible, so the scan tests them one by one.
    n, r = fmt.n, fmt.r_init
    rng = random.Random(614)
    user = random_user(rng, fmt)
    zero_tail = next(t for t in (legacy_bits(user, sb, fmt) for sb in range(4096))
                     if not any(t[-6:]))
    lengths = [2 * n + r + 5 + d for d in (-6, -1, 0, 1, 6)] + [3 * n]
    for telegram in (legacy_bits(user, 0x5A6, fmt), zero_tail):
        for shift in range(n - 8, n + 9):
            k = (n - shift) % n
            rotated = (telegram[k:] + telegram[:k]) * 3
            if shift >= n:
                rotated[shift - n] ^= 1  # breaks the copy at shift - n only
            for length in lengths:
                got = assert_aligns_as_per_bit_scan(rotated[:length], fmt)
                if length >= shift + n + r:
                    assert got.shift == shift


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_align_matches_per_bit_scan_past_windows_with_wrong_control_bits(fmt):
    # A codeword with bad control bits, then a clean telegram: the scan
    # goes on past the windows that fail on their control bits to the
    # telegram.
    n, r = fmt.n, fmt.r_init
    rng = random.Random(615)
    telegram = legacy_codeword(random_user(rng, fmt), 0x2B4, fmt)
    bad = int_to_bits(channel_model.with_control_bits(telegram, fmt, rng), fmt.n)
    telegram = int_to_bits(telegram, fmt.n)
    for k in (0, 1, 6, 7, n // 2, n - 7, n - 1):
        head = (bad[k:] + bad[:k]) * 3
        head = head[: (n - k) % n + n + r]  # ends just after a whole bad window
        for gap in (0, 5, 6, 13):
            stream = head + [rng.randrange(2) for _ in range(gap)] + telegram * 2
            got = assert_aligns_as_per_bit_scan(stream, fmt)
            assert got.sb == 0x2B4 and got.shift == len(head) + gap
            tail = stream[: len(head) + gap + n]  # no whole clean window
            assert assert_aligns_as_per_bit_scan(tail, fmt)[0] is codec.NoTelegramFound


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_align_matches_per_bit_scan_on_long_corrupted_streams(fmt):
    # Four rotated copies with a bit flipped in every aligned window, or in
    # every one but the last: the scan runs past shift n + 5, to the last
    # copy's window or to the end of the stream.
    n, r = fmt.n, fmt.r_init
    rng = random.Random(616)
    for trial in range(8):
        telegram = legacy_bits(random_user(rng, fmt), rng.randrange(1 << 12), fmt)
        k = rng.randrange(n)
        stream = (telegram[k:] + telegram[:k]) * 4
        starts = range((n - k) % n, len(stream) - n - r + 1, n)
        for start in starts[: len(starts) - trial % 2]:
            stream[start + rng.randrange(n)] ^= 1
        got = assert_aligns_as_per_bit_scan(stream, fmt)
        if trial % 2:
            assert got.shift == starts[-1] > n + 5
        else:
            assert got[0] is codec.NoTelegramFound


def test_align_converts_a_list_in_one_call_on_the_whole_list(monkeypatch):
    converted = []

    def counting_bits_to_int(bits):
        converted.append(list(bits))
        return bits_to_int(bits)

    monkeypatch.setattr(codec, "bits_to_int", counting_bits_to_int)
    rng = random.Random(617)
    for fmt in (LONG, SHORT):
        n = fmt.n
        stream = legacy_bits(random_user(rng, fmt), 0x1A2, fmt) * 3
        garbage = [rng.randrange(2) for _ in range(3 * n)]
        for k, bits in ((0, stream), (1, stream), (n - 6, stream), (n - 1, stream),
                        (0, garbage)):
            rotated = bits[k:] + bits[:k]
            converted.clear()
            got = align_outcome(codec.align, rotated, fmt)
            assert converted == [rotated], (fmt.name, k)
            if bits is stream:
                assert got.shift == (n - k) % n
            else:
                assert got[0] is codec.NoTelegramFound


def hit_within_stride(rem, n):
    """Whether some outgoing and incoming bits take rem to 0 or
    (2^n - 1) mod g within 5 per-bit shifts, by trying them all."""
    ones = codec._ONES[n]
    level = {rem}
    for shift in range(6):
        if 0 in level or ones in level:
            return True
        if shift == 5:
            return False
        nxt = set()
        for value in level:
            for out_bit in (0, 1):
                rolled = (value ^ codec._ROT[n] * out_bit) << 1
                if rolled >> codec.CHECK_WIDTH:
                    rolled ^= codec.GEN_POLY
                nxt.update((rolled, rolled ^ 1))
        level = nxt


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_candidate_set_holds_exactly_the_remainders_that_can_hit(fmt):
    n = fmt.n
    cand = codec._CAND[n]
    assert len(cand) == 2048
    rng = random.Random(613)
    # The windows 0 to 5 shifts before a telegram, in both polarities.
    stream = legacy_bits(random_user(rng, fmt), 0x1E1, fmt) * 2
    before = [codec._mod_g(bits_to_int(bits[j : j + n]))
              for bits in (stream, [1 - b for b in stream])
              for j in range(n - 5, n + 1)]
    members = rng.sample(sorted(cand), 60)
    near = [m ^ (1 << rng.randrange(codec.CHECK_WIDTH)) for m in members]
    randoms = [rng.getrandbits(codec.CHECK_WIDTH) for _ in range(60)]
    assert all(hit_within_stride(rem, n) for rem in before)
    for rem in before + members + near + randoms:
        assert hit_within_stride(rem, n) == (rem in cand)


# ---------------------------------------------------------------------------
# A stream as a list and as a Stream
# ---------------------------------------------------------------------------

def test_align_reads_a_stream_int_as_it_reads_the_list(monkeypatch):
    # Every stream of channel model v2 that the channel table reads, both
    # formats and every impairment, rotated and half of them inverted, as
    # a list and as a Stream: the same Aligned, or the same exception and
    # message.
    outcomes = set()
    for fmt, impairment, inverted, rng in channel_model.corpus(
            seed=2027, per_case=channel_model.PER_CASE):
        telegram = legacy_codeword(random_user(rng, fmt),
                                   rng.randrange(1 << codec.SB_WIDTH), fmt)
        received = channel_model.receive(telegram, fmt, impairment, inverted, rng)
        bits = stream_bits(received)
        got = align_outcome(codec.align, bits, fmt)
        value = received.value
        with monkeypatch.context() as patch:
            # A Stream is read without a list conversion, and the bits of
            # its value above its length do not count.
            patch.setattr(codec, "bits_to_int", None)
            for extra in (0, 0b101):
                stream = codec.Stream(value | extra << len(bits), len(bits))
                assert align_outcome(codec.align, stream, fmt) == got, \
                    (fmt.name, impairment)
        outcomes.add("ok" if isinstance(got, codec.Aligned) else got[0].__name__)
    assert outcomes == {"ok", "NoTelegramFound"}


def test_decode_stream_takes_three_copies_of_a_codeword_as_one_int():
    rng = random.Random(22)
    for fmt in (LONG, SHORT):
        n = fmt.n
        user = random_user(rng, fmt)
        word = codec.codeword(user, 0x4D2, codec.legacy_s_from_sb(0x4D2), fmt)
        stream = codec.Stream(word << 2 * n | word << n | word, 3 * n)
        assert stream.value == bits_to_int(int_to_bits(word, n) * 3)
        result = codec.decode_stream(stream, fmt)
        assert result == codec.decode_stream(int_to_bits(word, n) * 3, fmt)
        assert (result.user, result.sb, result.shift) == (user, 0x4D2, 0)
