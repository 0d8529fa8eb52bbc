"""Bit-exact telegram codec for balise spot transmission.

Telegram layout (left to right, positions b_{n-1} .. b_0):

    shaped_data | cb (3) | sb (12) | esb (10) | check (85)

with n = 1023 (long, 913 shaped / 830 user bits) or n = 341 (short,
231 shaped / 210 user bits).  Encoding scrambles the user bits with an
additive LFSR keystream seeded by S, substitutes 10-bit groups with
11-bit alphabet words, and appends the 85-bit polynomial remainder of
the prefix as check bits.  Decoding is two steps.  align finds the
first window of a repeated stream that holds a telegram and returns
its desubstituted, still scrambled user data with sb; it needs no key.
descramble_legacy then descrambles a legacy telegram with the S of
legacy_s_from_sb (decode_stream does both), and auth.verify_and_decode
an authenticated one with the S of its key, so a reader aligns once.

The standard owns two constants that are not public, and this module
fixes documented surrogates for them: ALPHABET, the 11-bit substitution
alphabet (the 1024 numerically smallest 11-bit words with 4..7 ones,
ascending), and GEN_POLY, the degree-85 generator polynomial (an
arbitrary fixed polynomial with constant term 1, coprime to x^1023 + 1
and x^341 + 1).  Neither is a parameter: conformance with real
telegrams means replacing ALPHABET and GEN_POLY here.

Inside the codec a bit string is an int, first bit most significant.
The user data is one too: codeword and encode take it as an int of
fmt.user_bits bits (check_user rejects anything else with FormatError)
and descramble_legacy returns it.  The telegram is an int of fmt.n
bits, as codeword returns it; encode is its list view, a list of 0/1.
align and decode_stream take a received stream as a list of 0/1, in
which an element that is not 0 or 1 is a FormatError, or as a Stream,
an int with its bit count, as the simulator's reader builds it from
three copies of a codeword; align reads either as one int before it
scans.  The steps they call, keystream, substitute, desubstitute and
compute_check_bits, take and return ints, as poly_mod does.

substitute and desubstitute map all of a telegram's 83 (or 21) groups
or words in C: the int's binary text is cut into fields by one struct
format, each field is looked up in a dict from the field's text to its
image's text, and the joined text is read back as an int.  A word
outside the alphabet fails the lookup, so desubstitute rejects a
window at its first invalid word.

The keystream is linear in the seed over GF(2): four 256-entry tables,
one per seed byte, hold blocks of keystream, and a seed's block is the
XOR of four of them.  The last 32 bits of a block are the register
state that seeds the next block.  Check bits and the decoder's first
remainder are the table reduction of Sarwate ("Computation of Cyclic
Redundancy Checks via Table Look-Up", CACM 31(8), 1988) widened to
eight 256-entry tables, one per byte of a 64-bit word ("slicing-by-8",
Kounavis and Berry, ISCC 2005), and align rolls a window's remainder
along the stream by table too.
"""

from __future__ import annotations

import binascii
import functools
import struct
from typing import NamedTuple

from .bits import bits_to_int, int_to_bits


class CodecError(Exception):
    """Base class for codec failures."""


class FormatError(CodecError, ValueError):
    """Input violates a field-width or value-range constraint."""


class NoTelegramFound(CodecError):
    """The stream was exhausted without any window passing all checks."""


class AlphabetError(CodecError):
    """An 11-bit word outside the substitution alphabet was encountered."""


# ---------------------------------------------------------------------------
# Formats and field constants
# ---------------------------------------------------------------------------

class TelegramFormat(NamedTuple):
    name: str
    n: int           # total telegram length in bits
    shaped_bits: int # scrambled + substituted user region
    user_bits: int   # raw user payload
    r_init: int      # extra-bit window width for decoding


LONG = TelegramFormat("long", 1023, 913, 830, 77)
SHORT = TelegramFormat("short", 341, 231, 210, 121)
FORMATS: dict[str, TelegramFormat] = {f.name: f for f in (LONG, SHORT)}

CB_WIDTH = 3
SB_WIDTH = 12
ESB_WIDTH = 10
CHECK_WIDTH = 85

# (b109, b108, b107): inversion bit 0, then the fixed 0, 1 pattern.
CB_BITS = (0, 0, 1)
# Fixed surrogate for the extra shaping bits; carries no information here.
ESB_BITS = (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)

# Degree-85 generator polynomial, constant term 1 (see module docstring).
GEN_POLY = 0x238F4D950C4193589DFF83

WORD_WIDTH = 11
GROUP_WIDTH = 10


# ---------------------------------------------------------------------------
# Substitution alphabet
# ---------------------------------------------------------------------------

# Word i encodes the 10-bit group i (see module docstring).
ALPHABET: tuple[int, ...] = tuple(
    w for w in range(1 << WORD_WIDTH) if 4 <= bin(w).count("1") <= 7
)[: 1 << GROUP_WIDTH]


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(2), bit i of an int = coefficient of x^i
# ---------------------------------------------------------------------------

def poly_mod(value: int, g: int) -> int:
    """Remainder of value modulo g over GF(2)."""
    gd = g.bit_length() - 1
    vd = value.bit_length() - 1
    while vd >= gd:
        value ^= g << (vd - gd)
        vd = value.bit_length() - 1
    return value


_CHECK_MASK = (1 << CHECK_WIDTH) - 1
_WORD = 64
_CARRY_MASK = (1 << (CHECK_WIDTH - _WORD)) - 1


def _remainder_tables() -> tuple[list[int], ...]:
    """T_k[t] = (t * x^(85 + 8k)) mod g for every byte t, k = 0 .. 7."""
    tables = [[poly_mod(t << CHECK_WIDTH, GEN_POLY) for t in range(256)]]
    t0 = tables[0]
    for _ in range(_WORD // 8 - 1):
        # One byte step multiplies an entry by x^8.
        tables.append([((v << 8) & _CHECK_MASK) ^ t0[v >> (CHECK_WIDTH - 8)]
                       for v in tables[-1]])
    return tuple(tables)


_REM_TABLES = _remainder_tables()


def _mod_g(value: int) -> int:
    """value mod GEN_POLY, a 64-bit word at a time above the low 85 bits.

    The part above the low 85 bits is cut into big-endian words in C,
    the top word padded with leading zeros.  With rem the remainder so
    far times x^85, a word d gives rem * x^64 + d * x^85: the 21 low bits
    of rem move up by 64, and the 64-bit h = (rem >> 21) ^ d is folded
    back as h * x^85 mod g, one table T_k per byte of h.
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = _REM_TABLES
    high = value >> CHECK_WIDTH
    count = (high.bit_length() + _WORD - 1) // _WORD
    rem = 0
    for d in struct.unpack(f">{count}Q", high.to_bytes(count * 8, "big")):
        h7, h6, h5, h4, h3, h2, h1, h0 = ((rem >> (CHECK_WIDTH - _WORD)) ^ d).to_bytes(8, "big")
        rem = (((rem & _CARRY_MASK) << _WORD) ^ t7[h7] ^ t6[h6] ^ t5[h5] ^ t4[h4]
               ^ t3[h3] ^ t2[h2] ^ t1[h1] ^ t0[h0])
    return rem ^ (value & _CHECK_MASK)


# Per block length n: x^(n-1) mod g rolls a window's remainder on by one
# bit, and (2^n - 1) mod g is what inverting the window adds to it.
_ROT = {f.n: poly_mod(1 << (f.n - 1), GEN_POLY) for f in FORMATS.values()}
_ONES = {f.n: poly_mod((1 << f.n) - 1, GEN_POLY) for f in FORMATS.values()}


def compute_check_bits(prefix: int) -> int:
    """85 check bits: remainder of prefix * x^85 modulo g."""
    return _mod_g(prefix << CHECK_WIDTH)


# ---------------------------------------------------------------------------
# Scrambling
# ---------------------------------------------------------------------------

_LFSR_MASK = 0xFFFFFFFF
# A table entry is one block of keystream: _KS_STEP bits, then the 32
# bits that are the register state after them.
_KS_STEP = LONG.user_bits


def _keystream_tables() -> list[list[int]]:
    """Per seed byte, the block of keystream of each value of that byte."""
    # The keystream of seed 1, 31 bits longer than a block; the taps give
    # bit k = bit k-32 ^ bit k-22 ^ bit k-2 ^ bit k-1.  Dropping the first
    # bit of the keystream of seed 1 << j gives that of the next state,
    # (1 << (j + 1)) ^ fb, so the keystream of seed 1 << (j + 1) is the
    # shortened stream XOR fb times the keystream of seed 1.  Each step
    # spoils one more low bit, and >> 31 drops the spoiled bits.
    length = _KS_STEP + 32 + 31
    bits = [0] * 31 + [1]
    for k in range(32, length):
        bits.append(bits[k - 32] ^ bits[k - 22] ^ bits[k - 2] ^ bits[k - 1])
    first = stream = bits_to_int(bits)
    tables = [[0] for _ in range(4)]
    for j in range(32):
        block = stream >> 31
        tables[j // 8] += [t ^ block for t in tables[j // 8]]
        fb = (stream >> (length - 33)) & 1
        stream = ((stream << 1) & ((1 << length) - 1)) ^ (first * fb)
    return tables


_KS0, _KS1, _KS2, _KS3 = _keystream_tables()


def keystream(seed: int, nbits: int) -> int:
    """Additive keystream from a 32-bit Fibonacci LFSR, taps 32, 22, 2, 1.

    Returns the first nbits, the first bit most significant.  Output
    bit = register MSB; feedback enters at the LSB.  A zero seed is
    replaced by 1 so the register never locks up.  The register shifts
    out MSB-first, so the first 32 bits are the register itself,
    (seed & 0xFFFFFFFF) or 1.
    """
    state = (seed & _LFSR_MASK) or 1
    out = have = 0
    while have < nbits:
        block = (_KS0[state & 0xFF] ^ _KS1[(state >> 8) & 0xFF]
                 ^ _KS2[(state >> 16) & 0xFF] ^ _KS3[state >> 24])
        out = (out << _KS_STEP) | (block >> 32)
        state = block & _LFSR_MASK
        have += _KS_STEP
    return out >> (have - nbits)


def legacy_s_from_sb(sb: int) -> int:
    """Public, non-cryptographic S derivation used by legacy telegrams."""
    s = ((sb << 20) ^ (sb << 8) ^ sb) ^ 0x5A5A5A5A
    return s if s else 1


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

# The alphabet as binary text: group text to word text and back.
_WORD_TEXT = {format(g, f"0{GROUP_WIDTH}b").encode(): format(w, f"0{WORD_WIDTH}b").encode()
              for g, w in enumerate(ALPHABET)}
_GROUP_TEXT = dict(zip(_WORD_TEXT.values(), _WORD_TEXT))


@functools.lru_cache(maxsize=16)
def _fields(width: int, count: int):
    """Unpacks count width-digit fields from a binary text led by one pad."""
    return struct.Struct("x" + f"{width}s" * count).unpack


def _map_fields(value: int, width: int, count: int, table: dict[bytes, bytes]) -> int:
    """The count width-bit fields of value's low bits, each mapped through
    table as binary text, joined into an int.  Raises KeyError with the
    text of the first field that table lacks."""
    top = 1 << (width * count)
    # The leading 1 fixes the digit count, and the struct format skips it.
    text = format(value & (top - 1) | top, "b").encode()
    return int(b"".join(map(table.__getitem__, _fields(width, count)(text))) or b"0", 2)


def substitute(groups: int, count: int) -> int:
    """The count 10-bit groups of an int, each replaced by its 11-bit word."""
    return _map_fields(groups, GROUP_WIDTH, count, _WORD_TEXT)


def desubstitute(words: int, count: int) -> int:
    """Inverse of substitute; raises AlphabetError on the first invalid word."""
    try:
        return _map_fields(words, WORD_WIDTH, count, _GROUP_TEXT)
    except KeyError as exc:
        word = int(exc.args[0], 2)
        raise AlphabetError(f"word {word:#05x} is not in the alphabet") from None


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

_CB = bits_to_int(CB_BITS)
_ESB = bits_to_int(ESB_BITS)


def check_user(user: int, fmt: TelegramFormat) -> None:
    """Raise FormatError unless user is fmt.user_bits bits of user data as
    an int, first bit most significant."""
    if type(user) is not int:
        raise FormatError(f"user data must be an int, not {type(user).__name__}")
    if user < 0 or user >> fmt.user_bits:
        raise FormatError(f"{fmt.name} format takes user data as a non-negative "
                          f"int of at most {fmt.user_bits} bits")


def codeword(user: int, sb: int, s: int,
             fmt: TelegramFormat = LONG) -> int:
    """The n-bit telegram of the user data, sb and S, as an int."""
    check_user(user, fmt)
    if type(sb) is not int or not 0 <= sb < (1 << SB_WIDTH):
        raise FormatError("sb must be a 12-bit int")
    if type(s) is not int or not 0 <= s < (1 << 32):
        raise FormatError("S must be a 32-bit int")
    data = user ^ keystream(s, fmt.user_bits)
    prefix = substitute(data, fmt.user_bits // GROUP_WIDTH)
    prefix = (((prefix << CB_WIDTH | _CB) << SB_WIDTH | sb) << ESB_WIDTH) | _ESB
    return prefix << CHECK_WIDTH | compute_check_bits(prefix)


def encode(user: int, sb: int, s: int,
           fmt: TelegramFormat = LONG) -> list[int]:
    """The codeword as a list of fmt.n bits."""
    return int_to_bits(codeword(user, sb, s, fmt), fmt.n)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

class DecodeResult(NamedTuple):
    user: int        # descrambled user data, first bit MSB
    sb: int
    shift: int       # window offset at which alignment was found
    inverted: bool   # stream polarity was inverted


class Aligned(NamedTuple):
    data: int        # desubstituted, still scrambled user bits, first bit MSB
    sb: int
    shift: int       # window offset at which alignment was found
    inverted: bool   # stream polarity was inverted


class Stream(NamedTuple):
    """A received bit stream as one int, first bit most significant."""
    value: int
    length: int      # bits in the stream; value's bits above them are ignored


def _telegram_at(value: int, width: int, j: int, inverted: bool,
                 fmt: TelegramFormat) -> tuple[int, int, bool] | None:
    """The telegram in the window at shift j as (data, sb, inverted), or None.

    value holds the stream's width bits, first bit most significant, and
    the window is bits j .. j + n + r - 1 of it.  data is the
    desubstituted, still scrambled user data.  The caller has found the
    window's leading n bits divisible by g, read inverted when inverted is
    True.  The window holds a telegram when, in addition, the r =
    fmt.r_init extra bits repeat the first r bits, the control bits equal
    CB_BITS, and every shaped word is in the alphabet.  The
    control bits are checked first, so a window that fails on them is
    not desubstituted (see align).
    """
    n, r = fmt.n, fmt.r_init
    window = (value >> (width - j - n - r)) & ((1 << (n + r)) - 1)
    extra = window & ((1 << r) - 1)
    window >>= r
    if extra != window >> (n - r):
        return None
    window ^= ((1 << n) - 1) * inverted
    tail = n - fmt.shaped_bits
    cb = (window >> (tail - CB_WIDTH)) & ((1 << CB_WIDTH) - 1)
    if cb != _CB:
        return None
    try:
        data = desubstitute(window >> tail, fmt.shaped_bits // WORD_WIDTH)
    except AlphabetError:
        return None
    sb = (window >> (tail - CB_WIDTH - SB_WIDTH)) & ((1 << SB_WIDTH) - 1)
    return data, sb, inverted


# The scan strides six bits, one base64 character of the stream.
_STRIDE = 6
_SEXTET = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(64)),
)


def _sextets(value: int, count: int) -> bytes:
    """The 6 * count bits of value as count 6-bit chunks, first chunk first."""
    pad = -count % 4 * _STRIDE  # base64 takes 24 bits at a time
    raw = (value << pad).to_bytes((count * _STRIDE + pad) // 8, "big")
    return binascii.b2a_base64(raw, newline=False)[:count].translate(_SEXTET)


def _out_table(n: int) -> list[int]:
    """(o * x^n) mod g for every 6-bit o: what o adds to a remainder as it
    leaves the window over six shifts."""
    table, term = [0], _ROT[n]
    for _ in range(_STRIDE):
        term <<= 1
        if term >> CHECK_WIDTH:
            term ^= GEN_POLY
        table += [t ^ term for t in table]
    return table


def _candidates(n: int) -> frozenset[int]:
    """The remainders from which, for some stream bits, one of the next
    six windows is divisible in either polarity.

    A shift with outgoing bit o and incoming bit b maps rem to
    rem * x + o * x^n + b mod g, so 0 stays 0 when o = b = 0 and
    (2^n - 1) mod g stays so when o = b = 1.  The set is thus the
    remainders that five shifts can take to one of the two: x^-5 times
    each of them, plus any sum of x^(n-1) .. x^(n-5) and x^-1 .. x^-5.
    As x^-1 * (2^n - 1) is (2^n - 1) + x^(n-1) + x^-1, that is 0 and
    (2^n - 1) mod g plus the 2^10 sums.  x is invertible mod g because g
    has constant term 1.
    """
    sums = [0]
    for term in (_ROT[n], GEN_POLY >> 1):  # x^(n-1) and x^-1 mod g
        for _ in range(_STRIDE - 1):
            sums += [t ^ term for t in sums]
            term = (term ^ GEN_POLY) >> 1 if term & 1 else term >> 1
    return frozenset(sums + [t ^ _ONES[n] for t in sums])


_OUT = {n: _out_table(n) for n in _ROT}
_CAND = {n: _candidates(n) for n in _ROT}


def align(stream: list[int] | Stream, fmt: TelegramFormat = LONG) -> Aligned:
    """Find the first telegram in a bit stream, without descrambling it.

    The first window that holds a telegram in either polarity (see
    _telegram_at) is returned with its shift.  One remainder modulo g,
    that of the window's leading n bits, is rolled along the stream for
    both polarities.  While it is not in _CAND[n], none of the next six
    windows can be divisible, whatever the stream holds, and it advances
    in a six-bit stride: rem' = (rem * x^6 + o * x^n + b) mod g, with
    o the six bits that leave the window and b the six that enter.  From
    a remainder in _CAND[n] it rolls one bit per shift and tests each
    window.  So windows are tested at the same shifts, in the same
    order, as a per-bit scan.  A stride may end past the last window;
    the bits it takes are still in the stream, as r > 5.  When no window
    holds a telegram, raises NoTelegramFound.

    Coprimality of g with x^n + 1 does not keep misaligned windows from
    being divisible: a codeword rotated by k <= 85 bits is divisible
    exactly when the k bits carried round are all 0.  So a false
    candidate is typically a codeword read one bit early, which stays
    divisible when its last bit is 0 and reads control bits (?, 0, 0);
    as _telegram_at rejects it on those, a clean stream desubstitutes
    only the window it returns.

    The stream is a list of 0/1 or a Stream, and it is read as one int
    before the scan: a Stream's value masked to its length, or a list
    converted in one call, in which an element that is not 0 or 1 raises
    FormatError.
    """
    n, r = fmt.n, fmt.r_init
    length = stream.length if isinstance(stream, Stream) else len(stream)
    windows = length - n - r + 1
    if windows < 1:
        raise NoTelegramFound(f"stream of {length} bits is shorter than one window")
    if isinstance(stream, Stream):
        value = stream.value & ((1 << length) - 1)
    else:
        try:
            value = bits_to_int(stream)
        except ValueError as exc:
            raise FormatError(f"stream {exc}") from None
    rot, ones = _ROT[n], _ONES[n]
    out_n, cand, fold = _OUT[n], _CAND[n], _REM_TABLES[0]
    rem = _mod_g(value >> (length - n))
    # outs[k] and ins[k] are the chunks that leave and enter the window in
    # the stride from shift 6k, for every stride.
    strides = -(-windows // _STRIDE)
    cut = (1 << (_STRIDE * strides)) - 1
    outs = _sextets((value >> (length - _STRIDE * strides)) & cut, strides)
    ins = _sextets((value >> (length - n - _STRIDE * strides)) & cut, strides)
    j = 0
    while j < windows:
        if rem not in cand:
            # j is a multiple of 6: chunk j // 6 leaves, n + j enters.
            k = j // _STRIDE
            for o, b in zip(outs[k:], ins[k:]):
                # fold[h] for h < 64 is h * x^85 mod g: it folds back the
                # six bits that rem * x^6 pushes out of the low 85.
                rem = (((rem << _STRIDE) & _CHECK_MASK)
                       ^ fold[rem >> (CHECK_WIDTH - _STRIDE)] ^ out_n[o] ^ b)
                j += _STRIDE
                if rem in cand:
                    break
            continue
        # The six bits that leave the window from shift j on, and the six
        # that enter it: j is a multiple of 6 here, as a stride left it.
        o, b = outs[j // _STRIDE], ins[j // _STRIDE]
        k = _STRIDE
        for j in range(j, min(j + _STRIDE, windows)):
            # The leading n bits are divisible by g, as they are or inverted.
            if rem == 0 or rem == ones:
                hit = _telegram_at(value, length, j, rem != 0, fmt)
                if hit is not None:
                    data, sb, inverted = hit
                    return Aligned(data, sb, j, inverted)
            # rem' = ((rem + b_out * x^{n-1}) * x + b_in) mod g, rot = x^{n-1} mod g
            k -= 1
            if (o >> k) & 1:
                rem ^= rot
            rem = (rem << 1) | ((b >> k) & 1)
            if rem >> CHECK_WIDTH:
                rem ^= GEN_POLY
        j += 1
    raise NoTelegramFound(f"no aligned window in {windows} windows")


def descramble_legacy(aligned: Aligned, fmt: TelegramFormat = LONG) -> int:
    """The user data of an aligned legacy telegram, as an int."""
    return aligned.data ^ keystream(legacy_s_from_sb(aligned.sb), fmt.user_bits)


def decode_stream(stream: list[int] | Stream,
                  fmt: TelegramFormat = LONG) -> DecodeResult:
    """Find and decode one legacy telegram in a bit stream.

    align, then descramble_legacy.  Raises what align raises.
    """
    aligned = align(stream, fmt)
    return DecodeResult(descramble_legacy(aligned, fmt), aligned.sb,
                        aligned.shift, aligned.inverted)
