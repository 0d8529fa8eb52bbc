"""Bit-vector helpers shared by the codec and the authentication layer.

The list forms of a telegram, encode's output, a stream that align
takes as a list and the bits of a telegram file, are lists of 0/1 ints,
most significant bit first: in telegram position notation (b_{n-1} ..
b_0, left to right) list index k is position b_{n-1-k}.  Inside, the
codec holds a bit string as one int; these helpers convert between the
two in C.  An element that is not 0 or 1 is a ValueError.  Lengths such as 1023
are not byte multiples, so telegrams are serialized as explicit '0'/'1'
character strings.
"""

from __future__ import annotations

# 0 and 1 become '0' and '1'; every other byte becomes 0xFF, which int()
# and the ASCII decoder reject, so a non-bit costs nothing until it fails.
_TO_CHARS = bytes(b"01"[x] if x < 2 else 0xFF for x in range(256))
_FROM_CHARS = bytes.maketrans(b"01", b"\x00\x01")


def _not_a_bit(chars: bytearray) -> ValueError:
    return ValueError(f"element {chars.index(0xFF)} is not 0 or 1")


def int_to_bits(value: int, width: int) -> list[int]:
    """Big-endian bit expansion of a non-negative int, zero-padded to width."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    # The leading 1 fixes the digit count, so width 0 gives [].
    return list(format(value | (1 << width), "b")[1:].encode().translate(_FROM_CHARS))


def bits_to_int(bits: list[int]) -> int:
    """Interpret a big-endian list of 0/1 values as an unsigned int."""
    chars = bytearray(bits).translate(_TO_CHARS)
    try:
        return int(chars or b"0", 2)
    except ValueError:
        raise _not_a_bit(chars) from None


def bits_to_str(bits: list[int]) -> str:
    chars = bytearray(bits).translate(_TO_CHARS)
    try:
        return chars.decode("ascii")
    except UnicodeDecodeError:
        raise _not_a_bit(chars) from None


def str_to_bits(text: str) -> list[int]:
    """Parse a '0'/'1' string; rejects any other character."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValueError(f"invalid bit character {min(bad)!r}")
    return list(text.encode().translate(_FROM_CHARS))
