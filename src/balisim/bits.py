"""Bit-list helpers for the codec's list views.

The list forms of a telegram, encode's output and a stream that align
takes as a list, are lists of 0/1 ints, most significant bit first: in
telegram position notation (b_{n-1} .. b_0, left to right) list index k
is position b_{n-1-k}.  Inside, the codec holds a bit string as one int;
these helpers convert between the two in C.  An element that is not 0
or 1 is a ValueError.
"""

from __future__ import annotations

# 0 and 1 become '0' and '1'; every other byte becomes 0xFF, which int()
# rejects, so a non-bit costs nothing until it fails.
_TO_CHARS = bytes(b"01"[x] if x < 2 else 0xFF for x in range(256))
_FROM_CHARS = bytes.maketrans(b"01", b"\x00\x01")


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
        raise ValueError(f"element {chars.index(0xFF)} is not 0 or 1") from None
