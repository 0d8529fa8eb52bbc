"""Bit-vector helpers shared by the codec and the authentication layer.

Bits cross public interfaces as lists of 0/1 ints, most significant bit
first: in telegram position notation (b_{n-1} .. b_0, left to right)
list index k is position b_{n-1-k}.  Inside, the codec holds a bit
string as one int; these helpers convert between the two in C.  Lengths
such as 1023 are not byte multiples, so telegrams are serialized as
explicit '0'/'1' character strings.
"""

from __future__ import annotations

_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")
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
    return int(bytearray(bits).translate(_TO_CHARS) or b"0", 2)


def bits_to_str(bits: list[int]) -> str:
    return bytearray(bits).translate(_TO_CHARS).decode()


def str_to_bits(text: str) -> list[int]:
    """Parse a '0'/'1' string; rejects any other character."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValueError(f"invalid bit character {min(bad)!r}")
    return list(text.encode().translate(_FROM_CHARS))
