"""Bit-list helper round trips and conventions."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from balisim.bits import bits_to_int, int_to_bits


def test_int_to_bits_msb_first():
    assert int_to_bits(0b1011, 4) == [1, 0, 1, 1]
    assert int_to_bits(1, 4) == [0, 0, 0, 1]
    assert int_to_bits(0, 3) == [0, 0, 0]
    assert int_to_bits(0, 0) == []


def test_bits_to_int_examples():
    assert bits_to_int([1, 0, 1, 1]) == 0b1011
    assert bits_to_int([]) == 0


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_int_round_trip(value):
    assert bits_to_int(int_to_bits(value, 64)) == value


# A telegram file holds a telegram as binary text, first bit first.
@given(st.text("01", max_size=200))
def test_a_bit_list_is_in_the_order_of_its_binary_text(text):
    bits = [int(c) for c in text]
    value = int(text or "0", 2)
    assert bits_to_int(bits) == value
    assert int_to_bits(value, len(text)) == bits


# Lists whose elements are not all 0 or 1.  Before the translation table
# sent every other byte to 0xFF, the character codes of '0' and '1', and
# '-', '_' and ' ', went through to int() and read as digits or signs.
@pytest.mark.parametrize("bits", [
    [49, 48, 49],  # read as 0b101
    [45, 1],       # read as -1
    [1, 95, 0],    # read as 0b10
    [32, 1],       # read as 1
    [2], [0, 1, 255], [-1], [256],
])
def test_bits_to_int_rejects_elements_that_are_not_bits(bits):
    with pytest.raises(ValueError):
        bits_to_int(bits)


def test_not_a_bit_message_names_the_first_bad_element():
    with pytest.raises(ValueError, match="element 2 is not 0 or 1"):
        bits_to_int([1, 0, 49, 0, 7])
