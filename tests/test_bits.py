"""Bit-list helper round trips and conventions."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from balisim.bits import bits_to_int, bits_to_str, int_to_bits, str_to_bits


def test_int_to_bits_msb_first():
    assert int_to_bits(0b1011, 4) == [1, 0, 1, 1]
    assert int_to_bits(1, 4) == [0, 0, 0, 1]
    assert int_to_bits(0, 3) == [0, 0, 0]
    assert int_to_bits(0, 0) == []


def test_bits_to_int_examples():
    assert bits_to_int([1, 0, 1, 1]) == 0b1011
    assert bits_to_int([]) == 0


def test_str_round_trip():
    assert str_to_bits("0110") == [0, 1, 1, 0]
    assert bits_to_str([0, 1, 1, 0]) == "0110"


def test_str_to_bits_rejects_junk():
    with pytest.raises(ValueError):
        str_to_bits("01x0")


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_int_round_trip(value):
    assert bits_to_int(int_to_bits(value, 64)) == value


@given(st.lists(st.integers(0, 1), max_size=200))
def test_str_bits_round_trip(bits):
    assert str_to_bits(bits_to_str(bits)) == bits
