"""``_floatrepr.repr_bytes`` against ``repr(float)``, value by value, over
its domain: the positive finite doubles, subnormals included."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aebayes._floatrepr import WIDTH, repr_bytes


def assert_matches_repr(values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = repr_bytes(values)
    assert got.shape == values.shape + (WIDTH,) and got.dtype == np.uint8
    got = got.reshape(-1, WIDTH).view(f"S{WIDTH}").ravel()
    want = np.array([repr(v).encode() for v in values.ravel().tolist()], dtype=f"S{WIDTH}")
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(repr(float(values.flat[i])), got[i]) for i in bad[:5]]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False,
                                 allow_subnormal=True)))
def test_hypothesis_floats(values):
    assert_matches_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=40))
def test_hypothesis_bit_patterns(bits):
    """Every bit pattern of a positive finite double."""
    assert_matches_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    bits &= np.uint64(2 ** 63 - 1)  # the sign bit cleared
    bits = bits[(bits != 0) & (bits >> np.uint64(52) != 0x7FF)]
    for chunk in np.array_split(bits, 10):
        assert_matches_repr(chunk.view(np.float64))


def test_powers_of_two_and_ten():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_matches_repr(np.concatenate([twos, tens]))


def test_first_subnormals():
    assert_matches_repr(np.arange(1, 2 ** 16 + 1, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("text", [
    # fixed notation down to a decimal point position of -3, then exponent
    "0.0001", "1e-05", "0.00012345678901234567", "1.2345678901234568e-05",
    # fixed notation up to 16 integer digits, with ".0" when integral
    "9999999999999998.0", "1e+16", "1234567890123456.8", "1.2345678901234568e+16",
    "1.0", "10.0", "123.0", "1.5", "0.1", "2.5e+25",
    # two exponent digits at least, three where needed
    "1e+22", "1e+100", "1.7976931348623157e+308", "2.2250738585072014e-308",
    "5e-324", "1e-323", "1.5e-323", "1.2345e-200",
])
def test_layout_boundaries(text):
    value = float(text)
    assert repr(value) == text
    assert_matches_repr(np.array([value]))


def test_shape_and_order_are_kept():
    values = np.random.default_rng(3).gamma(0.5, 0.01, size=(3, 5, 7))
    out = repr_bytes(values[:, ::2].T)
    assert out.shape == (7, 3, 3, WIDTH)
    assert bytes(out[6, 2, 1]).rstrip(b"\0") == repr(float(values[1, 4, 6])).encode()


def test_digit_word_tables_match_their_string_definitions():
    """The word tables, built by array arithmetic, hold the bytes and counts
    that formatting each word as text gives."""
    from aebayes import _floatrepr
    words4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype=np.uint32)
    exponent_words = np.frombuffer(b"".join(b"%03d0" % i for i in range(1000)),
                                   dtype=np.uint32)
    trailing_zeros4 = np.array([4] + [len(w) - len(w.rstrip("0"))
                                      for w in ("%04d" % i for i in range(1, 10_000))],
                               dtype=np.intp)
    for got, want in ((_floatrepr._WORDS4, words4),
                      (_floatrepr._EXPONENT_WORDS, exponent_words),
                      (_floatrepr._TRAILING_ZEROS4, trailing_zeros4)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
