"""``repr(float)`` of a float64 array, as bytes, without a Python call per value.

``repr_bytes`` gives the ASCII of ``repr(float(v))`` for every value of
an array, in three steps, each a pass of array arithmetic over all of its
values (so a caller bounds its temporaries by the size of what it passes):

1. **Shortest digits.**  The shortest decimal f 10^e that reads back as v
   (the one nearest v among those, ties to an even f) comes from the
   Schubfach core (Giulietti, "The Schubfach way to render doubles", 2020,
   as in Java's ``DoubleToDecimal``), in ``uint64`` arithmetic: v = c 2^q
   is scaled by a 126-bit approximation g of a power of ten, whose
   64 x 64 -> 128-bit products are built from 32-bit limbs.  Two steps
   differ from Java, whose ``Double.toString`` insists on two digits:
   there is no ``C_TINY`` step for the two smallest subnormals, and the
   one-digit-shorter candidate is tried from s >= 10, not s >= 100, so
   5e-324 comes out as Python writes it.
2. **Layout.**  Python writes the digits d1..dn with decimal-point
   position p (v = 0.d1...dn 10^p) in fixed notation when -4 < p <= 16 and
   as d1.d2...dne[+-]XX otherwise (at least two exponent digits); an
   integral value in fixed notation ends in ".0".  Each value's bytes are
   one gather from a source row (its digits, its exponent's digits and the
   constant characters) by a row of ``_LAYOUT``, keyed by sign, digit count
   and decimal-point position or exponent width.  Zeros, infinities and nan
   have rows of their own.
3. **Callers** join the bytes into lines (``sampler.export_draws``).

The tables are built when this module is first imported, which only
``export_draws`` does: the powers of ten from exact Python integers, the
digit words by array arithmetic.
"""

from __future__ import annotations

import numpy as np

# the longest repr, "-2.2250738585072014e-308"
WIDTH = 24

_U = np.uint64
_SIGN_BIT = _U(63)
_EXP_SHIFT = _U(52)
_INF_BITS = _U(0x7FF << 52)
_FRACTION_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)
_Q_MIN = -1074
_LOW32 = _U(0xFFFFFFFF)
_32 = _U(32)
_63 = _U(63)
_64 = _U(64)
_LOW63 = _U((1 << 63) - 1)
_ONE = _U(1)
_TWO = _U(2)
_TEN = _U(10)

# g(k) = floor(10^-k / 2^r) + 1 with 2^125 <= g < 2^126, for every k that
# flog10pow2 or flog10_three_quarters_pow2 gives over the doubles, split as
# g = g1 2^63 + g0 (Giulietti, section 9.8.3)
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(e log2(10)), for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    r = _flog2pow10(-k) - 125
    if k <= 0:
        num, den = 10 ** -k, 1
    else:
        num, den = 1, 10 ** k
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    return num // den + 1


_G = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
_G1 = np.array([g >> 63 for g in _G], dtype=np.uint64)
_G0 = np.array([g & ((1 << 63) - 1) for g in _G], dtype=np.uint64)
del _G


def _product(g: np.ndarray, cp: np.ndarray, cp_limbs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products g cp as (high, low) 64-bit words, the high word
    from 32-bit limbs."""
    b0, b1 = cp_limbs
    a0, a1 = g & _LOW32, g >> _32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32), g * cp


def _plus(product: tuple, g: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """product + g 2^shift, as (high, low) words, for 0 < shift < 64."""
    high, low = product
    g_low = g << shift
    low = low + g_low
    return high + (g >> (_64 - shift)) + (low < g_low), low


def _minus(product: tuple, g: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """product - g 2^shift, as (high, low) words, for 0 < shift < 64."""
    high, low = product
    g_low = g << shift
    return high - (g >> (_64 - shift)) - (low < g_low), low - g_low


def _rop(x: tuple, y: tuple) -> np.ndarray:
    """floor(g cp / 2^127), its lowest bit set when inexact (Giulietti's r_o'),
    from x = g0 cp and y = g1 cp for g = g1 2^63 + g0."""
    z = (y[1] >> _ONE) + x[0]
    vbp = y[0] + (z >> _63)
    return vbp | (((z & _LOW63) + _LOW63) >> _63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip (f, e) of the doubles whose bits, sign
    cleared, are ``bits``: v reads back from f 10^e, for v positive and
    finite (zeros, infinities and nan give unused values)."""
    normal = bits >= _C_MIN
    fraction = bits & _FRACTION_MASK
    c = np.where(normal, fraction | _C_MIN, fraction)
    q = np.maximum((bits >> _EXP_SHIFT).astype(np.int64), 1) - 1075
    irregular = (fraction == 0) & normal & (q > _Q_MIN)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where the gap below v
    # is half the gap above
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    out = c & _ONE
    # vb, vbl and vbr scale 4c, 4c - 2 (4c - 1 where irregular) and 4c + 2,
    # each shifted left by h: the products for the ends of the interval are
    # those for v, less or plus g shifted left by h + 1 (h where irregular)
    cp = c << (h + _TWO)
    cp_limbs = (cp & _LOW32, cp >> _32)
    x, y = _product(g0, cp, cp_limbs), _product(g1, cp, cp_limbs)
    vb = _rop(x, y)
    up = h + _ONE
    vbr = _rop(_plus(x, g0, up), _plus(y, g1, up))
    down = up - irregular
    vbl = _rop(_minus(x, g0, down), _minus(y, g1, down))
    s = vb >> _TWO
    # one digit shorter: the multiple of ten below or above s, if exactly one
    # of them lies in the rounding interval
    sp10 = (s // _TEN) * _TEN
    tp10 = sp10 + _TEN
    upin = vbl + out <= sp10 << _TWO
    wpin = (tp10 << _TWO) + out <= vbr
    shorter = (s >= _TEN) & (upin != wpin)
    # otherwise s or s + 1, whichever lies in the interval, or is nearer v
    t = s + _ONE
    uin = vbl + out <= s << _TWO
    win = (t << _TWO) + out <= vbr
    mid = (s + t) << _ONE
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _ONE) == 0))
    pick_s = np.where(uin != win, uin, nearer_s)
    f = np.where(shorter, np.where(upin, sp10, tp10), np.where(pick_s, s, t))
    return f, k


# Each value's digits and exponent are written to a 32-byte source row: its
# 2nd to 17th digits as four 4-digit words, a word of its exponent's 3 digits
# whose last byte then takes its leading digit, and _CONSTANTS.  The words
# come from tables of bytes viewed as uint32, so the bytes land in the row in
# either byte order.
_ROW = 32
_DIGIT_COLUMNS = [19] + list(range(16))
_EXPONENT_COLUMNS = [16, 17, 18]
_CONSTANTS = b"-.0e+infa\0\0\0"
_MINUS, _DOT, _ZERO, _E, _PLUS = range(20, 25)
_PAD = 20 + _CONSTANTS.index(b"\0")
# b"%04d" % i, b"%03d0" % i and the trailing zeros of "%04d" % i (4 for 0),
# built by array arithmetic rather than a Python loop per word
_WORD_VALUES = np.arange(10_000)
_WORDS4 = ((_WORD_VALUES[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
           .astype(np.uint8).view(np.uint32).ravel())
_EXPONENT_WORDS = _WORDS4[::10].copy()
_TRAILING_ZEROS4 = sum(_WORD_VALUES % 10 ** j == 0 for j in range(1, 5)).astype(np.intp)
del _WORD_VALUES
_N_DIGITS = 17
_POW10 = np.array([10 ** i for i in range(_N_DIGITS + 1)], dtype=np.uint64)

# _LAYOUT's row (17 negative + n - 1) 24 + layout holds the source columns
# of a value of that sign with n digits: layouts 0..19 are fixed notation at
# p = layout - 3, then exponent notation with a positive or negative exponent
# of two or three digits.  From _SPECIAL on come 0.0, -0.0, inf, -inf and
# nan (for either sign).
_FIXED = 20
_N_LAYOUTS = 24
_SPECIAL = 2 * _N_DIGITS * _N_LAYOUTS


def _body(n: int, layout: int) -> list[int]:
    """The source columns of an unsigned value with n digits."""
    d = _DIGIT_COLUMNS[:n]
    if layout < _FIXED:
        p = layout - 3
        if p <= 0:
            return [_ZERO, _DOT] + [_ZERO] * -p + d
        if p < n:
            return d[:p] + [_DOT] + d[p:]
        return d + [_ZERO] * (p - n) + [_DOT, _ZERO]
    minus, wide = divmod(layout - _FIXED, 2)
    return (d[:1] + ([_DOT] + d[1:] if n > 1 else []) + [_E, _MINUS if minus else _PLUS]
            + _EXPONENT_COLUMNS[1 - wide:])


def _pad(row: list[int]) -> list[int]:
    return row + [_PAD] * (WIDTH - len(row))


_LAYOUT = np.array(
    [_pad([_MINUS] * negative + _body(n, layout)) for negative in (0, 1)
     for n in range(1, _N_DIGITS + 1) for layout in range(_N_LAYOUTS)]
    + [_pad([20 + _CONSTANTS.index(ch) for ch in text])
       for text in (b"0.0", b"-0.0", b"inf", b"-inf", b"nan", b"nan")],
    dtype=np.intp)


def repr_bytes(x: np.ndarray) -> np.ndarray:
    """The ASCII bytes of ``repr(float(v))`` for each value of ``x``, as a
    uint8 array of shape ``x.shape + (WIDTH,)``, NUL-padded on the right."""
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.uint64)
    negative = (bits >> _SIGN_BIT).astype(np.intp)
    magnitude = bits & _LOW63
    f, k = _shortest(magnitude)
    # f has n_digits <= 17 digits; scaled to exactly 17, it splits into its
    # leading digit and four 4-digit words
    n_digits = np.searchsorted(_POW10, f, side="right")
    f = f * _POW10[_N_DIGITS - n_digits]
    lead = f // _POW10[16]
    rest = f - lead * _POW10[16]
    high = (rest // _POW10[8]).astype(np.uint32)
    low = (rest - high.astype(np.uint64) * _POW10[8]).astype(np.uint32)
    words = [high // 10_000, high % 10_000, low // 10_000, low % 10_000]
    src = np.empty((bits.size, _ROW), dtype=np.uint8)
    src[:, 20:] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    word_view = src.view(np.uint32)
    for i, word in enumerate(words):
        word_view[:, i] = _WORDS4[word]
    p = k + n_digits
    exponent = np.abs(p - 1)
    word_view[:, 4] = _EXPONENT_WORDS[exponent]
    src[:, 19] = lead.astype(np.uint8) + ord("0")
    # the digits shown: 17 less the trailing zeros of the last word, and of
    # each word before it while all words after it are zero
    zeros = np.zeros(bits.size, dtype=np.intp)
    tail = np.ones(bits.size, dtype=bool)
    for word in words[::-1]:
        zeros += tail * _TRAILING_ZEROS4[word]
        tail &= word == 0
    n = _N_DIGITS - zeros
    layout = np.where((p > -4) & (p <= 16), p + 3,
                      _FIXED + 2 * (p < 1) + (exponent >= 100))
    key = (negative * _N_DIGITS + n - 1) * _N_LAYOUTS + layout
    key = np.where((magnitude == 0) | (magnitude >= _INF_BITS),
                   _SPECIAL + negative + 2 * (magnitude >= _INF_BITS)
                   + 2 * (magnitude > _INF_BITS), key)
    # one gather of WIDTH indices per value: its layout row, offset to its
    # own source row
    index = _LAYOUT[key]
    index += np.arange(0, bits.size * _ROW, _ROW)[:, None]
    return src.reshape(-1).take(index).reshape(np.shape(x) + (WIDTH,))
