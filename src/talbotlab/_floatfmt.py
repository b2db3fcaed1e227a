"""``repr`` of every entry of a float64 array, without a Python call per value.

``csv_text(matrix)`` gives the rows of a matrix as comma-separated lines of
``repr(float(v))`` for each entry ``v``, as ASCII ``bytes``: for every
float64, NaN payloads, signed zeros and infinities included.  The digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020): the shortest
decimal inside the rounding interval of a value, the closest one if several
have that length, ties to even, which are the digits ``repr`` prints.  The
arithmetic is ``uint64`` NumPy with explicit dtypes throughout, so it wraps
the same under NumPy 1.24's promotion rules and NEP 50's.  The text is laid
out as bytes in ``repr``'s two forms: positional while the decimal exponent
of the leading digit is in ``[-4, 15]``, ``d.ddde±XX`` otherwise.  Each
distinct bit pattern of a matrix is formatted once, into a row of NULs with
a separator at its end; the lines gather those rows and drop the NULs.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_text"]

_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
_E_MIN, _E_MAX = -292, 324   # the powers 10^e that finite doubles need, e = -k
_CHUNK = 2 ** 12             # values formatted, or gathered, at a time: bounds the temporaries
_WIDTH = 25                  # the longest text, "-2.2250738585072014e-308", and a separator

# the columns of the bytes each value's text is gathered from: 17 digits, the
# leading one nonzero, padded with trailing zeros; 3 digits of the decimal
# exponent's magnitude; the other characters
_DIGITS, _EXP = 3, 21
_CHARS = b"-.e+0infa___"
_MINUS, _DOT, _E, _PLUS, _ZERO, _I, _N, _F, _A = range(24, 33)
_INF = 0x7FF0000000000000
# the forms of a text beside positional ones, which are 0..19 for points -3..16
_E_TINY, _E_SMALL, _E_LARGE, _E_HUGE, _ZERO_FORM, _INF_FORM, _NAN_FORM = range(20, 27)


@functools.cache
def _pow10_table() -> tuple:
    """``(g3, g2, g1, g0, log2)`` for ``e`` in ``[_E_MIN, _E_MAX]``, indexed
    by ``e - _E_MIN``: the 32-bit limbs of ``g = floor(10^e * 2^-r) + 1``,
    the 126-bit integer with ``2^125 <= g < 2^126``, and
    ``floor(log2(10^e)) = r + 125``.  Built with Python ints on first use."""
    g, log2 = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            p = 10 ** e
            lg = p.bit_length() - 1
            g.append((p >> (lg - 125) if lg >= 125 else p << (125 - lg)) + 1)
        else:  # 10^-e is no power of 2, so its bit length is ceil(log2 10^-e)
            p = 10 ** -e
            lg = -p.bit_length()
            g.append((1 << (125 - lg)) // p + 1)
        log2.append(lg)
    limbs = [np.array([x >> shift & 0xFFFFFFFF for x in g], dtype=np.uint64)
             for shift in (96, 64, 32, 0)]
    return (*limbs, np.array(log2, dtype=np.int64))


def _round_to_odd(g, cp):
    """``floor(g * cp / 2^128)``, its last bit set if the rest is more than
    the error of ``g``: if the middle 64-bit limb of the product is above 1.
    ``g`` is given as four 32-bit limbs, the highest first, ``cp < 2^61``.

    The partial products are summed in 32-bit columns, each below 2^63; the
    lowest limb of the product only carries into the middle one."""
    g3, g2, g1, g0 = g
    c1, c0 = cp >> _U(32), cp & _LO32
    p10, p20 = g1 * c0, g2 * c0
    col = ((g0 * c0) >> _U(32)) + (p10 & _LO32) + g0 * c1     # bits 32..
    col = (col >> _U(32)) + (p10 >> _U(32)) + (p20 & _LO32) + g1 * c1   # bits 64..
    mid_lo = col & _LO32
    col = (col >> _U(32)) + (p20 >> _U(32)) + g3 * c0 + g2 * c1   # bits 96..
    sticky = ((col & _LO32) | (mid_lo >> _U(1))) != _U(0)    # middle limb > 1
    return ((col >> _U(32)) + g3 * c1) | sticky


def _shortest_digits(bits):
    """``(d, k)`` with ``|v| = d * 10^k`` and ``d`` shortest, for the bits of
    nonzero finite values."""
    frac = bits & _U(2 ** 52 - 1)
    biased = (bits >> _U(52)) & _U(0x7FF)
    c = frac | ((biased != _U(0)).astype(np.uint64) << _U(52))
    q = np.maximum(biased, _U(1)).astype(np.int64) - 1075    # |v| = c * 2^q
    closer = (frac == _U(0)) & (biased > _U(1))   # the next value down is half as far
    # floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when closer, for |q| <= 1500
    k = (q * 1262611 - closer.astype(np.int64) * 524031) >> 22
    *table, log2 = _pow10_table()
    idx = -_E_MIN - k
    g = [half[idx] for half in table]
    h = (q + log2[idx] + 3).astype(np.uint64)   # 3..6: g * cp / 2^128 = 4 |v| 10^-k
    cb = c << _U(2)
    # the interval's ends and the value, times 4 * 10^-k, rounded to odd
    vbl = _round_to_odd(g, (cb - _U(2) + closer) << h)
    vb = _round_to_odd(g, cb << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    odd = c & _U(1)        # the interval's ends round to the even neighbour
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    # one digit shorter: sp or sp + 1 at 10^(k+1), if exactly one is inside
    sp = s // _U(10)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    shorter = up_in ^ wp_in
    # else s or s + 1: the one inside, or the nearest, ties to even
    u_in = lower <= s << _U(2)
    w_in = (s << _U(2)) + _U(4) <= upper
    nearest = (vb & _U(3)) + (s & _U(1)) > _U(2)
    d = s + (nearest ^ ((u_in ^ w_in) & (nearest ^ w_in)))
    d += shorter * (sp + wp_in - d)   # modulo 2^64, so d becomes sp + wp_in
    return d, k + shorter


@functools.cache
def _digit_tables() -> tuple:
    """``(pow10, quads)``: ``10^0..10^17`` as ``uint64``, and the numbers
    ``[0, 10^4)`` as 4 ASCII digits each, one ``uint32`` per number."""
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return np.array([10 ** i for i in range(18)], dtype=np.uint64), quads


@functools.cache
def _layout(key: int) -> np.ndarray:
    """Source columns of the texts with this key, by ``repr``'s rules."""
    form, n, neg = key >> 6, key >> 1 & 31, key & 1
    cols = [_MINUS] if neg and form != _NAN_FORM else []
    digits = list(range(_DIGITS, _DIGITS + n))
    if form < _E_TINY:
        point = form - 3
        if point <= 0:
            cols += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point >= n:
            cols += digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
        else:
            cols += digits[:point] + [_DOT] + digits[point:]
    elif form < _ZERO_FORM:
        cols += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        cols += [_E, _MINUS if form < _E_LARGE else _PLUS]
        cols += list(range(_EXP if form in (_E_TINY, _E_HUGE) else _EXP + 1, _EXP + 3))
    else:
        cols += {_ZERO_FORM: [_ZERO, _DOT, _ZERO], _INF_FORM: [_I, _N, _F],
                 _NAN_FORM: [_N, _A, _N]}[form]
    return np.array(cols, dtype=np.intp)


def _texts(bits, text) -> None:
    """Write the ASCII ``repr`` of each float64 whose bits are given into its
    row of ``text``, left-aligned; the rest of each row is left as it is."""
    magnitude = bits & _U(2 ** 63 - 1)
    special = magnitude - _U(1) >= _U(_INF - 1)           # 0, inf or nan
    d, k = _shortest_digits(np.where(special, _U(1), bits))
    pow10, quads = _digit_tables()
    ndig = np.searchsorted(pow10, d, side="right")       # digits of d
    d = d * pow10[17 - ndig]                               # 17 digits exactly
    point = k + ndig                                       # |v| = 0.d1d2... * 10^point
    exp = point - 1                                        # the exponent of the e-form
    src = np.empty((bits.size, 9), dtype=np.uint32)
    head = d // _U(10 ** 16)
    src[:, 0] = quads[head]
    d -= head * _U(10 ** 16)
    for j in range(4, 0, -1):
        rest = d // _U(10_000)
        src[:, j] = quads[d - rest * _U(10_000)]
        d = rest
    src[:, 5] = quads[np.abs(exp)]
    src[:, 6:] = np.frombuffer(_CHARS, dtype=np.uint32)
    src = src.view(np.uint8)
    # the digits up to the last nonzero one
    n = 17 - np.argmax(src[:, _DIGITS + 16:_DIGITS - 1:-1] != ord("0"), axis=1)
    form = np.where((point >= -3) & (point <= 16), point + 3,
                    _E_TINY + (exp >= -99) + (exp > 0) + (exp >= 100))
    form = np.where(special, _ZERO_FORM + (magnitude >= _U(_INF)) + (magnitude > _U(_INF)),
                    form)
    key = form << 6 | (n * ~special) << 1 | (bits >> _U(63)).astype(np.int64)
    key = key.astype(np.int16)
    # one column gather per layout, on the values grouped by key
    order = np.argsort(key, kind="stable")   # a radix sort, for int16
    key = key[order]
    src = src[order]
    starts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    for a, b in zip([0, *starts], [*starts, key.size]):
        cols = _layout(int(key[a]))
        text[order[a:b], :cols.size] = np.take(src[a:b], cols, axis=1)


def csv_text(matrix) -> bytes:
    """The rows of a 2-D array as ASCII CSV lines of ``repr(float(v))``:
    each row's values joined by commas, each line ended by a newline.  Each
    distinct float64 bit pattern is formatted once."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not matrix.size:
        return b"\n" * len(matrix)
    values, inv = np.unique(matrix.view(np.uint64), return_inverse=True)
    # each distinct value's text, padded with NULs, then its separator
    table = np.zeros((values.size, _WIDTH), dtype=np.uint8)
    table[:, -1] = ord(",")
    for a in range(0, values.size, _CHUNK):
        _texts(values[a:a + _CHUNK], table[a:a + _CHUNK])
    inv = inv.reshape(matrix.shape)           # NumPy 1.x returns the inverse flat
    step = max(1, _CHUNK // matrix.shape[1])  # rows of lines gathered at a time
    lines = []
    for a in range(0, len(inv), step):
        text = table[inv[a:a + step]]
        text[:, -1, -1] = ord("\n")
        text = text.ravel()
        lines.append(text[text != 0].tobytes())
    return b"".join(lines)
