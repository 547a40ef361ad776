"""The text of int and float64 arrays, rendered by array kernels.

Each float gets exactly the text float.__repr__ gives it, and each int the
text str gives it, in a field of WIDTH bytes padded with NUL anywhere: the
writer drops every NUL. The digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; compare U. Adams' Ryu, PLDI 2018) on
uint64 lanes, with its 64 x 64 -> 128-bit products built from 32-bit halves.
repr's layout is then a row of constant bytes per sign, exponent and digit
count plus the digits twice, as they are and one byte on, each kept by a row
of masks per point position and digit count. repr writes scientific notation
when the decimal exponent is below -4 or at least 16, with a sign and at
least two exponent digits, adds ".0" to integral values in fixed notation
and keeps the sign of -0.0; unlike Java's Schubfach, it writes one digit for
5e-324 and 1e-323.

Schubfach's f has 16 or 17 digits for every normal double, so only
subnormals search for their digit count; the trailing zeros of f's last four
digits come from a 10,000-entry table, so only rows ending in four zeros scan
further left. Zeros, inf and nan take stand-in exponents just past the real
ones, whose _CONST rows hold their whole text and whose masks keep no digit,
so they go down the same table path as every other double; a stand-in f
takes them past both searches. Table rows are gathered with
np.take, which copies them in one call where fancy indexing copies one
29-byte row at a time, about four times slower on a block of 7,168 rows.

Building the tables takes about 10 ms and 1.25 MiB of resident memory (2
shared vCPUs, bytecode cached), so serialize imports this module only when it
first writes an array.
"""

import numpy as np

_U = np.uint64
# a field: the sign at byte 0, "0." and up to three zeros at 1 to 5, 17 digits
# and a point at 6 to 23, "e", its sign and three digits at 24 to 28
WIDTH = 29
_K_MIN, _K_MAX = -324, 292  # the decimal exponents Schubfach scales by
_POW10 = np.array([10**i for i in range(20)], dtype=_U)
# the four ASCII digits of 0 to 9999, one uint32 each, so a gather writes four
# bytes, and how many of those four digits are trailing zeros (4 for 0)
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_LUT4 = (_DIGITS4 + ord("0")).copy().view(np.uint32).ravel()
_TZ4 = np.cumprod(_DIGITS4[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
del _DIGITS4


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _g(k: int) -> int:
    """Schubfach's 126-bit constant floor(10**-k / 2**r) + 1, r = flog2pow10(-k) - 125."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        return (1 << -r) // 10**k + 1
    return (10**-k << -r if r < 0 else 10**-k >> r) + 1


# column k - _K_MIN: the 32-bit halves of g mod 2**63 and of g >> 63, then g >> 63
_G = np.array(
    [[lo % 2**32, lo >> 32, hi % 2**32, hi >> 32, hi]
     for lo, hi in ((g % 2**63, g >> 63) for g in map(_g, range(_K_MIN, _K_MAX + 1)))],
    dtype=_U,
).T.copy()


def _mulhi(a_lo, a_hi, b_lo, b_hi, out, tmp):
    """out = the high 64 bits of a * b, for a < 2**63 and b < 2**60 given as 32-bit halves.

    tmp is scratch of out's shape; it may be b_lo, which is then used up.
    """
    np.multiply(a_lo, b_lo, out=out)
    out >>= _U(32)
    np.multiply(a_hi, b_lo, out=tmp)
    out += tmp
    np.multiply(a_lo, b_hi, out=tmp)
    out += tmp  # below 2**32 + 2**63 + 2**60, so it cannot wrap
    out >>= _U(32)
    np.multiply(a_hi, b_hi, out=tmp)
    out += tmp


def _rop(column, work):
    """Schubfach's g * cp / 2**127, rounded to odd, per lane of cp = work[0], g = _G[:, column].

    work is a (4, 3, n) stack, all overwritten; the result is work[2].
    """
    lo, hi, out, z = work
    np.right_shift(lo, _U(32), out=hi)
    lo &= _U(2**32 - 1)
    _mulhi(_G[0].take(column), _G[1].take(column), lo, hi, out, z)
    np.left_shift(hi, _U(32), out=z)
    z |= lo  # cp again
    z *= _G[4].take(column)
    z >>= _U(1)
    z += out
    _mulhi(_G[2].take(column), _G[3].take(column), lo, hi, out, lo)
    np.right_shift(z, _U(63), out=lo)
    out += lo
    z &= _U(2**63 - 1)
    out |= z != 0
    return out


def _shortest(bits):
    """Schubfach on the bits of nonzero finite doubles: (f, k) per magnitude.

    f * 10**k is the decimal with the fewest digits that rounds to the double
    (round half to even), and of those the closest, even on a tie; f may end
    in zeros. The interval's two bounds and the value are scaled in place in
    a (3, n) stack of uint64 lanes, the first of four in one scratch array.
    """
    c = bits & _U(2**52 - 1)
    q = (bits >> _U(52) & _U(2**11 - 1)).astype(np.int64)  # the sign bit is ignored
    # the predecessor of a power of two is half as far away as its successor
    asym = (c == 0) & (q > 1)
    c |= (q > 0) * _U(2**52)
    np.maximum(q, 1, out=q)
    q -= 1075
    k = q * 661971961083
    k -= asym * 274743187321
    k >>= 41  # floor(log10((3/4 if asym) * 2**q))
    q += _flog2pow10(-k)
    q += 2
    work = np.empty((4, 3, len(c)), dtype=_U)
    cp = work[0]  # the lower bound, the value and the upper bound
    np.left_shift(c, _U(2), out=cp[1])
    np.subtract(cp[1], _U(2), out=cp[0])
    cp[0] += asym
    np.add(cp[1], _U(2), out=cp[2])
    cp <<= q.view(_U)
    # an odd c leaves the bounds themselves out, as round half to even does
    odd = (c & _U(1)).astype(bool)
    del q, asym, c
    k -= _K_MIN
    lower, vb, upper = _rop(k, work)
    k += _K_MIN
    lower += odd
    upper -= odd
    s, sp10, _ = work[0]  # free again
    np.right_shift(vb, _U(2), out=s)
    # At most one multiple of 10 near s lies within the bounds; if one does, it
    # is shorter. (Java's Schubfach looks only from s >= 100, as it writes at
    # least two digits.)
    np.floor_divide(s, _U(10), out=sp10)
    sp10 *= _U(10)
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= upper
    uin = lower <= vb & ~_U(3)
    win = (vb | _U(3)) + _U(1) <= upper
    closest = (vb & _U(3)) + (s & _U(1)) > 2  # s + 1 when nearer, or on a tie when s is odd
    shorter = (s >= _U(10)) & (upin != wpin)
    s += np.where(uin == win, closest, win)
    sp10 += _U(10) * wpin
    return np.where(shorter, sp10, s), k


def _digit_bytes(u):
    """(n, 32) uint8: the 20 ASCII digits of uint64 values u at bytes 4 to 23, the rest NUL.

    Also returns the value of the last four digits as intp: u is used up, and
    its groups of four digits index _LUT4 as intp.
    """
    words = np.zeros((len(u), 8), dtype=np.uint32)
    for col, scale in enumerate((10**16, 10**12, 10**8, 10**4), start=1):
        part = u // _U(scale)
        words[:, col] = _LUT4.take(part.view(np.intp))
        part *= _U(scale)
        u -= part
    last = u.view(np.intp)
    words[:, 5] = _LUT4.take(last)
    return words.view(np.uint8), last


# the scientific exponents x with fields in _CONST: -400 to 399, then the
# stand-ins 400, 401 and 402 of 0.0, inf and nan, whose fields are their whole text
_X = range(-400, 403)


def _constants(negative: int, x: int, several: int) -> bytes:
    """The fixed bytes of a field: its sign, "0." and zeros, point and exponent.

    x is the scientific exponent; several, whether there are two digits or more.
    A stand-in x (400 and up) gives the whole field of 0.0, inf or nan.
    """
    field = bytearray(WIDTH)
    field[0] = negative * (x != 402) * ord("-")  # repr gives nan no sign
    fixed = -4 <= x < 16
    if x >= 400:
        field[1:4] = (b"0.0", b"inf", b"nan")[x - 400]
    elif fixed and x < 0:
        field[1 : 2 - x] = b"0." + b"0" * (-1 - x)
    elif fixed or several:
        field[7 + x * fixed] = ord(".")
    if not fixed and x < 400:
        field[24 : 24 + 4 + (abs(x) >= 100)] = b"e%+03d" % x
    return bytes(field)


# row (negative * len(_X) + x - _X[0]) * 2 + several
_CONST = b"".join(_constants(n, x, s) for n in (0, 1) for x in _X for s in (0, 1))
_CONST = np.frombuffer(_CONST, dtype=np.uint8).reshape(-1, WIDTH)
# [x - _X[0], keep]: the masks of keep digits, row point * 18 + max(keep, one
# past the point in fixed notation), point digits before it (17: none, as in
# 0.001); a stand-in x gets row 0, which keeps no digit
_x, _keep = np.array(_X)[:, None], np.arange(18)
_point = np.where((_x >= -4) & (_x < 16), np.where(_x >= 0, _x + 1, 17), 1)
_MASK_ROW = (_x < 400) * (_point * 18 + np.maximum(_keep, np.where((_x >= 0) & (_x < 16), _x + 2, 0)))
# row point * 18 + keep: which bytes of a field take digit j - 6 (_BEFORE, left
# of the point) or digit j - 7 (_AFTER, right of it), of the first keep digits
_j, _point = np.arange(WIDTH) - 6, np.arange(18)[:, None, None]
_BEFORE = ((_j >= 0) & (_j < _point) & (_j < _keep[:, None])).astype(np.uint8).reshape(-1, WIDTH)
_AFTER = ((_j > _point) & (_j - 1 < _keep[:, None])).astype(np.uint8).reshape(-1, WIDTH)
del _x, _keep, _j, _point
# row n: which of the 20 digits of a uint64 to keep when it has n digits (0 has one)
_SIGNIFICANT = (np.arange(20, 0, -1) <= np.maximum(np.arange(21), 1)[:, None]).astype(np.uint8)


def _float_fields(values, out) -> None:
    """Write the repr of each float to out, n fields of WIDTH bytes in any shape."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    special = (values == 0) | ~np.isfinite(values)  # 0.0, inf and nan, written whole
    f, x = _shortest(values.view(_U))
    f[special] = 10**16 + 1  # a stand-in that takes neither fallback below
    # f of a normal double has 16 or 17 digits; subnormals may have fewer
    length = (f >= _U(10**16)) + 16
    other = (f < _U(10**15)) | (f >= _U(10**17))
    if other.any():
        length[other] = np.searchsorted(_POW10, f[other], side="right")
    x += length - 1 - _X[0]  # the scientific exponent, less _X[0]
    x[special] = 400 - _X[0] + (values[special] != 0) + np.isnan(values[special])  # stand-ins
    f *= _POW10.take(17 - length)
    chars, last = _digit_bytes(f)  # the 17 digits at bytes 7 to 23
    del f, length
    keep = 17 - _TZ4.take(last)  # up to the last nonzero digit
    group = keep == 13  # the last four digits are zeros: look further left
    if group.any():
        keep[group] = 17 - np.argmax(chars[group, 23:6:-1] != ord("0"), axis=1)
    negative = np.signbit(values)
    field = _CONST.take((negative * len(_X) + x) * 2 + (keep > 1), axis=0)
    keep = _MASK_ROW.take(x * _MASK_ROW.shape[1] + keep)
    digits = _BEFORE.take(keep, axis=0)
    digits *= chars[:, 1 : WIDTH + 1]
    field += digits
    np.take(_AFTER, keep, axis=0, out=digits, mode="clip")  # "raise" would copy out
    digits *= chars[:, :WIDTH]
    np.add(field.reshape(out.shape), digits.reshape(out.shape), out=out)


def _int_fields(values, out) -> None:
    """Write the str of each integer to out, n fields of WIDTH bytes in any shape."""
    negative = values < 0
    mag = values.astype(_U)
    mag = np.where(negative, -mag, mag)  # |v| in uint64, also for -2**63
    significant = _SIGNIFICANT.take(np.searchsorted(_POW10, mag, side="right"), axis=0)
    chars = _digit_bytes(mag)[0]
    chars[:, 4:24] *= significant
    chars[:, 3] = negative * ord("-")
    out[...] = chars[:, 3 : 3 + WIDTH].reshape(out.shape)


def write(cells, out) -> None:
    """Write the text of each cell of a 2-D int or float array to uint8 out[i, j, :WIDTH]."""
    (_float_fields if cells.dtype.kind == "f" else _int_fields)(cells.ravel(), out)
