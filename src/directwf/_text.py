"""The text of int and float64 arrays, rendered by array kernels.

Each float gets exactly the text float.__repr__ gives it, and each int the
text str gives it, as a NUL-padded field of WIDTH bytes. The digits come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; compare
U. Adams' Ryu, PLDI 2018) on uint64 lanes, with its 64 x 64 -> 128-bit
products built from 32-bit halves. repr's layout then is one gather through a
table of templates, one per sign, digit count and exponent class. repr writes
scientific notation when the decimal exponent is below -4 or at least 16,
with a sign and at least two exponent digits, adds ".0" to integral values in
fixed notation and keeps the sign of -0.0; unlike Java's Schubfach, it writes
one digit for 5e-324 and 1e-323.

Building the tables takes a few milliseconds and about 1 MiB of resident
memory, so serialize imports this module only when it first writes an array.
"""

import numpy as np

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_INF_BITS = _U(0x7FF0000000000000)
WIDTH = 24  # bytes of the longest repr, '-1.2345678901234567e-308'
_K_MIN, _K_MAX = -324, 292  # the decimal exponents Schubfach scales by
_POW10 = np.array([10**i for i in range(20)], dtype=_U)
# added to 4 * c: the lower bound of the rounding interval, the value and the
# upper bound, in quarters of 2**q (uint64 wraps the -2)
_BOUNDS = np.array([2**64 - 2, 0, 2], dtype=_U)[:, None]
# the four ASCII digits of 0 to 9999, one uint32 each, so a gather writes four bytes
_LUT4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy()
_LUT4 = _LUT4.view(np.uint32).ravel()


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _g(k: int) -> int:
    """Schubfach's 126-bit constant floor(10**-k / 2**r) + 1, r = flog2pow10(-k) - 125."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        return (1 << -r) // 10**k + 1
    return (10**-k << -r if r < 0 else 10**-k >> r) + 1


_G0, _G1 = np.array(
    [[g & (2**63 - 1), g >> 63] for g in map(_g, range(_K_MIN, _K_MAX + 1))], dtype=_U
).T
# column k - _K_MIN: the low and high 32-bit halves of g mod 2**63 and of g >> 63,
# then g >> 63 whole
_G = np.stack([_G0 & _M32, _G0 >> _U(32), _G1 & _M32, _G1 >> _U(32), _G1])


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of a * b, for a < 2**63 and b < 2**60 given as 32-bit halves."""
    high = a_lo * b_lo
    high >>= _U(32)
    high += a_lo * b_hi
    high += a_hi * b_lo  # below 2**32 + 2**60 + 2**63, so it cannot wrap
    high >>= _U(32)
    high += a_hi * b_hi
    return high


def _rop(g, cp):
    """Schubfach's g * cp / 2**127, rounded to odd, with g given by its columns of _G."""
    lo, hi = cp & _M32, cp >> _U(32)
    z = ((g[4] * cp) >> _U(1)) + _mulhi(g[0], g[1], lo, hi)
    return (_mulhi(g[2], g[3], lo, hi) + (z >> _U(63))) | ((z & _M63) != 0)


def _shortest(bits):
    """Schubfach on the bits of positive finite doubles: (f, k) per value.

    f * 10**k is the decimal with the fewest digits that rounds to the double
    (round half to even), and of those the closest, even on a tie; f may end
    in zeros. The interval's two bounds and the value are scaled in one (3, n)
    stack of uint64 lanes.
    """
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)).astype(np.int64)
    c = t | (bq > 0) * _U(2**52)
    q = np.maximum(bq, 1) - 1075
    # the predecessor of a power of two is half as far away as its successor
    asym = (t == 0) & (bq > 1)
    k = (q * 661971961083 - asym * 274743187321) >> 41  # floor(log10((3/4 if asym) * 2**q))
    cp = (c << _U(2)) + _BOUNDS
    cp[0] += asym
    cp <<= (q + _flog2pow10(-k) + 2).astype(_U)
    vbl, vb, vbr = _rop(_G[:, k - _K_MIN], cp)
    # an odd c leaves the bounds themselves out, as round half to even does
    out = c & _U(1)
    lower, upper = vbl + out, vbr - out
    s = vb >> _U(2)
    # At most one multiple of 10 near s lies within the bounds; if one does, it
    # is shorter. (Java's Schubfach looks only from s >= 100, as it writes at
    # least two digits.)
    sp10 = s // _U(10) * _U(10)
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= upper
    uin = lower <= vb & ~_U(3)
    win = (vb | _U(3)) + _U(1) <= upper
    closest = (vb & _U(3)) + (s & _U(1)) > 2  # s + 1 when nearer, or on a tie when s is odd
    up = np.where(uin == win, closest, win)
    return np.where((s >= _U(10)) & (upin != wpin), sp10 + _U(10) * wpin, s + up), k


def _groups(u):
    """(n, 5) intp base-10**4 digits of uint64 values, most significant first."""
    top = u // _U(10**16)
    rest = u - top * _U(10**16)
    hi = rest // _U(10**8)
    lo = (rest - hi * _U(10**8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    out = np.empty((len(u), 5), dtype=np.intp)
    out[:, 0] = top
    for col, part in ((1, hi), (3, lo)):
        out[:, col] = part // 10**4
        out[:, col + 1] = part % 10**4
    return out


# A row of _float_fields' gather table: the digits of f, padded with zeros to
# 17, at bytes 3 to 19 (behind three zeros), the scientific exponent |x| as
# '0abc' at 20 to 23, then these constants.
_CONSTANTS = np.frombuffer(b"0.-e+\0\0\0", dtype=np.uint32)
_DIGIT, _EXP = list(range(3, 20)), [21, 22, 23]
_ZERO, _POINT, _MINUS, _E, _PLUS, _NUL = range(24, 30)


def _template(digits: int, kind: int) -> bytes:
    """repr's layout of a positive value as gather-table columns, padded with NUL.

    kind is x + 4 for a fixed-point value of scientific exponent x in [-4, 16);
    20 to 23 for scientific notation, + 2 for a negative exponent and + 1 for
    a three-digit one.
    """
    if kind < 20:
        point = kind - 3  # digits before the decimal point
        if point <= 0:
            cols = [_ZERO, _POINT, *[_ZERO] * -point, *_DIGIT[:digits]]
        else:
            cols = [*_DIGIT[:point], _POINT, *_DIGIT[point : max(digits, point + 1)]]
    else:
        cols = _DIGIT[:1] + ([_POINT, *_DIGIT[1:digits]] if digits > 1 else [])
        cols += [_E, _MINUS if kind >= 22 else _PLUS, *_EXP[1 - kind % 2 :]]
    return bytes(cols + [_NUL] * (WIDTH - len(cols)))


# the kind of each scientific exponent x from _X_MIN on (see _template)
_X_MIN = -400
_X = np.arange(_X_MIN, -_X_MIN)
_KIND = np.where((_X >= -4) & (_X < 16), _X + 4, 20 + 2 * (_X < 0) + (np.abs(_X) >= 100))
# row (negative * 17 + digits - 1) * 24 + kind; a negative one is "-" and its positive one
_TEMPLATES = np.frombuffer(
    b"".join(_template(d, k) for d in range(1, 18) for k in range(24)), dtype=np.uint8
).reshape(-1, WIDTH)
_TEMPLATES = np.concatenate(
    [_TEMPLATES, np.insert(_TEMPLATES[:, :-1], 0, _MINUS, axis=1)]
)
# row n: which of the 20 digits of a uint64 to keep when it has n digits (0 has one)
_SIGNIFICANT = np.arange(20, 0, -1) <= np.maximum(np.arange(21), 1)[:, None]
_NONFINITE = np.frombuffer(
    b"".join(w.ljust(WIDTH, b"\0") for w in (b"inf", b"-inf", b"nan", b"nan")), dtype=np.uint8
).reshape(-1, WIDTH)


def _float_fields(values) -> np.ndarray:
    """(n, WIDTH) uint8: the repr of each float, NUL-padded."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    mag = values.view(_U) & _M63
    zero = mag == 0
    f, k = _shortest(mag)
    f[zero] = 0
    length = np.searchsorted(_POW10, f, side="right")  # digits of f
    x = k + length - 1  # the scientific exponent
    x[zero] = 0
    table = np.empty((len(values), 8), dtype=np.uint32)
    table[:, :5] = _LUT4[_groups(f * _POW10[17 - length])]
    table[:, 5] = _LUT4[np.abs(x)]
    table[:, 6:] = _CONSTANTS
    table = table.view(np.uint8)
    digits = 17 - np.argmax(table[:, 19:2:-1] != ord("0"), axis=1)  # up to the last nonzero
    digits[zero] = 1
    negative = np.signbit(values)
    row = (negative * 17 + digits - 1) * 24 + _KIND[x - _X_MIN]
    index = _TEMPLATES[row] + np.arange(0, table.size, 32)[:, None]
    out = np.take(table.ravel(), index)
    special = mag >= _INF_BITS
    if special.any():
        out[special] = _NONFINITE[2 * (mag[special] > _INF_BITS) + negative[special]]
    return out


def _int_fields(values) -> np.ndarray:
    """(n, WIDTH) uint8: the str of each integer, NUL-padded."""
    negative = values < 0
    mag = values.astype(_U)
    mag = np.where(negative, -mag, mag)  # |v| in uint64, also for -2**63
    chars = _LUT4[_groups(mag)].view(np.uint8)
    chars *= _SIGNIFICANT[np.searchsorted(_POW10, mag, side="right")]
    out = np.zeros((len(mag), WIDTH), dtype=np.uint8)
    out[:, 3] = negative * ord("-")
    out[:, 4:] = chars
    return out


def fields(cells) -> np.ndarray:
    """(rows, columns, WIDTH) uint8: the text of each cell of a 2-D int or float array."""
    render = _float_fields if cells.dtype.kind == "f" else _int_fields
    return render(cells.ravel()).reshape(*cells.shape, WIDTH)
