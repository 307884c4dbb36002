"""``repr`` and ``str`` of number arrays as ASCII cells and CSV lines, no Python call per value.

A cell is a column of uint32 words whose bytes, read in order with their
NUL bytes removed, are the value's text.  Cells come word-major, one row
per word and one column per value, so that every step is a whole-array
operation on contiguous rows.  Byte 0 of a float cell is NUL, free for a
separator.  A call formats its values in one pass, with no chunks: the
trial CSV writer's 512-row blocks bound the kernel's working set.

:func:`float_columns` gives ``repr(float(v))``.  A float cell is a sign
word, up to four words of integer digits, a point word and five words of
fraction digits.  Each word is looked up in one table: "0000" to "9999"
in four variants that hold NUL in place of leading or trailing zeros, so
no value's text is shifted into place.

Zeros and the normal values ``repr`` prints in positional notation,
1e-4 <= |v| < 1e16, take the vector path.  Their shortest round-trip
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the digits of Ryu, U. Adams, PLDI 2018).  For v = c 2^q
in this range the decimal scale is 10^m = 5^m 2^m with 0 <= m <= 20, so
the rounding interval's scaled bounds are exact products (8c + d) 5^m
< 2^103, computed on 32-bit limbs of uint64 arrays and shifted down with
the dropped bits kept as a sticky bit.  NaN, the infinities and the
values ``repr`` prints in exponent form, subnormals among them, are
written by ``repr`` itself.

Two rules of the general algorithm cannot change a result in this range
and are left out: the interval is taken as closed, and as wide below v
as above it.  An end of the interval, (2c +- 1) 2^(q-1) with q <= 1, is
an odd integer beside v = 2c when q = 1 and otherwise has at least 17
significant digits, ending in a 5, so a decimal inside the interval is
always as short and closer to v.  Below a power of two the spacing
halves, which changes none of the powers of two in the range; the tests
check each of them.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_WORDS = 11                     # sign, 4 integer, point, 5 fraction words

# The biased exponents of the vector path's normal values: 2^-14 < 1e-4
# and 1e16 < 2^54.
_BE_LO, _BE_HI = 1023 - 14, 1023 + 53
_MIN_POSITIONAL, _MAX_POSITIONAL = 1e-4, 1e16
_MASK32 = 0xFFFFFFFF
_SIGNIFICAND = (1 << 52) - 1

# The word table: four sections of 10^4 groups, then three single words.
# A group is "%04d" with NUL for the zeros after its last nonzero digit
# (0 is all NUL), with NUL for the zeros before its first (0 is "0"), as
# is, or as the first with 0 kept as "0".
_TRAIL, _LEAD, _PLAIN, _TRAIL_FIRST = 0, 10**4, 2 * 10**4, 3 * 10**4
_BLANK, _POINT = 4 * 10**4, 4 * 10**4 + 2     # the minus sign is _BLANK + 1


@cache
def _tables():
    """The scale columns by biased exponent, and the word table.

    Row ``be - _BE_LO`` holds, for v = c 2^q with q = be - 1075, the m
    for which the rounding interval's width 2^q times 10^m lies in
    [1, 10):

    - ``five``: 5^m, and ``shift``: 1 - q - m, so that
      8c 5^m 2^-shift = 4 v 10^m;
    - ``integer``: 10^min(m, 17): the decimal f 10^-m's integer part is
      f // integer;
    - ``head``, ``head_scale``, ``tail_scale``: the first 12 of its 20
      fraction digits are fraction // head * head_scale and the last 8
      are fraction % head * tail_scale.

    Built on first use, with Python integers.
    """
    rows = []
    for be in range(_BE_LO, _BE_HI + 1):
        q = be - 1075
        m = 0
        while q < 0 and 10**m < 2**-q:
            m += 1
        assert m <= 20 and 0 <= 1 - q - m <= 48
        rows.append((5**m, 1 - q - m, 10 ** min(m, 17), 10 ** max(m - 12, 0),
                     10 ** max(12 - m, 0), 10 ** (20 - max(m, 12))))
    names = ("five", "shift", "integer", "head", "head_scale", "tail_scale")
    columns = np.array(rows, dtype=np.int64).T
    scale = {name: column.copy() for name, column in zip(names, columns)}
    scale["five"] = scale["five"].astype(np.uint64)
    scale["shift"] = scale["shift"].astype(np.uint64)

    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    plain = (digits + ord("0")).astype(np.uint8)
    trail = np.where(np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1], plain, 0)
    lead = np.where(np.logical_or.accumulate(nonzero, axis=1), plain, 0)
    lead[0, 3] = ord("0")
    trail_first = trail.copy()
    trail_first[0, 0] = ord("0")
    single = np.frombuffer(b"\0\0\0\0" b"\0\0\0-" b".\0\0\0", dtype=np.uint8).reshape(3, 4)
    words = np.concatenate([trail, lead, plain, trail_first, single])
    return scale, words.view(np.uint32).reshape(-1)


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products a b as (high, low) words, for a < 2^56, b < 2^47."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low = a0 * b0
    mid = a1 * b0
    mid += a0 * b1                              # < 2^57
    high = a1 * b1
    high += mid >> 32
    mid <<= 32
    low += mid
    high += low < mid
    return high, low


def _shortest(bits: np.ndarray, five: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Schubfach's digits f, v = f 10^-m, of positive normal doubles ``bits``."""
    high, low = _product(((bits & _SIGNIFICAND) | (1 << 52)) << 3, five)
    # 8c 5^m and the interval's ends a half spacing away, 4 5^m below and
    # above
    step = five << 2
    lows = np.empty((3, len(bits)), dtype=np.uint64)
    highs = np.empty_like(lows)
    np.subtract(low, step, out=lows[0])
    lows[1] = low
    np.add(low, step, out=lows[2])
    np.subtract(high, low < step, out=highs[0])
    highs[1] = high
    np.add(high, lows[2] < low, out=highs[2])
    # scaled by 2^-shift: round to odd, the lowest bit set when nonzero
    # bits were dropped; high is 0 whenever shift is 0, so its shift by
    # 64 may give 0 or high
    scaled = (lows >> shift) | (highs << (64 - shift))
    scaled |= (lows & ((np.uint64(1) << shift) - 1)) != 0
    vbl, vb, vbr = scaled.view(np.int64)

    s = vb >> 2
    # one digit shorter: the interval is under 10 units of 10^-m wide, so
    # at most one of u' = 10 floor(s / 10) and w' = u' + 10 lies in it
    u = s // 10 * 10
    short = (vbl <= u << 2) ^ ((u << 2) + 40 <= vbr)
    # otherwise s or s + 1: the one in the interval, or if both are, the
    # one closer to v, and the even one on a tie
    mid = (s << 2) + 2
    up = (s << 2) + 4 <= vbr
    up &= (vbl > s << 2) | (vb > mid) | ((vb == mid) & ((s & 1) == 1))
    # short: w' if it is the one in the interval, else u'
    s += up
    s += short * (u - s + 10 * ((u << 2) + 40 <= vbr))
    return s


def _integer_index(v: np.ndarray, groups: np.ndarray) -> None:
    """Write the word-table indices of the digits of ``v`` < 10^(4 len(groups)).

    The groups above the first nonzero one are blank, that one has NUL
    for its leading zeros, and the last shows at least its last digit.
    """
    rest = v
    above = _LEAD                   # v has digits in this group or above it
    for row in groups[:0:-1]:
        quotient = rest // 10**4
        np.subtract(rest, quotient * 10**4, out=row)
        rest = quotient
        row += above
        above = (rest != 0) * _LEAD
        row += above
    groups[0] = rest + above


def int_words(values: np.ndarray, count: int) -> np.ndarray:
    """``str`` of non-negative integers below 10^(4 count) as (count, n) cells.

    Byte 0 of a cell is NUL only for values below 10^(4 count - 1).
    """
    index = np.empty((count, len(values)), dtype=np.intp)
    _integer_index(np.asarray(values, dtype=np.int64), index)
    return _tables()[1][index]


def _cell_words(x: np.ndarray, positional: np.ndarray, out: np.ndarray) -> None:
    """Write the (_WORDS, n) cells of the values ``x`` into ``out``, in one pass.

    The cells of nonzero values that ``positional`` does not mark are left
    for :func:`float_columns` to write with ``repr``.  The CSV writer's
    512-row blocks, at most 8,704 values, bound the temporaries.
    """
    scale, words = _tables()
    bits = x.view(np.uint64)
    row = ((bits >> 52 & 0x7FF) - _BE_LO).view(np.int64) * positional
    f = _shortest(bits, scale["five"][row], scale["shift"][row])
    f *= positional                             # zeros print as 0.0

    # f 10^-m as an integer part and 20 fraction digits, a head of 12
    # and a tail of 8
    integer = scale["integer"][row]
    ip = f // integer
    fraction = f - ip * integer
    head_div = scale["head"][row]
    head = fraction // head_div
    tail = fraction - head * head_div
    tail *= scale["tail_scale"][row]
    head *= scale["head_scale"][row]

    index = np.empty((_WORDS, len(x)), dtype=np.intp)
    np.add(bits >> 63, _BLANK, out=index[0], casting="unsafe")
    _integer_index(ip, index[1:5])
    index[5] = _POINT
    fraction_groups = index[6:]
    fraction_groups[0] = head // 10**8
    fraction_groups[2] = head // 10**4
    fraction_groups[1] = fraction_groups[2] - fraction_groups[0] * 10**4
    fraction_groups[2] = head - fraction_groups[2] * 10**4
    fraction_groups[3] = tail // 10**4
    fraction_groups[4] = tail - fraction_groups[3] * 10**4
    # NUL for the trailing zeros of the last nonzero group and blank after
    # it; the first group shows at least its first digit
    later = fraction_groups[4] != 0
    for group in fraction_groups[3:0:-1]:
        nonzero = group != 0
        group += later * _PLAIN
        later |= nonzero
    fraction_groups[0] += _TRAIL_FIRST - later * (_TRAIL_FIRST - _PLAIN)
    np.take(words, index, out=out, mode="clip")


def float_columns(values: np.ndarray) -> list[np.ndarray]:
    """``repr`` of each row of a (k, n) float64 array as k arrays of cells.

    A row's cells are a sign word, as many integer words as its largest
    value needs, a point word and five fraction words.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    magnitude = np.abs(flat)
    positional = (magnitude >= _MIN_POSITIONAL) & (magnitude < _MAX_POSITIONAL)
    out = np.empty((_WORDS, len(flat)), dtype=np.uint32)
    _cell_words(flat, positional, out)
    # once the kernel's temporaries are freed: the other nonzero values,
    # right-aligned in the point and fraction words
    fallback = np.flatnonzero(~positional & (flat != 0))
    if len(fallback):
        text = b"".join(repr(v).encode().rjust(4 * _WORDS, b"\0") for v in flat[fallback].tolist())
        out[:, fallback] = np.frombuffer(text, dtype=np.uint32).reshape(-1, _WORDS).T

    top = np.where(positional, magnitude, 0.0).reshape(x.shape).max(axis=1, initial=0.0)
    n = x.shape[1]
    columns = []
    for i, largest in enumerate(top.tolist()):
        cells = out[:, i * n:(i + 1) * n]
        # the leading integer words no value of the row uses are blank:
        # the sign word moves into the last of them
        blank = 4 - (len(str(int(largest))) + 3) // 4
        cells[blank] = cells[0]
        columns.append(cells[blank:])
    return columns



# a comma goes into the free byte 0 of every cell but a line's first
_COMMA, _CRLF = np.frombuffer(b",\0\0\0\r\n\0\0", dtype=np.uint32)


def csv_lines(columns: list[np.ndarray], missing: list[np.ndarray | None]) -> bytes:
    """CSV lines of ``columns``' rows: a float as its ``repr``, an int as its ``str``, a
    flag as 1 or 0, and an empty cell where ``missing`` (a mask per column, or None) is set.

    Each column's cells go straight into its words of every line, an integer
    column taking as many words as the block's largest value needs.
    """
    floats = iter(float_columns(np.array([c for c in columns if c.dtype.kind == "f"])))
    # a digit more than the largest integer has keeps byte 0 free
    cells = [next(floats) if values.dtype.kind == "f" else
             int_words(values, len(str(int(values.max()))) // 4 + 1)
             for values in columns]
    lines = np.empty((len(columns[0]), sum(map(len, cells)) + 1), dtype=np.uint32)
    at = 0
    for words, mask in zip(cells, missing):
        part = lines[:, at:at + len(words)]
        part[...] = words.T
        if mask is not None:
            part[mask] = 0
        if at:
            part[:, 0] |= _COMMA
        at += len(words)
    lines[:, at] = _CRLF
    return lines.tobytes().translate(None, b"\0")
