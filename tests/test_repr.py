"""The array repr kernel against Python's own ``repr`` and ``str``."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kneetrack import _repr


def cell_bytes(words: np.ndarray) -> list[bytes]:
    """The text of each cell of a (words, n) array, its NUL bytes removed."""
    rows = np.ascontiguousarray(words.T).view(np.uint8)
    return [row.tobytes().replace(b"\0", b"") for row in rows]


def assert_repr_cells(x: np.ndarray) -> None:
    columns = _repr.float_columns(x)
    assert len(columns) == len(x)
    for values, words in zip(x, columns):
        assert words.shape[1] == len(values)
        assert not np.ascontiguousarray(words.T).view(np.uint8)[:, 0].any()   # separator byte
        assert cell_bytes(words) == [repr(v).encode() for v in values.tolist()]


EDGES = [
    0.0, math.nan, math.inf, 5e-324, sys.float_info.min, math.nextafter(sys.float_info.min, 0),
    sys.float_info.max, 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
    1e16, math.nextafter(1e16, 0), 2.0**53, 2.0**53 + 2, 2.0**54, 0.1 + 0.2, 9.5, 0.5,
    123456789012345678.0, 1234567890123456.8, 0.00012345678901234567,
]
MAGNITUDES = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
    st.floats(1e-4, 1e16),
    st.floats(min_value=0.0, max_value=sys.float_info.min),
)
VALUES = st.tuples(MAGNITUDES, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


@settings(max_examples=150, deadline=None)
@given(values=st.lists(VALUES, min_size=1, max_size=60), rows=st.integers(1, 3))
def test_float_cells_are_repr(values, rows):
    # NaN, infinities, signed zeros, subnormals, the extremes and powers of
    # two and ten; rows of one call may need different integer widths
    assert_repr_cells(np.resize(np.array(values), (rows, len(values))))


def test_float_cells_are_repr_in_one_pass():
    rng = np.random.default_rng(10)
    # more values than a 512-row CSV block holds, formatted in one pass
    n = 20_321
    positional = rng.integers(0x3F1A36E2EB1C432D, 0x4341C37937E08000, n, dtype=np.uint64)
    anything = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    x = np.stack([positional.view(np.float64), anything.view(np.float64),
                  rng.normal(size=n) * 10.0 ** rng.integers(-5, 17, n)])
    x[2, ::97] = 0.0
    assert_repr_cells(x)


@settings(deadline=None)
@given(values=st.lists(st.one_of(st.integers(0, 10**15 - 1),
                                 st.sampled_from([0, 9, 10, 999, 1000, 9999, 10**4, 10**8, 10**12])),
                       min_size=1, max_size=40))
def test_int_cells_are_str(values):
    for count in range(1, 5):
        fits = [v for v in values if v < 10 ** (4 * count - 1)]
        words = _repr.int_words(np.array(fits, dtype=np.int64), count)
        assert words.shape == (count, len(fits))
        assert cell_bytes(words) == [str(v).encode() for v in fits]
        assert not np.ascontiguousarray(words.T).view(np.uint8)[:, 0].any()


def test_float_cells_are_repr_beside_interval_ends():
    # every power of two in the positional range, where the spacing below
    # halves, and the neighbours of short decimals, whose rounding
    # intervals end near a decimal with few digits
    powers = np.ldexp(1.0, np.arange(-15, 55))
    rng = np.random.default_rng(11)
    short = rng.integers(1, 10**6, 2000) * 10.0 ** rng.integers(-10, 11, 2000)
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                        short, np.nextafter(short, 0), np.nextafter(short, np.inf)])
    assert_repr_cells(np.stack([x, -x]))
