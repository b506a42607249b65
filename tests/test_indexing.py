"""Row-major bijection between linear and multi-indices (1-based)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttrnn import RangeError, ShapeError, linear_to_multi


def enumerate_multi(dims):
    """Independent oracle: row-major enumeration via itertools.product."""
    return list(itertools.product(*[range(1, d + 1) for d in dims]))


def test_full_table_matches_enumeration():
    for dims in [(4, 7), (2, 3, 4), (5,), (1, 6, 1, 2)]:
        table = enumerate_multi(dims)
        for p, multi in enumerate(table, start=1):
            assert linear_to_multi(p, dims) == multi


def test_frozen_values():
    # dims (4, 7): p = 9 sits at row 2, column 2 (last index fastest).
    assert linear_to_multi(9, (4, 7)) == (2, 2)
    assert linear_to_multi(1, (2, 3, 4)) == (1, 1, 1)
    assert linear_to_multi(24, (2, 3, 4)) == (2, 3, 4)
    assert linear_to_multi(5, (2, 3, 4)) == (1, 2, 1)
    # Single mode degenerates to the identity.
    assert linear_to_multi(3, (7,)) == (3,)


def test_matches_numpy_unravel():
    # numpy's C-order unravel_index is the same bijection shifted to 0-based.
    dims = (3, 5, 2, 4)
    for p in [1, 17, 60, 120]:
        expect = tuple(int(v) + 1 for v in np.unravel_index(p - 1, dims))
        assert linear_to_multi(p, dims) == expect


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
    st.data(),
)
def test_any_dims_match_numpy_unravel(dims, data):
    dims = tuple(dims)
    total = int(np.prod(dims))
    p = data.draw(st.integers(min_value=1, max_value=total))
    expect = tuple(int(v) + 1 for v in np.unravel_index(p - 1, dims))
    assert linear_to_multi(p, dims) == expect


def test_range_errors():
    with pytest.raises(RangeError):
        linear_to_multi(0, (4, 7))
    with pytest.raises(RangeError):
        linear_to_multi(29, (4, 7))


def test_shape_errors():
    with pytest.raises(ShapeError):
        linear_to_multi(1, ())
    with pytest.raises(ShapeError):
        linear_to_multi(1, (3, 0))
