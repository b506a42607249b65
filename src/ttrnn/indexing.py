"""Multi-index arithmetic for mode-factorized matrix dimensions.

A dimension ``D = d_1 * d_2 * ... * d_k`` is addressed either by a 1-based
linear index ``p`` or by a 1-based multi-index ``(j_1, ..., j_k)``. The
bijection between the two is fixed row-major: the last index varies fastest.
Every TT reshape in this package relies on this one convention, which is also
what a C-order ``ndarray.reshape`` produces.
"""

from __future__ import annotations

import math

from .errors import RangeError, ShapeError


def check_dims(dims) -> tuple[int, ...]:
    """Validate mode dimensions: non-empty, all >= 1, product fits in uint64."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ShapeError("mode dims must be non-empty")
    if any(d < 1 for d in dims):
        raise ShapeError(f"mode dims must be >= 1, got {dims}")
    if math.prod(dims) >= 1 << 64:
        raise ShapeError(f"product of mode dims {dims} overflows 64 bits")
    return dims


def linear_to_multi(p: int, dims) -> tuple[int, ...]:
    """Map 1-based linear index ``p`` to its 1-based row-major multi-index."""
    dims = check_dims(dims)
    total = math.prod(dims)
    if not 1 <= p <= total:
        raise RangeError(f"linear index {p} outside [1, {total}] for dims {dims}")
    rem = p - 1
    idx = [0] * len(dims)
    for k in range(len(dims) - 1, -1, -1):
        idx[k] = rem % dims[k] + 1
        rem //= dims[k]
    return tuple(idx)

