"""Micro-benchmark for the dense-vs-TT scaling behavior.

Measures the wall time of the forward and backward passes over a grid of
square layer sizes, then fits a log-log slope: a dense matmul grows like
M*N (slope ~2 in M=N) while the TT sweep at bounded rank and mode size
grows close to linearly (slope ~1). Only growth rates are asserted
anywhere; absolute times are machine noise.

Memory columns are computed from the contraction plan, not measured:
parameter bytes are the stored float64 count, working bytes the peak of
the transient buffers the forward pass holds at once. Allocator
instrumentation would measure platform behavior, not the algorithm.

Timing protocol: at least 3 warmup calls (cache warming), then at least 20
timed repetitions in 3 consecutive blocks; the lowest block median is
reported. On a shared host a slow spell (another process on the core) can
cover half of a run and so become its median; it only ever adds time, so
the fastest block is the one that measures the code. Points are measured
sequentially on one BLAS thread, so a time grows with the work and not
with how it splits across cores.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, SizeError
from .linear import TTLinear
from .ttmatrix import TTSpec

# Largest dense weight-plus-gradient allocation the dense family will
# attempt, in bytes. Keeps the sweep inside small-machine memory.
DENSE_BUDGET_BYTES = 1_500_000_000

MIN_REPS = 20
MIN_WARMUPS = 3
TIMING_BLOCKS = 3


@dataclass
class BenchPoint:
    """One measured grid entry."""

    family: str  # dense | tt
    size_m: int
    size_n: int
    ndim: int  # TT core count; 1 for dense
    rank: int  # max internal rank; 1 for dense
    max_mode: int
    batch: int
    fwd_seconds: float
    bwd_seconds: float
    param_bytes: int
    work_bytes: int

    def as_line(self) -> str:
        return (f"family={self.family} M={self.size_m} N={self.size_n} "
                f"d={self.ndim} r={self.rank} m={self.max_mode} "
                f"batch={self.batch} fwd_s={self.fwd_seconds:.6e} "
                f"bwd_s={self.bwd_seconds:.6e} param_bytes={self.param_bytes} "
                f"work_bytes={self.work_bytes}")


def balanced_modes(total: int, max_mode: int) -> tuple[int, ...]:
    """Factor ``total`` into modes each <= max_mode, greedily largest-first."""
    if total < 1 or max_mode < 2:
        raise ShapeError(f"need total >= 1 and max_mode >= 2, got {total}, {max_mode}")
    if total == 1:
        return (1,)
    modes = []
    rem = total
    while rem > 1:
        for m in range(min(max_mode, rem), 1, -1):
            if rem % m == 0:
                modes.append(m)
                rem //= m
                break
        else:
            raise ShapeError(
                f"{total} has a prime factor above max_mode {max_mode}"
            )
    return tuple(modes)


def _median_time(fn, reps: int, warmups: int) -> float:
    for _ in range(warmups):
        fn()
    times = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    return float(min(np.median(b) for b in np.array_split(times, TIMING_BLOCKS)))


def tt_work_bytes(spec: TTSpec, batch: int) -> int:
    """Peak transient floats held by the forward sweep, in bytes.

    Each step ``(rows, height, width, cols)`` of :meth:`TTSpec.sweep_shapes`,
    in the sweep's own direction, holds its input ``(rows, width, cols)``
    and its output ``(rows, height, cols)`` at once.
    """
    return 8 * max(rows * (height + width) * cols
                   for rows, height, width, cols in spec.sweep_shapes(batch))


def dense_work_bytes(m_dim: int, n_dim: int, batch: int) -> int:
    """Input plus output buffer for a dense matmul."""
    return 8 * batch * (m_dim + n_dim)


def measure_tt(size_m: int, size_n: int, rank: int, max_mode: int, batch: int,
               rng: np.random.Generator, reps: int = MIN_REPS,
               warmups: int = MIN_WARMUPS) -> BenchPoint:
    spec = TTSpec.with_rank(balanced_modes(size_m, max_mode),
                            balanced_modes(size_n, max_mode), rank)
    layer = TTLinear.glorot(spec, rng)
    x = rng.standard_normal((batch, size_n))
    grad = rng.standard_normal((batch, size_m))
    fwd = _median_time(lambda: layer.forward(x), reps, warmups)
    _, cache = layer.forward_cached(x)
    bwd = _median_time(lambda: layer.backward(grad, cache), reps, warmups)
    return BenchPoint("tt", size_m, size_n, spec.ndim, max(spec.ranks),
                      max(max(spec.out_modes), max(spec.in_modes)), batch,
                      fwd, bwd, 8 * spec.param_count(),
                      tt_work_bytes(spec, batch))


def check_dense_budget(size_m: int, size_n: int) -> None:
    """SizeError unless a dense ``size_m x size_n`` weight plus its gradient
    fits in ``DENSE_BUDGET_BYTES``."""
    need = 2 * 8 * size_m * size_n
    if need > DENSE_BUDGET_BYTES:
        raise SizeError(
            f"dense {size_m}x{size_n} needs {need} bytes for weight+grad, "
            f"budget is {DENSE_BUDGET_BYTES}"
        )


def measure_dense(size_m: int, size_n: int, batch: int,
                  rng: np.random.Generator, reps: int = MIN_REPS,
                  warmups: int = MIN_WARMUPS) -> BenchPoint:
    check_dense_budget(size_m, size_n)
    # Weight only; the accounting (not a LinearMap) keeps allocation minimal.
    w = rng.standard_normal((size_m, size_n))
    x = rng.standard_normal((batch, size_n))
    grad = rng.standard_normal((batch, size_m))
    fwd = _median_time(lambda: x @ w.T, reps, warmups)

    def bwd():
        gw = grad.T @ x
        gx = grad @ w
        return gw, gx

    bwd_t = _median_time(bwd, reps, warmups)
    del w
    return BenchPoint("dense", size_m, size_n, 1, 1, max(size_m, size_n),
                      batch, fwd, bwd_t, 8 * size_m * size_n,
                      dense_work_bytes(size_m, size_n, batch))


@functools.cache
def _openblas_threads():
    """``(get, set)`` thread-count calls of numpy's bundled OpenBLAS, or
    None where that library or those symbols are missing."""
    for path in glob.glob(os.path.dirname(np.__file__)
                          + ".libs/libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_ = lib.scipy_openblas_set_num_threads64_
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def sweep_blas_threads() -> str:
    """BLAS threads a sweep runs on: ``"1"``, or ``"unknown"`` where it
    cannot be pinned."""
    return "unknown" if _openblas_threads() is None else "1"


def run_scaling_sweep(family: str, sizes, rank: int = 4, max_mode: int = 16,
                      batch: int = 16, seed: int = 0, reps: int = MIN_REPS,
                      warmups: int = MIN_WARMUPS) -> list[BenchPoint]:
    """One BenchPoint per square size M=N in ``sizes``.

    numpy's bundled OpenBLAS runs on one thread for the sweep and gets its
    old count back after; where it cannot be pinned (see
    :func:`sweep_blas_threads`) the sweep runs as numpy is set up.

    Inputs are deterministic per seed; times are whatever the machine does.
    """
    if family not in ("dense", "tt"):
        raise DataError(f"family must be dense or tt, got {family!r}")
    if reps < MIN_REPS or warmups < MIN_WARMUPS:
        raise DataError(f"need reps >= {MIN_REPS} and warmups >= {MIN_WARMUPS}")
    calls = _openblas_threads()
    if calls is not None:
        threads = calls[0]()
        calls[1](1)
    try:
        points = []
        for size in sizes:
            rng = np.random.default_rng(seed)
            if family == "tt":
                points.append(measure_tt(size, size, rank, max_mode, batch, rng,
                                         reps, warmups))
            else:
                points.append(measure_dense(size, size, batch, rng, reps,
                                            warmups))
        return points
    finally:
        if calls is not None:
            calls[1](threads)


def fit_loglog_slope(pairs):
    """OLS slope of log(time) against log(size).

    ``pairs`` is a sequence of (size, seconds) or of BenchPoints (forward
    time used). Returns ``(slope, residual)`` with residual the RMS of the
    log-space fit errors.
    """
    xs = []
    ys = []
    for p in pairs:
        if isinstance(p, BenchPoint):
            size, t = p.size_m, p.fwd_seconds
        else:
            size, t = p
        if size <= 0 or t <= 0:
            raise DataError(f"sizes and times must be positive, got ({size}, {t})")
        xs.append(np.log(float(size)))
        ys.append(np.log(float(t)))
    if len(xs) < 3:
        raise DataError(f"need at least 3 points, got {len(xs)}")
    x = np.array(xs)
    y = np.array(ys)
    if np.ptp(x) == 0:
        raise DataError("degenerate fit: all sizes equal")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid ** 2)))
