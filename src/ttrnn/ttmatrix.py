"""Tensor-train representation of a weight matrix.

A matrix ``W`` of shape ``M x N`` with factorizations ``M = m_1 * ... * m_d``
and ``N = n_1 * ... * n_d`` is stored as ``d`` cores ``G_k`` of shape
``(m_k, n_k, r_{k-1}, r_k)`` with boundary ranks ``r_0 = r_d = 1``. The entry
at 0-based position ``(i, j)`` is the product of the ``(r_{k-1}, r_k)`` core
slices picked out by the row-major multi-indices of ``i`` and ``j`` (the last
index varies fastest, as in ``np.unravel_index`` and a C-order reshape; every
TT reshape in this package relies on this one convention):

    W[i, j] = G_1[i_1, j_1] @ G_2[i_2, j_2] @ ... @ G_d[i_d, j_d]

Storage is ``sum_k m_k n_k r_{k-1} r_k`` floats instead of ``M * N``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SizeError

# Largest dense materialization to_dense() will perform without force=True.
DENSE_CAP = 1 << 24


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


@dataclass(frozen=True)
class TTSpec:
    """Shape contract for a TT matrix: mode factorizations plus ranks.

    ``ranks`` is the full rank vector of length ``d + 1`` including the
    boundary ones, so core ``k`` (0-based) has shape
    ``(out_modes[k], in_modes[k], ranks[k], ranks[k + 1])``.
    """

    out_modes: tuple[int, ...]
    in_modes: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "out_modes", check_dims(self.out_modes))
        object.__setattr__(self, "in_modes", check_dims(self.in_modes))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.in_modes) != len(self.out_modes):
            raise ShapeError(
                f"mode lists differ in length: out {self.out_modes}, in {self.in_modes}"
            )
        if len(self.ranks) != self.ndim + 1:
            raise ShapeError(
                f"rank vector must have length d+1={self.ndim + 1}, got {self.ranks}"
            )
        if any(r < 1 for r in self.ranks):
            raise ShapeError(f"ranks must be >= 1, got {self.ranks}")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ShapeError(f"boundary ranks must be 1, got {self.ranks}")

    @classmethod
    def with_rank(cls, out_modes, in_modes, rank: int) -> "TTSpec":
        """Spec with every internal rank set to the same value."""
        d = len(tuple(out_modes))
        if d < 1:
            raise ShapeError("mode lists must be non-empty")
        ranks = (1,) + (int(rank),) * (d - 1) + (1,)
        return cls(tuple(out_modes), tuple(in_modes), ranks)

    @property
    def ndim(self) -> int:
        return len(self.out_modes)

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_modes)

    @property
    def in_dim(self) -> int:
        return math.prod(self.in_modes)

    def core_shape(self, k: int) -> tuple[int, int, int, int]:
        return (self.out_modes[k], self.in_modes[k], self.ranks[k], self.ranks[k + 1])

    def param_count(self) -> int:
        """Floats stored by the TT format."""
        return sum(math.prod(self.core_shape(k)) for k in range(self.ndim))

    def dense_param_count(self) -> int:
        """Floats a plain dense matrix of the same shape would store."""
        return self.out_dim * self.in_dim

    @functools.cached_property
    def right_to_left(self) -> bool:
        """The sweep direction: right to left iff that costs fewer flops per
        row than left to right (ties, square maps among them, stay left to
        right). The cores are the same either way; only the order in which
        the sweep contracts them changes."""
        def cost(rtl):
            return sum(math.prod(s) for s in self._schedule(1, rtl))
        return cost(True) < cost(False)

    def _core_order(self, rtl: bool) -> range:
        return range(self.ndim - 1, -1, -1) if rtl else range(self.ndim)

    def _schedule(self, batch: int, rtl: bool) -> list[tuple[int, int, int, int]]:
        shapes = []
        for k in self._core_order(rtl):
            m, n, r_prev, r_next = self.core_shape(k)
            if rtl:
                shapes.append((batch * math.prod(self.in_modes[:k]), r_prev * m,
                               n * r_next, math.prod(self.out_modes[k + 1:])))
            else:
                shapes.append((batch * math.prod(self.out_modes[:k]), m * r_next,
                               r_prev * n, math.prod(self.in_modes[k + 1:])))
        return shapes

    def sweep_order(self) -> range:
        """The core indices in the order the sweep takes them."""
        return self._core_order(self.right_to_left)

    def sweep_shapes(self, batch: int) -> list[tuple[int, int, int, int]]:
        """The core sweep's schedule on ``batch`` input rows, one entry
        ``(rows, height, width, cols)`` per step in sweep order: the step
        multiplies its core, as a ``(height, width)`` matrix, into a stack of
        ``rows`` blocks ``(width, cols)`` and yields blocks
        ``(height, cols)``.

        Left to right, step k (core k) is ``(B P_k, m_k r_k, r_{k-1} n_k,
        Q_k)``, where ``P_k`` is the product of the output modes before core
        k and ``Q_k`` that of the input modes after it. Right to left, the
        mirror image, step k (core k, from k = d down to 1) is
        ``(B n_1...n_{k-1}, r_{k-1} m_k, n_k r_k, m_{k+1}...m_d)``. Either
        way the step's output, read in C order, is the next step's input.
        :attr:`right_to_left` picks the direction.
        """
        return self._schedule(batch, self.right_to_left)

    def flops_per_row(self) -> int:
        """Multiply-adds (counted as 2 flops) of the forward core sweep per
        input row: ``2 * rows * height * width * cols`` summed over
        :meth:`sweep_shapes`, so the cost of the direction the sweep
        takes."""
        return sum(2 * math.prod(s) for s in self.sweep_shapes(1))


class TTMatrix:
    """A concrete TT matrix: a :class:`TTSpec` plus its core arrays."""

    def __init__(self, spec: TTSpec, cores):
        cores = [np.ascontiguousarray(g, dtype=np.float64) for g in cores]
        if len(cores) != spec.ndim:
            raise ShapeError(f"expected {spec.ndim} cores, got {len(cores)}")
        for k, g in enumerate(cores):
            if g.shape != spec.core_shape(k):
                raise ShapeError(
                    f"core {k} has shape {g.shape}, spec requires {spec.core_shape(k)}"
                )
        self.spec = spec
        self.cores = cores

    @property
    def shape(self) -> tuple[int, int]:
        return (self.spec.out_dim, self.spec.in_dim)

    @classmethod
    def glorot(cls, spec: TTSpec, rng: np.random.Generator) -> "TTMatrix":
        """Random init matched to the gain of dense Glorot on the full matrix.

        Core ``k`` is drawn from Normal(0, sigma_k^2) with
        ``sigma_k = sqrt(2 / (n_k r_k + m_k r_{k-1}))``. For d=1 this is
        exactly dense Glorot, so dense layers reuse it.
        """
        cores = []
        for k in range(spec.ndim):
            m, n, r_prev, r_next = spec.core_shape(k)
            sigma = math.sqrt(2.0 / (n * r_next + m * r_prev))
            cores.append(rng.normal(0.0, sigma, size=(m, n, r_prev, r_next)))
        return cls(spec, cores)

    def to_dense(self, force: bool = False) -> np.ndarray:
        """Materialize the full ``M x N`` matrix.

        Refuses when ``M * N`` exceeds ``DENSE_CAP`` unless ``force`` is set,
        because accidental materialization defeats the format.
        """
        m_dim, n_dim = self.shape
        if m_dim * n_dim > DENSE_CAP and not force:
            raise SizeError(
                f"dense materialization of {m_dim}x{n_dim} exceeds cap {DENSE_CAP}"
            )
        # Contract cores left to right; acc is (rows so far, columns so far,
        # r_k). Plain einsum (no optimize) writes straight into its output,
        # so the last step writes W once, row-major.
        acc = self.cores[0][:, :, 0, :]
        for g in self.cores[1:]:
            rows, cols = acc.shape[0] * g.shape[0], acc.shape[1] * g.shape[1]
            acc = np.einsum("abr,mnrs->ambns", acc, g).reshape(rows, cols, -1)
        return acc.reshape(m_dim, n_dim)

