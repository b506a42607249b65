"""Affine maps with interchangeable dense and tensor-train weight storage.

Both variants expose the same contract:

* ``forward_cached(x) -> (y, cache)``, and ``forward(x)``, its ``y`` alone,
* ``backward(grad_out, cache) -> grad_x``, which also accumulates parameter
  gradients into the layer's ``grads()`` arrays.

Caches are explicit values rather than hidden layer state so a recurrent
unroll can apply one layer at many timesteps and replay the caches in
reverse order during backpropagation.

A :class:`TTLinear` never materializes the full matrix. With ``x`` of shape
``(B, N)`` it sweeps the cores one at a time, in the direction with fewer
flops per row (:attr:`TTSpec.right_to_left`, read off the spec alone; ties,
square maps among them, go left to right). Left to right it carries a
batched tensor ``z`` of shape ``(B * P_k, r_{k-1} * n_k, Q_k)`` where
``P_k`` is the product of output modes already consumed and ``Q_k`` the
product of input modes not yet consumed, and multiplies it by core k as an
``(m_k * r_k, r_{k-1} * n_k)`` matrix. Right to left is the mirror image:
from core d down to core 1 it carries ``(B * n_1...n_{k-1}, n_k * r_k,
m_{k+1}...m_d)`` and multiplies by core k as an ``(r_{k-1} * m_k, n_k *
r_k)`` matrix. Either way each step is one batched matmul, except where
blocks have one column (``Q_k = 1``; the last step left to right, the first
right to left): there the stack of matvecs runs as one 2-D GEMM, and the
backward pass takes the same step as 2-D GEMMs on ``(rows, height)`` and
``(rows, width)`` views. Every regrouping between steps is a plain C-order
reshape, which is what makes the row-major index convention load bearing.
:meth:`TTSpec.sweep_shapes` holds this schedule, and the forward and
backward passes read their shapes from it. Cost is O(d r^2 m max(M, N)) per
sample instead of O(M N).

The backward pass replays the same chain in reverse with the cached ``z``
inputs, so parameter and input gradients are exact (they are the analytic
derivatives of the contraction, not an approximation). The direction
changes only the order of the contraction, so outputs move at rounding
level, and the cores keep their ``(m, n, r_prev, r_next)`` layout.

Each :class:`TTLinear` owns one workspace for the sweep's step outputs: a
flat array that lives as long as the map, grows and never shrinks. It holds
slots; slot t has one region per step but the last, of that step's output
size in :meth:`TTSpec.sweep_shapes`. A :class:`SweepView` is a lease of T
slots at batch B: it sizes the workspace and computes the schedule and the
core matrices once, for all of its sweeps. ``forward_cached(x, lease)``
sweeps into the lease's next slot; a bare ``forward_cached(x)`` (and so
``forward``) sweeps into a fresh one-slot lease at ``x``'s batch. A cache
is ``(z_inputs, lease)``, its step inputs views into the workspace.

Every view of a map, a lease or a dense build, starts a new generation of
the map, and a cache is valid until the next one: ``backward`` raises
:class:`ShapeError` on a cache from an older generation. Nothing a pass
returns is a workspace view. Multi-MB fresh step outputs would be page
faulted in on every call, a cost that grows faster than the map.

A recurrent unroll applies each cell map T times to the same weights, so
for small maps it pays to build the matrix once. :func:`execution_plan`
picks, per TT map and from its :class:`TTSpec` alone, one of two plans:

* **sweep**: a :class:`SweepView` of T slots at the unroll's batch, whose
  t-th sweep runs into slot t (for inference, the map itself, each sweep
  into its own one-slot lease);
* **dense**: a :class:`DenseView`, which builds ``W.T`` from the cores by
  the GEMM chain :func:`~ttrnn.ttmatrix.wt_chain`, then costs one matmul
  per step, accumulates ``dW.T`` over the steps and projects it onto the
  core gradients by running the chain backwards in :meth:`DenseView.flush`.
  It runs no sweep of the map.

Both views record the generation they started, and
:meth:`LeasedView.check_current` tells whether it still holds.

Both plans are exact: they contract the same cores in different orders,
so they differ only in rounding. The sweep is the chain's independent
check: over the test specs (d = 1 to 4) the chain's ``W.T`` was within
4.2e-16 of a sweep on the identity, and its core gradients within 2.4e-15
of a backward sweep on the identity, each relative to the array's largest
entry. :func:`takes_dense_plan` holds the rule.

Every owner of trainable arrays (map, cell, model) is a :class:`Params`
and lists its parts once, in ``parts()``: ``weight[, bias]`` for a
:class:`DenseLinear`, ``core0..core{d-1}`` for a :class:`TTLinear`.
Its ``params()``/``grads()`` keys derive from that list. Cells and models
are :class:`Composite`, whose parts also hold maps; their maps and bare
arrays derive from the same list.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .ttmatrix import TTMatrix, TTSpec, wt_chain


def _check_batch(x, dim: int, what: str) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what} must have shape (B, {dim}), got {x.shape}")
    return x


def _check_bias(bias, out_dim: int, what: str = "bias") -> np.ndarray:
    bias = np.ascontiguousarray(bias, dtype=np.float64)
    if bias.shape != (out_dim,):
        raise ShapeError(f"{what} must have shape ({out_dim},), got {bias.shape}")
    return bias


def _prefixed(prefix: str, d: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in d.items()}


class Params:
    """An owner of trainable arrays, assembled from the ordered
    ``(name, part)`` list of ``parts()``.

    A part is an ``(array, grad)`` pair the owner holds itself (a map's
    weight, cores or bias; a cell's bias) or, in a :class:`Composite`, a
    :class:`LinearMap` or nested composite. ``params()`` and ``grads()`` map
    the same keys, in part order, to each array and its gradient; a nested
    owner's keys are dotted under its part name. That order is the one
    optimizers, checkpoints and reports see.
    """

    def parts(self) -> list:
        raise NotImplementedError

    def _flat(self, grads: bool) -> dict:
        out = {}
        for name, part in self.parts():
            if isinstance(part, tuple):
                out[name] = part[1] if grads else part[0]
            else:
                out.update(_prefixed(name, part._flat(grads)))
        return out

    def params(self) -> dict:
        return self._flat(grads=False)

    def grads(self) -> dict:
        return self._flat(grads=True)

    def zero_grads(self):
        for g in self.grads().values():
            g[...] = 0.0

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())


class LinearMap(Params):
    """Shared interface; see module docstring for the contract."""

    in_dim: int
    out_dim: int
    bias = None  # a DenseLinear's own; a TT map has none, its cell owns it

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        raise NotImplementedError

    def backward(self, grad_out, cache):
        raise NotImplementedError


class Composite(Params):
    """An owner whose parts may be maps and nested composites (a cell, a
    model); it adds the lists of those maps and of its bare arrays."""

    def _leaves(self, kind) -> dict:
        out = {}
        for name, part in self.parts():
            if isinstance(part, Composite):
                out.update(_prefixed(name, part._leaves(kind)))
            elif isinstance(part, kind):
                out[name] = part
        return out

    def named_maps(self) -> dict:
        """Every linear map inside, under its ``params()`` prefix."""
        return self._leaves(LinearMap)

    def named_arrays(self) -> dict:
        """Every bare parameter array inside (the biases cells own)."""
        return {name: pair[0] for name, pair in self._leaves(tuple).items()}


class DenseLinear(LinearMap):
    """y = x @ W.T (+ b) with an explicitly stored matrix."""

    def __init__(self, weight, bias=None):
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {self.weight.shape}")
        self.out_dim, self.in_dim = self.weight.shape
        self.bias = None if bias is None else _check_bias(bias, self.out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = None if self.bias is None else np.zeros_like(self.bias)

    @classmethod
    def glorot(cls, out_dim: int, in_dim: int, rng: np.random.Generator,
               bias: bool = True) -> "DenseLinear":
        """Glorot-normal weights; the d=1 case of the TT core init."""
        sigma = np.sqrt(2.0 / (in_dim + out_dim))
        w = rng.normal(0.0, sigma, size=(out_dim, in_dim))
        return cls(w, np.zeros(out_dim) if bias else None)

    def forward_cached(self, x):
        x = _check_batch(x, self.in_dim, "input")
        y = x @ self.weight.T
        if self.bias is not None:
            y += self.bias
        return y, x

    def backward(self, grad_out, cache):
        grad_out = _check_batch(grad_out, self.out_dim, "grad_out")
        x = cache
        self.grad_weight += grad_out.T @ x
        if self.grad_bias is not None:
            self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight

    def parts(self):
        parts = [("weight", (self.weight, self.grad_weight))]
        if self.bias is not None:
            parts.append(("bias", (self.bias, self.grad_bias)))
        return parts


# By direction (TTSpec.right_to_left): the core (m, n, r_prev, r_next) axes
# in the order its sweep-step matrix enumerates them, rows then columns, and
# the permutation back. Left to right the matrix is (m_k r_k, r_{k-1} n_k),
# right to left (r_{k-1} m_k, n_k r_k).
_MATRIX_AXES = {False: ((0, 3, 2, 1), (0, 3, 2, 1)),
                True: ((2, 0, 1, 3), (1, 2, 0, 3))}


class TTLinear(LinearMap):
    """y = x @ W.T with W held in TT format; its own passes never
    materialize W (a :class:`DenseView` does, from its cores)."""

    def __init__(self, tt: TTMatrix):
        self.tt = tt
        self.out_dim, self.in_dim = tt.shape
        self.grad_cores = [np.zeros_like(g) for g in tt.cores]
        self.workspace = np.empty(0)  # the step outputs of leased sweeps
        # Bumped by every LeasedView. The map holds no view: a map <-> view
        # cycle would keep discarded maps' workspaces until the cyclic GC.
        self._generation = 0

    @classmethod
    def glorot(cls, spec: TTSpec, rng: np.random.Generator) -> "TTLinear":
        return cls(TTMatrix.glorot(spec, rng))

    def _core_matrices(self):
        # Each step's core as its (height, width) matrix, in sweep order.
        spec = self.tt.spec
        axes = _MATRIX_AXES[spec.right_to_left][0]
        mats = []
        for k in spec.sweep_order():
            g = self.tt.cores[k]
            rows = g.shape[axes[0]] * g.shape[axes[1]]
            mats.append(np.ascontiguousarray(g.transpose(axes).reshape(rows, -1)))
        return mats

    def _sweep(self, x, mats, shapes, outs):
        """The core sweep on checked ``x`` over the schedule ``shapes``:
        returns ``(y, z_inputs)``, the output and each step's input. Every
        step but the last writes into ``outs``, a workspace slot from
        :meth:`SweepView._take`; the last (``None`` there) returns a fresh
        array."""
        z = x
        z_inputs = []
        for mat, (rows, _, width, cols), out in zip(mats, shapes, outs):
            z = z.reshape(rows, width, cols)
            z_inputs.append(z)
            if cols == 1:
                # One column per block: the stack of matvecs is one 2-D GEMM.
                z = np.matmul(z[:, :, 0], mat.T,
                              out=None if out is None else out[:, :, 0])
            else:
                z = np.matmul(mat, z, out=out)
        return z.reshape(x.shape[0], self.out_dim), z_inputs

    def forward_cached(self, x, lease=None):
        """``(y, cache)``. The steps write into the next slot of ``lease``, a
        :class:`SweepView` of this map, and the cache holds views of it: it
        goes stale when the map's next view starts. Without ``lease`` the
        call sweeps into a fresh one-slot lease at ``x``'s batch. ``y`` is a
        fresh array; do not call one layer from two threads at once."""
        x = _check_batch(x, self.in_dim, "input")
        if lease is None:
            lease = SweepView(self, 1, x.shape[0])
        y, z_inputs = self._sweep(x, lease.mats, lease.shapes, lease._take(x.shape[0]))
        return y, (z_inputs, lease)

    def backward(self, grad_out, cache):
        grad_out = _check_batch(grad_out, self.out_dim, "grad_out")
        spec = self.tt.spec
        z_inputs, lease = cache
        if grad_out.shape[0] != lease.batch:
            raise ShapeError(f"grad_out batch {grad_out.shape[0]} does not match "
                             f"cached batch {lease.batch}")
        lease.check_current()
        axes, back = _MATRIX_AXES[spec.right_to_left]
        dz = grad_out
        for step, k in reversed(list(enumerate(spec.sweep_order()))):
            # Gradient wrt the step's output, shaped like that output.
            rows, height, _, cols = lease.shapes[step]
            mat = lease.mats[step]
            core_shape = spec.core_shape(k)
            if cols == 1:
                dout = dz.reshape(rows, height)
                dmat = dout.T @ z_inputs[step][:, :, 0]
                dz = dout @ mat
            else:
                dout = dz.reshape(rows, height, cols)
                dmat = np.tensordot(dout, z_inputs[step], axes=((0, 2), (0, 2)))
                dz = np.matmul(mat.T, dout)
            dmat = dmat.reshape([core_shape[a] for a in axes])
            self.grad_cores[k] += dmat.transpose(back)
        return dz.reshape(lease.batch, self.in_dim)

    def parts(self):
        pairs = enumerate(zip(self.tt.cores, self.grad_cores))
        return [(f"core{k}", pair) for k, pair in pairs]


# Largest M * N the dense plan will hold (512 KiB of float64 for W.T and as
# much again for its gradient).
DENSE_PLAN_CAP = 1 << 16


def takes_dense_plan(spec: TTSpec) -> bool:
    """The execution-plan rule: dense iff ``M * N <= DENSE_PLAN_CAP`` and
    ``M * N <= spec.flops_per_row()``.

    Per row the dense plan's matmul costs ``2 M N`` flops and the sweep
    ``F = flops_per_row()``, in the sweep's own direction, so the rule
    admits dense plans of up to twice the sweep's flops. Maps that small are bound by per-call overhead (d
    batched matmuls and their reshapes against one matmul), and the cap
    keeps ``W.T`` and its gradient small; large maps keep the sweep.
    """
    size = spec.dense_param_count()
    return size <= DENSE_PLAN_CAP and size <= spec.flops_per_row()


class LeasedView:
    """A TT map as one unroll (or one bare call) runs it: a lease of its
    workspace, whose views a sweep plan's caches hold, or a dense plan's
    build. Making one starts a new generation of the map, which makes the
    caches of every earlier view stale."""

    def __init__(self, layer: TTLinear):
        layer._generation += 1
        self.layer = layer
        self.generation = layer._generation

    def check_current(self):
        """Raise :class:`ShapeError` if the map started a new generation
        since."""
        if self.layer._generation != self.generation:
            raise ShapeError("stale cache: a later unroll or forward of its TT "
                             "map has started a new generation since")


class DenseView(LeasedView):
    """A :class:`TTLinear` materialized for one unroll.

    ``forward_cached``/``backward`` follow the :class:`LinearMap` contract,
    except that parameter gradients collect in ``grad_wt`` (``dW.T``, None
    before the first ``backward``) until :meth:`flush` hands them to the
    layer's core gradients.

    ``W.T`` and the left partial products ``L_k`` come from
    :func:`~ttrnn.ttmatrix.wt_chain` (not ``to_dense``, whose cap is not the
    plan's). :meth:`flush` runs the chain backwards: the gradient of ``L_k``
    is ``dW.T`` times the right partial product of the cores after k, and
    core k's gradient is ``L_{k-1}.T`` times that (per core one transpose
    copy and two GEMMs).
    """

    def __init__(self, layer: TTLinear):
        super().__init__(layer)
        self.wt, self._lefts = wt_chain(layer.tt.cores)
        self.grad_wt = None  # until a backward call; inference makes none

    def forward_cached(self, x):
        return x @ self.wt, x

    def backward(self, grad_out, cache):
        grad_wt = cache.T @ grad_out
        if self.grad_wt is None:
            self.grad_wt = grad_wt
        else:
            self.grad_wt += grad_wt
        return grad_out @ self.wt.T

    def flush(self):
        """Add the accumulated gradient to the layer's core gradients, back
        through the chain on the cores, which must be those of the build
        (an unroll leaves them unchanged), and start again from zero."""
        if self.grad_wt is None:
            return
        spec = self.layer.tt.spec
        dleft = self.grad_wt
        for k in reversed(range(spec.ndim)):
            # (n_1..n_k, m_1..m_k): the rows and columns of L_k as W.T.
            rows, cols = math.prod(spec.in_modes[:k]), math.prod(spec.out_modes[:k])
            m, n, r_prev, r_next = spec.core_shape(k)
            dprod = dleft.reshape(rows, n, cols, m * r_next).transpose(0, 2, 1, 3)
            dprod = dprod.reshape(rows * cols, -1)
            dmat = self._lefts[k].T @ dprod
            self.layer.grad_cores[k] += (
                dmat.reshape(r_prev, n, m, r_next).transpose(2, 1, 0, 3))
            if k:
                mat = self.layer.tt.cores[k].transpose(2, 1, 0, 3).reshape(r_prev, -1)
                dleft = dprod @ mat.T
        self.grad_wt = None


class SweepView(LeasedView):
    """A sweep-plan :class:`TTLinear` leased for ``slots`` sweeps at
    ``batch`` rows. Making it sizes the map's workspace for them and
    computes the schedule ``shapes`` and the core matrices ``mats`` that
    they share; the t-th ``forward_cached`` runs the map's sweep into
    workspace slot t, and ``backward`` is the map's."""

    def __init__(self, layer: TTLinear, slots: int, batch: int):
        super().__init__(layer)
        self.slots, self.batch = slots, batch
        self.shapes = layer.tt.spec.sweep_shapes(batch)
        self.mats = layer._core_matrices()
        # Floats per slot: the outputs of every step but the last.
        self._size = sum(n * height * cols for n, height, _, cols in self.shapes[:-1])
        if layer.workspace.size < slots * self._size:
            layer.workspace = np.empty(slots * self._size)
        self._next = 0

    def _take(self, rows: int) -> list:
        """The next slot's step outputs for a sweep of ``rows`` rows: views
        into the workspace for every step but the last, None for the
        last."""
        self.check_current()
        if self._next >= self.slots or rows != self.batch:
            raise ShapeError(f"sweep {self._next + 1} at batch {rows} is outside "
                             f"the lease of {self.slots} sweeps at batch {self.batch}")
        start = self._next * self._size
        self._next += 1
        outs = []
        for n, height, _, cols in self.shapes[:-1]:
            size = n * height * cols
            outs.append(self.layer.workspace[start:start + size].reshape(n, height, cols))
            start += size
        return outs + [None]

    def forward_cached(self, x):
        return self.layer.forward_cached(x, self)

    def backward(self, grad_out, cache):
        return self.layer.backward(grad_out, cache)


def execution_plan(maps: dict, steps: int, batch: int, cached: bool) -> dict:
    """``maps`` as one unroll of ``steps`` steps at ``batch`` rows runs them:
    each TT map the rule picks becomes a fresh :class:`DenseView`, each other
    TT map a :class:`SweepView`, unless ``cached=False`` (inference), where
    it stands for itself as every other map does."""
    plan = {}
    for name, m in maps.items():
        if not isinstance(m, TTLinear):
            plan[name] = m
        elif takes_dense_plan(m.tt.spec):
            plan[name] = DenseView(m)
        else:
            plan[name] = SweepView(m, steps, batch) if cached else m
    return plan
