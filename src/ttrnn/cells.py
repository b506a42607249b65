"""Recurrent cells over interchangeable dense/TT affine maps, plus the
sequence unroll and its exact backward pass.

Cells own one shared bias vector per gate; the affine maps inside a cell are
biasless so a gate's bias is not stored twice (a TT map and a dense map then
count parameters on equal footing). Hidden activations are tanh, gates are
logistic sigmoid, and the initial hidden state is zero.

A cell's ``_step``/``_step_backward`` are its bare gate equations; ``Cell.step``
is one unmasked step. The gate math writes in place into the arrays the
maps return, because a map's output is always a fresh array (never its
input, cache, weights or workspace); each operation keeps its operands and
order, so the results have the same bits as out-of-place math. Padding is
handled once, by :func:`unroll` and :func:`bptt`, from a per-step {0,1}
mask: a masked-out step leaves the hidden state untouched and contributes
nothing to any gradient, so batches of unequal-length sequences train
exactly as if each sequence were processed alone.

The step at t = 0 runs from the zero initial state, which the loop passes
as ``h_prev = None``, and skips the work that state makes exact zeros, in
the forward and the backward pass: an SRNN runs no ``wh``, and a GRU runs
no ``wh*`` map and no reset gate (``wxr``), since ``r_0 * h_0 = 0``. Those
maps' outputs and weight gradients are zeros, and the state's own gradient
is never used, so ``h_seq`` and every gradient equal the full step's up to
the sign of exact zeros. The maps skipped run T - 1 times per unroll.

A cell lists its parts once, in ``parts()`` (SRNN: ``wx, wh, bias``; GRU:
``wx{g}, wh{g}, bias_{g}`` per gate); :class:`ttrnn.linear.Composite` derives
``params()``, ``grads()``, ``named_maps()`` and ``named_arrays()`` from it.

A step reads its maps from a dict keyed like ``named_maps()``. ``Cell.step``
passes the cell's own maps; :func:`unroll` passes the execution plan of
:func:`ttrnn.linear.execution_plan`, in which small TT maps are dense views
built once for the whole sequence, and :func:`bptt` flushes those views'
accumulated gradients into the cores when it is done.

Training and inference run one step loop, ``_unroll``, and differ only in
its ``cached`` switch. :func:`unroll` (training) keeps every step's cache
for :func:`bptt`. Every view of a TT map, a sweep plan's lease or a dense
plan's build, starts a new generation of the map, and a cache is valid
until the next one: :func:`bptt` on the caches of an older unroll, after
a later unroll of the cell or a ``forward`` of one of its TT maps, raises
:class:`ShapeError` before it touches any gradient, while running it twice
on the current caches is fine. Inference (the models' ``forward``) keeps
no cache: each step of a sweep-plan TT map sweeps into its own one-slot
lease, slot 0 of the map's workspace, and every step cache is dropped when
the next step's arrives.

An unroll allocates the arrays that outlive a step once: ``h_seq``, into
which each step writes ``h_t`` (unmasked) or the blended state (masked),
and one block of shape ``(T, len(cell.KEPT), B, H)`` whose row t takes the
cell's kept arrays of step t (the GRU's ``z``, ``c``, ``r`` and ``s``; the
SRNN keeps none). Each goes there through the ``out=`` of the operation
that makes it, so no copy is added and the bits are those of fresh arrays.
The caches then hold views of ``h_seq``, the block, the input and the TT
workspaces, and a train step allocates no array that outlives it, so the
allocator is not left to return and fault in again megabytes of step
arrays on every step. Inference shares one row of the block over all steps.
``Cell.step`` gives its one step fresh arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .linear import (Composite, DenseView, LeasedView, LinearMap, _check_batch,
                     _check_bias, execution_plan)


def sigmoid(x):
    # The tanh identity is exact and bounded, so nothing can overflow.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _sigmoid_into(a, out):
    """:func:`sigmoid` of the float array ``a``, written into ``out`` (which
    may be ``a``) and returned; the same operations in the same order, so
    the same bits."""
    np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Cell(Composite):
    """Interface shared by the recurrent cells."""

    kind: str  # "srnn" or "gru", as configs and reports name it
    input_dim: int
    hidden_dim: int
    KEPT = ()  # the (B, H) arrays a step's cache keeps besides h_t and h_prev

    def step(self, x_t, h_prev):
        """One unmasked timestep: returns ``(h_t, cache)``."""
        x_t = _check_batch(x_t, self.input_dim, "x_t")
        h_prev = _check_batch(h_prev, self.hidden_dim, "h_prev")
        kept = np.empty((len(self.KEPT),) + h_prev.shape)
        return self._step(self.named_maps(), x_t, h_prev, None, kept)

    def _step(self, maps, x_t, h_prev, h_out, kept):
        """The gate equations on checked (B, D) and (B, H) arrays. ``h_prev``
        None is the zero initial state: the step then skips every hidden map
        and whatever else only multiplies the state, whose results are exact
        zeros. ``h_t`` is written into ``h_out`` (a fresh array when None),
        and the arrays named in ``KEPT`` into the rows of ``kept``, a
        ``(len(KEPT), B, H)`` array."""
        raise NotImplementedError

    def _step_backward(self, maps, grad_h, cache):
        """Backward through one step: returns ``(grad_x_t, grad_h_prev)``
        and accumulates parameter gradients. After a step from the zero
        state ``grad_h_prev`` is None: the skipped maps' weight gradients
        are zero, and no parameter takes the state's gradient."""
        raise NotImplementedError


class SRNNCell(Cell):
    """h_t = tanh(W_xh x_t + W_hh h_{t-1} + b)."""

    kind = "srnn"

    def __init__(self, wx: LinearMap, wh: LinearMap, bias):
        if wx.out_dim != wh.out_dim or wh.in_dim != wh.out_dim:
            raise ShapeError(
                f"map dims disagree: wx {wx.out_dim}, wh {wh.in_dim}->{wh.out_dim}"
            )
        if wx.bias is not None or wh.bias is not None:
            raise ShapeError("cell maps must be biasless; the cell owns the gate bias")
        self.wx = wx
        self.wh = wh
        self.input_dim = wx.in_dim
        self.hidden_dim = wx.out_dim
        self.bias = _check_bias(bias, self.hidden_dim)
        self.grad_bias = np.zeros_like(self.bias)

    def _step(self, maps, x_t, h_prev, h_out, kept):
        a, cx = maps["wx"].forward_cached(x_t)
        ch = None
        if h_prev is not None:
            ah, ch = maps["wh"].forward_cached(h_prev)
            a += ah
        a += self.bias
        h_t = np.tanh(a, out=h_out)
        return h_t, (cx, ch, h_t)

    def _step_backward(self, maps, grad_h, cache):
        cx, ch, h_t = cache
        da = h_t * h_t
        np.subtract(1.0, da, out=da)
        da *= grad_h
        self.grad_bias += da.sum(axis=0)
        grad_x = maps["wx"].backward(da, cx)
        grad_h_prev = None if ch is None else maps["wh"].backward(da, ch)
        return grad_x, grad_h_prev

    def parts(self):
        return [("wx", self.wx), ("wh", self.wh),
                ("bias", (self.bias, self.grad_bias))]


class GRUCell(Cell):
    """Gated cell with the reset gate applied before the hidden-to-hidden map.

    r_t = sig(W_xr x_t + W_hr h_{t-1} + b_r)
    z_t = sig(W_xz x_t + W_hz h_{t-1} + b_z)
    c_t = tanh(W_xh x_t + W_hh (r_t * h_{t-1}) + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t
    """

    kind = "gru"
    GATES = ("r", "z", "h")
    KEPT = ("z", "c", "r", "s")

    def __init__(self, wx: dict, wh: dict, biases: dict):
        for group, maps in (("wx", wx), ("wh", wh)):
            if set(maps) != set(self.GATES):
                raise ShapeError(f"{group} must have exactly gates {self.GATES}")
        self.wx = wx
        self.wh = wh
        self.input_dim = wx["h"].in_dim
        self.hidden_dim = wx["h"].out_dim
        for g in self.GATES:
            if wx[g].in_dim != self.input_dim or wx[g].out_dim != self.hidden_dim:
                raise ShapeError(f"wx[{g}] dims disagree with wx[h]")
            if wh[g].in_dim != self.hidden_dim or wh[g].out_dim != self.hidden_dim:
                raise ShapeError(f"wh[{g}] must map hidden to hidden")
            if wx[g].bias is not None or wh[g].bias is not None:
                raise ShapeError("cell maps must be biasless; the cell owns gate biases")
        if set(biases) != set(self.GATES):
            raise ShapeError(f"biases must have exactly gates {self.GATES}")
        self.bias = {g: _check_bias(biases[g], self.hidden_dim, f"bias[{g}]")
                     for g in self.GATES}
        self.grad_bias = {g: np.zeros_like(b) for g, b in self.bias.items()}

    def _step(self, maps, x_t, h_prev, h_out, kept):
        # In place in the maps' fresh outputs until a gate's value is made:
        # z, c, r and s go into their rows of kept.
        z, c, r, s = kept
        az, cxz = maps["wxz"].forward_cached(x_t)
        ac, cxh = maps["wxh"].forward_cached(x_t)
        if h_prev is None:
            # From the zero state every hidden map gives 0, and so does
            # r_t * h_prev whatever r_t is: no reset gate, and h_t = z_t * c_t.
            az += self.bias["z"]
            _sigmoid_into(az, z)
            ac += self.bias["h"]
            np.tanh(ac, out=c)
            return np.multiply(z, c, out=h_out), (cxz, cxh, z, c, None)
        ar, cxr = maps["wxr"].forward_cached(x_t)
        br, chr_ = maps["whr"].forward_cached(h_prev)
        ar += br
        ar += self.bias["r"]
        _sigmoid_into(ar, r)
        bz, chz = maps["whz"].forward_cached(h_prev)
        az += bz
        az += self.bias["z"]
        _sigmoid_into(az, z)
        np.multiply(r, h_prev, out=s)
        bc, chh = maps["whh"].forward_cached(s)
        ac += bc
        ac += self.bias["h"]
        np.tanh(ac, out=c)
        h_t = np.subtract(1.0, z, out=h_out)
        h_t *= h_prev
        h_t += np.multiply(z, c, out=bz)
        return h_t, (cxz, cxh, z, c, (cxr, chr_, chz, chh, r, h_prev))

    def _step_backward(self, maps, grad_h, cache):
        # In place on fresh arrays only: never on grad_h, which the caller
        # may still read, nor on the cached z, c, r and h_prev.
        cxz, cxh, z, c, hidden = cache
        h_prev = 0.0 if hidden is None else hidden[-1]
        dz = np.subtract(c, h_prev)
        dz *= grad_h
        dc = np.multiply(grad_h, z)
        # Candidate branch (tanh).
        dac = np.multiply(c, c)
        np.subtract(1.0, dac, out=dac)
        dac *= dc
        self.grad_bias["h"] += dac.sum(axis=0)
        grad_x = maps["wxh"].backward(dac, cxh)
        # Update gate (sigmoid).
        daz = dz
        daz *= z
        one_minus_z = np.subtract(1.0, z, out=dc)
        daz *= one_minus_z
        self.grad_bias["z"] += daz.sum(axis=0)
        grad_x += maps["wxz"].backward(daz, cxz)
        if hidden is None:
            return grad_x, None
        cxr, chr_, chz, chh, r, _ = hidden
        dh_prev = one_minus_z
        dh_prev *= grad_h
        ds = maps["whh"].backward(dac, chh)
        dr = np.multiply(ds, h_prev, out=dac)
        ds *= r
        dh_prev += ds
        dh_prev += maps["whz"].backward(daz, chz)
        # Reset gate (sigmoid).
        dar = dr
        dar *= r
        dar *= np.subtract(1.0, r, out=daz)
        self.grad_bias["r"] += dar.sum(axis=0)
        grad_x += maps["wxr"].backward(dar, cxr)
        dh_prev += maps["whr"].backward(dar, chr_)
        return grad_x, dh_prev

    def parts(self):
        out = []
        for g in self.GATES:
            out += [(f"wx{g}", self.wx[g]), (f"wh{g}", self.wh[g]),
                    (f"bias_{g}", (self.bias[g], self.grad_bias[g]))]
        return out


def _unroll(cell: Cell, x_seq, mask, cached: bool):
    """The step loop of training and inference: :func:`unroll` with
    ``cached`` passed to :func:`ttrnn.linear.execution_plan`. With
    ``cached=False`` (inference) sweep-plan TT maps run as themselves and
    no step's cache is kept, so the caches' step list comes back empty."""
    x_seq = np.ascontiguousarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3 or x_seq.shape[2] != cell.input_dim:
        raise ShapeError(
            f"x_seq must have shape (T, B, {cell.input_dim}), got {x_seq.shape}"
        )
    n_steps, batch = x_seq.shape[:2]
    if n_steps == 0:
        raise ShapeError("sequence must have at least one timestep")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (n_steps, batch):
            raise ShapeError(f"mask must have shape ({n_steps}, {batch})")
        # Only an all-exactly-1.0 mask blends nothing away: skip its blends.
        mask = None if np.all(mask == 1.0) else mask.reshape(n_steps, batch, 1)
    maps = execution_plan(cell.named_maps(), n_steps, batch, cached)
    h_seq = np.empty((n_steps, batch, cell.hidden_dim))
    # Row t of the block takes step t's kept arrays (module docstring).
    block = np.empty((n_steps if cached else 1, len(cell.KEPT), batch,
                      cell.hidden_dim))
    step_caches = []
    h = np.zeros((batch, cell.hidden_dim))
    for t in range(n_steps):
        # Step 0 runs from the zero state, which it is told as None.
        h_new, cache = cell._step(maps, x_seq[t], h if t else None,
                                  h_seq[t] if mask is None else None,
                                  block[t if cached else 0])
        h = h_new if mask is None else np.add(mask[t] * h_new,
                                              (1.0 - mask[t]) * h, out=h_seq[t])
        if cached:
            step_caches.append(cache)
    return h_seq, (maps, step_caches, mask, h_seq.shape)


def unroll(cell: Cell, x_seq, mask=None):
    """Run ``cell`` over ``x_seq`` of shape (T, B, D) from a zero state.

    Returns ``(h_seq, caches)`` with ``h_seq`` of shape (T, B, H);
    ``caches`` feeds :func:`bptt`. ``mask``, if given, has shape (T, B):
    where it is 0 the step's new state is discarded and the previous one
    carried on. The cell's maps run through one execution plan for the
    whole sequence (see :func:`ttrnn.linear.execution_plan`); ``caches``
    holds it.
    """
    return _unroll(cell, x_seq, mask, cached=True)


def bptt(cell: Cell, caches, grad_h_seq=None, grad_h_last=None):
    """Exact backward pass through an unroll.

    ``grad_h_seq`` (T, B, H) carries per-timestep gradients from losses that
    read every hidden state; ``grad_h_last`` (B, H) adds a gradient on the
    final state only. At least one must be given, each shaped like the
    unroll's. Parameter gradients accumulate into the cell, those of
    dense-plan maps when the sweep back through time is done; returns
    ``grad_x_seq`` of shape (T, B, D). A masked-out step passes its
    gradient straight to the previous state.
    """
    maps, step_caches, mask, shape = caches
    if grad_h_seq is None and grad_h_last is None:
        raise ShapeError("need grad_h_seq and/or grad_h_last")
    if grad_h_seq is not None:
        grad_h_seq = np.ascontiguousarray(grad_h_seq, dtype=np.float64)
        if grad_h_seq.shape != shape:
            raise ShapeError(f"grad_h_seq must have shape {shape}, "
                             f"got {grad_h_seq.shape}")
    carry = 0.0
    if grad_h_last is not None:
        carry = np.ascontiguousarray(grad_h_last, dtype=np.float64)
        if carry.shape != shape[1:]:
            raise ShapeError(f"grad_h_last must have shape {shape[1:]}, "
                             f"got {carry.shape}")
    for m in maps.values():
        if isinstance(m, LeasedView):
            m.check_current()
    steps, batch, _ = shape
    grad_x_seq = np.empty((steps, batch, cell.input_dim))
    for t in range(steps - 1, -1, -1):
        g = carry if grad_h_seq is None else grad_h_seq[t] + carry
        if mask is None:
            grad_x_seq[t], carry = cell._step_backward(maps, g, step_caches[t])
        else:
            grad_x_seq[t], carry = cell._step_backward(maps, mask[t] * g,
                                                       step_caches[t])
            if t:  # the zero initial state takes no gradient
                carry = carry + (1.0 - mask[t]) * g
    for m in maps.values():
        if isinstance(m, DenseView):
            m.flush()
    return grad_x_seq
