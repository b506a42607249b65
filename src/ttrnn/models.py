"""Complete task models: optional input projection, recurrent cell, head.

Both models share the layout

    input frames -> [dense projection + tanh] -> recurrent cell -> head

with the head read either once from the final hidden state (classification)
or at every timestep (next-frame prediction). The projection and heads stay
dense on purpose: compression targets the recurrent weight matrices, and
keeping the small glue layers dense makes the reported cell ratios mean
what they say.
"""

from __future__ import annotations

import numpy as np

from .cells import Cell, GRUCell, SRNNCell, _unroll, bptt, unroll
from .errors import ShapeError
from .linear import Composite, DenseLinear, LinearMap, TTLinear
from .tasks import (
    ModelReport,
    bernoulli_frame_nll,
    cell_param_count,
    softmax_cross_entropy,
)
from .ttmatrix import TTSpec


def make_map(out_dim: int, in_dim: int, rng, out_modes=None, in_modes=None,
             rank=None) -> LinearMap:
    """Biasless cell map: dense, or TT when modes are supplied."""
    if out_modes is None and in_modes is None:
        return DenseLinear.glorot(out_dim, in_dim, rng, bias=False)
    if out_modes is None or in_modes is None or rank is None:
        raise ShapeError("TT maps need out_modes, in_modes and rank together")
    spec = TTSpec.with_rank(out_modes, in_modes, rank)
    if spec.out_dim != out_dim or spec.in_dim != in_dim:
        raise ShapeError(
            f"modes {tuple(out_modes)}x{tuple(in_modes)} do not factor "
            f"{out_dim}x{in_dim}"
        )
    return TTLinear.glorot(spec, rng)


def make_cell(kind: str, input_dim: int, hidden_dim: int, rng, in_modes=None,
              hidden_modes=None, rank=None) -> Cell:
    """Build an SRNN or GRU cell, TT-compressed when modes are given."""

    def imap():
        return make_map(hidden_dim, input_dim, rng, hidden_modes, in_modes, rank)

    def hmap():
        return make_map(hidden_dim, hidden_dim, rng, hidden_modes, hidden_modes, rank)

    if kind == "srnn":
        return SRNNCell(imap(), hmap(), np.zeros(hidden_dim))
    if kind == "gru":
        wx = {g: imap() for g in GRUCell.GATES}
        wh = {g: hmap() for g in GRUCell.GATES}
        biases = {g: np.zeros(hidden_dim) for g in GRUCell.GATES}
        return GRUCell(wx, wh, biases)
    raise ShapeError(f"kind must be srnn or gru, got {kind!r}")


class _ProjectedModel(Composite):
    """Shared plumbing: projection and the parts list ``proj`` (when
    present), ``cell``, ``head``."""

    def __init__(self, cell: Cell, head: DenseLinear, projection: DenseLinear | None):
        self.cell = cell
        self.head = head
        self.projection = projection
        if projection is not None and projection.out_dim != cell.input_dim:
            raise ShapeError(
                f"projection emits {projection.out_dim}, cell expects {cell.input_dim}"
            )
        if head.in_dim != cell.hidden_dim:
            raise ShapeError(
                f"head reads {head.in_dim}, cell produces {cell.hidden_dim}"
            )
        self.frame_dim = cell.input_dim if projection is None else projection.in_dim

    def _project(self, x_seq):
        """Apply projection + tanh framewise. Returns (cell input, cache)."""
        x_seq = np.ascontiguousarray(x_seq, dtype=np.float64)
        if x_seq.ndim != 3 or x_seq.shape[2] != self.frame_dim:
            raise ShapeError(
                f"x_seq must have shape (T, B, {self.frame_dim}), got {x_seq.shape}"
            )
        if self.projection is None:
            return x_seq, None
        steps, batch, dim = x_seq.shape
        flat, cache = self.projection.forward_cached(x_seq.reshape(steps * batch, dim))
        act = np.tanh(flat)
        return act.reshape(steps, batch, -1), (cache, act, steps, batch)

    def _project_backward(self, grad_in_seq, cache):
        if self.projection is None:
            return grad_in_seq
        proj_cache, act, steps, batch = cache
        g = grad_in_seq.reshape(steps * batch, -1) * (1.0 - act * act)
        gx = self.projection.backward(g, proj_cache)
        return gx.reshape(steps, batch, -1)

    def parts(self):
        proj = [] if self.projection is None else [("proj", self.projection)]
        return proj + [("cell", self.cell), ("head", self.head)]

    def extra_param_count(self) -> int:
        """Parameters outside the cell: projection and head."""
        return self.param_count() - self.cell.param_count()


class SequenceClassifier(_ProjectedModel):
    """Classify a whole sequence from its final hidden state."""

    def forward(self, x_seq, mask=None):
        """Class logits of shape (B, n_classes). Inference runs the
        training step loop but keeps no step cache (see :mod:`ttrnn.cells`)."""
        cell_in, _ = self._project(x_seq)
        h_seq = _unroll(self.cell, cell_in, mask, cached=False)[0]
        return self.head.forward(h_seq[-1])

    def loss_and_grads(self, x_seq, mask, labels):
        """Mean cross-entropy; accumulates parameter gradients.

        Returns ``(loss, logits)``. Call ``zero_grads`` first for a fresh
        gradient; masked steps hold the hidden state, so the final state is
        each sequence's last valid one.
        """
        cell_in, proj_cache = self._project(x_seq)
        h_seq, caches = unroll(self.cell, cell_in, mask=mask)
        logits, head_cache = self.head.forward_cached(h_seq[-1])
        loss, dlogits = softmax_cross_entropy(logits, labels)
        dh_last = self.head.backward(dlogits, head_cache)
        grad_in = bptt(self.cell, caches, grad_h_last=dh_last)
        self._project_backward(grad_in, proj_cache)
        return loss, logits


class SequencePredictor(_ProjectedModel):
    """Emit per-timestep Bernoulli logits, scored against target frames."""

    def forward(self, x_seq, mask=None):
        """Unit logits of shape (T, B, n_units). Inference runs the
        training step loop but keeps no step cache (see :mod:`ttrnn.cells`)."""
        cell_in, _ = self._project(x_seq)
        h_seq = _unroll(self.cell, cell_in, mask, cached=False)[0]
        steps, batch, hidden = h_seq.shape
        flat = self.head.forward(h_seq.reshape(steps * batch, hidden))
        return flat.reshape(steps, batch, -1)

    def loss_and_grads(self, x_seq, mask, targets):
        """Mean per-frame NLL; accumulates parameter gradients.

        Returns ``(loss, logits)``. ``targets`` has shape (T, B, n_units)
        aligned with the inputs (callers pre-shift for next-frame tasks).
        """
        cell_in, proj_cache = self._project(x_seq)
        h_seq, caches = unroll(self.cell, cell_in, mask=mask)
        steps, batch, hidden = h_seq.shape
        flat, head_cache = self.head.forward_cached(h_seq.reshape(steps * batch, hidden))
        logits = flat.reshape(steps, batch, -1)
        loss, dlogits = bernoulli_frame_nll(logits, targets, mask)
        dh_flat = self.head.backward(dlogits.reshape(steps * batch, -1), head_cache)
        grad_h_seq = dh_flat.reshape(steps, batch, hidden)
        grad_in = bptt(self.cell, caches, grad_h_seq=grad_h_seq)
        self._project_backward(grad_in, proj_cache)
        return loss, logits


def _build(model_cls, frame_dim, out_dim, cell_kind, hidden_dim, rng,
           proj_dim, in_modes, hidden_modes, rank):
    # The rng draws projection, cell, head in this order; seeded runs rely on it.
    proj = None
    cell_input = frame_dim
    if proj_dim is not None:
        proj = DenseLinear.glorot(proj_dim, frame_dim, rng)
        cell_input = proj_dim
    cell = make_cell(cell_kind, cell_input, hidden_dim, rng, in_modes,
                     hidden_modes, rank)
    return model_cls(cell, DenseLinear.glorot(out_dim, hidden_dim, rng), proj)


def build_classifier(frame_dim: int, n_classes: int, cell_kind: str,
                     hidden_dim: int, rng, proj_dim=None, in_modes=None,
                     hidden_modes=None, rank=None) -> SequenceClassifier:
    return _build(SequenceClassifier, frame_dim, n_classes, cell_kind,
                  hidden_dim, rng, proj_dim, in_modes, hidden_modes, rank)


def build_predictor(frame_dim: int, cell_kind: str, hidden_dim: int, rng,
                    proj_dim=None, in_modes=None, hidden_modes=None,
                    rank=None) -> SequencePredictor:
    return _build(SequencePredictor, frame_dim, frame_dim, cell_kind,
                  hidden_dim, rng, proj_dim, in_modes, hidden_modes, rank)


def model_report(model: _ProjectedModel, baseline_hidden=None) -> ModelReport:
    """Parameter accounting read off the live model: the cell's kind,
    widths, TT modes and parameter count, and the count outside it. Only
    the dense baseline (hidden size ``baseline_hidden``, by default the
    cell's own) comes from the :func:`cell_param_count` formula. The rank
    is the largest internal rank of the cell's input map, so a one-core
    map reports 1."""
    cell = model.cell
    # Both cells list their (first) input map first in parts().
    imap = next(iter(cell.named_maps().values()))
    spec = imap.tt.spec if isinstance(imap, TTLinear) else None
    if baseline_hidden is None:
        baseline_hidden = cell.hidden_dim
    return ModelReport(
        cell_kind=cell.kind, input_dim=cell.input_dim,
        hidden_dim=cell.hidden_dim,
        in_modes=None if spec is None else spec.in_modes,
        hidden_modes=None if spec is None else spec.out_modes,
        rank=None if spec is None else max(spec.ranks),
        baseline_hidden=baseline_hidden, cell_params=cell.param_count(),
        dense_cell_params=cell_param_count(cell.kind, cell.input_dim,
                                           baseline_hidden),
        extra_params=model.extra_param_count(),
    )
