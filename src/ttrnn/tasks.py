"""Task heads' losses, evaluation metrics, and parameter accounting.

Two task families are supported:

* sequence classification - read the whole sequence, softmax over classes
  from the final hidden state;
* next-frame prediction - at every timestep emit independent Bernoulli
  logits for each output unit (e.g. 88 piano keys) and score the next
  observed frame.

All losses return ``(scalar, dlogits)`` so callers feed the gradient
straight back into the network; padded frames are excluded from both the
losses and the metrics via {0,1} masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import sigmoid
from .errors import DataError, ShapeError
from .ttmatrix import TTSpec


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of integer ``labels`` under softmax ``logits``.

    Returns ``(loss, dlogits)`` with ``dlogits`` already divided by the
    batch size. Stable for large logits (log-sum-exp shift).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (B, C), got {logits.shape}")
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels must be ({batch},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise DataError(f"labels must lie in [0, {classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    shift = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shift), axis=1, keepdims=True))
    logp = shift - logz
    rows = np.arange(batch)
    loss = float(-logp[rows, labels].mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / batch


def bernoulli_frame_nll(logits, targets, mask=None):
    """Negative log-likelihood per frame of independent binary outputs.

    ``logits`` and ``targets`` share shape (..., K); a frame is one leading
    position and its NLL sums over the K units. Returns ``(nll, dlogits)``
    where ``nll`` averages over unmasked frames and ``dlogits`` is the
    gradient of that average. Uses the softplus form
    ``y*softplus(-l) + (1-y)*softplus(l)``, stable at any magnitude.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    per_unit = (targets * np.logaddexp(0.0, -logits)
                + (1.0 - targets) * np.logaddexp(0.0, logits))
    per_frame = per_unit.sum(axis=-1)
    dlogits = sigmoid(logits) - targets
    if mask is None:
        count = per_frame.size
        nll = float(per_frame.sum() / count)
        dlogits /= count
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != per_frame.shape:
            raise ShapeError(f"mask {mask.shape} must match frames {per_frame.shape}")
        count = float(mask.sum())
        if count == 0:
            raise DataError("mask excludes every frame")
        nll = float((per_frame * mask).sum() / count)
        dlogits *= mask[..., None] / count
    return nll, dlogits


def frame_counts(logits, targets, mask=None):
    """(TP, FP, FN) over all unmasked unit predictions.

    A unit fires when its logit is positive (probability > 0.5). Counts
    pool across batches, so callers can reduce them in a fixed order.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    pred = logits > 0.0
    true = targets > 0.5
    if mask is None:
        keep = np.ones(logits.shape[:-1], dtype=bool)
    else:
        keep = np.asarray(mask) > 0.5
        if keep.shape != logits.shape[:-1]:
            raise ShapeError(f"mask {keep.shape} must match frames {logits.shape[:-1]}")
    keep = keep[..., None]
    tp = int(np.sum(pred & true & keep))
    fp = int(np.sum(pred & ~true & keep))
    fn = int(np.sum(~pred & true & keep))
    return tp, fp, fn


def pooled_frame_accuracy(counts) -> float:
    """TP / (TP + FP + FN) of pooled ``(TP, FP, FN)`` counts; 1.0 when there
    are no positives anywhere."""
    tp, fp, fn = (int(c) for c in counts)
    denom = tp + fp + fn
    return 1.0 if denom == 0 else tp / denom


def gate_param_count(input_dim: int, hidden_dim: int, in_modes=None,
                     hidden_modes=None, rank: int | None = None) -> int:
    """Parameters of one gate: input map + hidden map + one bias vector.

    With mode factorizations both maps are TT at the given rank; otherwise
    they are dense and this is ``H*D + H*H + H``.
    """
    if (in_modes is None) != (hidden_modes is None) or \
            (hidden_modes is None) != (rank is None):
        raise ShapeError("in_modes, hidden_modes and rank must be given together")
    if in_modes is None:
        return hidden_dim * input_dim + hidden_dim * hidden_dim + hidden_dim
    wx = TTSpec.with_rank(hidden_modes, in_modes, rank)
    wh = TTSpec.with_rank(hidden_modes, hidden_modes, rank)
    if wx.out_dim != hidden_dim or wx.in_dim != input_dim:
        raise ShapeError(
            f"modes {hidden_modes}x{in_modes} do not factor {hidden_dim}x{input_dim}"
        )
    return wx.param_count() + wh.param_count() + hidden_dim


_GATES = {"srnn": 1, "gru": 3}


def cell_param_count(kind: str, input_dim: int, hidden_dim: int, in_modes=None,
                     hidden_modes=None, rank: int | None = None) -> int:
    """Total recurrent-cell parameters; SRNN has one gate, GRU three."""
    if kind not in _GATES:
        raise ShapeError(f"kind must be one of {sorted(_GATES)}, got {kind!r}")
    return _GATES[kind] * gate_param_count(input_dim, hidden_dim, in_modes,
                                           hidden_modes, rank)


def compression_ratio(baseline_params: int, compressed_params: int) -> float:
    """How many times smaller the compressed cell is than the dense one."""
    if baseline_params <= 0 or compressed_params <= 0:
        raise DataError("parameter counts must be positive")
    return baseline_params / compressed_params


@dataclass
class ModelReport:
    """Parameter accounting for one model, cell and extras listed apart.

    The compression ratio follows the usual reporting convention: it
    compares the recurrent cell against a dense cell of the same kind and
    input width, leaving projections and output heads out. The baseline's
    hidden size defaults to the cell's own but can be pinned to a named
    reference model (published tables compare TT cells against a fixed
    dense baseline even when the TT hidden state is wider). The TT fields
    are None for a dense cell.
    """

    cell_kind: str
    input_dim: int
    hidden_dim: int
    in_modes: tuple | None
    hidden_modes: tuple | None
    rank: int | None
    baseline_hidden: int
    cell_params: int
    dense_cell_params: int
    extra_params: int

    @property
    def total_params(self) -> int:
        return self.cell_params + self.extra_params

    @property
    def ratio(self) -> float:
        return compression_ratio(self.dense_cell_params, self.cell_params)

    def lines(self) -> list[str]:
        out = [
            f"cell: {self.cell_kind} {self.input_dim} -> {self.hidden_dim}",
        ]
        if self.rank is not None:
            out.append(f"tt: hidden modes {'x'.join(map(str, self.hidden_modes))}, "
                       f"input modes {'x'.join(map(str, self.in_modes))}, "
                       f"rank {self.rank}")
        else:
            out.append("tt: no (dense weights)")
        out += [
            f"cell params: {self.cell_params}",
            f"dense baseline: {self.cell_kind} hidden {self.baseline_hidden} "
            f"-> {self.dense_cell_params} params",
            f"compression ratio: {self.ratio:.2f}",
            f"extra params (projection + head): {self.extra_params}",
            f"total params: {self.total_params}",
        ]
        return out
