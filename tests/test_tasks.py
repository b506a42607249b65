"""Losses, metrics, and parameter accounting."""

import math

import numpy as np
import pytest

from fdcheck import assert_grads_close, numeric_grad
from ttrnn import DataError, ShapeError
from ttrnn.data import make_batches
from ttrnn.models import build_predictor, model_report
from ttrnn.tasks import (
    bernoulli_frame_nll,
    cell_param_count,
    compression_ratio,
    frame_counts,
    gate_param_count,
    pooled_frame_accuracy,
    softmax_cross_entropy,
)
from ttrnn.train import evaluate


class TestSoftmaxCrossEntropy:
    def test_frozen_values(self):
        loss, grad = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
        assert loss == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-15)
        # Uniform logits over C classes cost ln C.
        loss, _ = softmax_cross_entropy(np.full((3, 10), 2.5), np.array([1, 5, 9]))
        assert loss == pytest.approx(math.log(10.0))

    def test_matches_direct_probability_computation(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 4)) * 2
        labels = rng.integers(0, 4, size=6)
        loss, _ = softmax_cross_entropy(logits, labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.mean([math.log(p[i, labels[i]]) for i in range(6)])
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        _, grad = softmax_cross_entropy(logits, labels)
        num = numeric_grad(lambda: softmax_cross_entropy(logits, labels)[0], logits)
        assert_grads_close(grad, num)

    def test_stable_at_extreme_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))
        loss, _ = softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(2e4, rel=1e-12)

    def test_label_validation(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


class FixedLogits:
    """Stands in for a model: each forward returns the next of ``blocks``."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)

    def forward(self, x, mask=None):
        return next(self.blocks)


def test_classification_accuracy():
    # Argmax hits pooled over batches of 3 and 1: 2 of 3, then 1 of 1.
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 4.0], [-1.0, 0.0]])
    batches = make_batches([np.zeros((1, 1))] * 4, "classify", 3,
                           labels=np.array([0, 1, 1, 1]))
    model = FixedLogits([logits[:3], logits[3:]])
    _, acc = evaluate(model, batches, classify=True)
    assert acc == 0.75


class TestBernoulliNLL:
    def test_frozen_values(self):
        # Zero logits: every unit costs ln 2, frames sum over units.
        nll, _ = bernoulli_frame_nll(np.zeros((2, 3, 5)), np.zeros((2, 3, 5)))
        assert nll == pytest.approx(5 * math.log(2.0))
        # Confident and correct costs nothing.
        nll, _ = bernoulli_frame_nll(np.full((1, 1, 4), 50.0), np.ones((1, 1, 4)))
        assert nll == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_probability_computation(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 2, 6))
        targets = (rng.random((3, 2, 6)) < 0.3).astype(float)
        nll, _ = bernoulli_frame_nll(logits, targets)
        p = 1.0 / (1.0 + np.exp(-logits))
        want = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).sum(-1).mean()
        assert nll == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((2, 2, 4))
        targets = (rng.random((2, 2, 4)) < 0.5).astype(float)
        mask = np.array([[1.0, 1.0], [1.0, 0.0]])
        _, grad = bernoulli_frame_nll(logits, targets, mask)
        num = numeric_grad(
            lambda: bernoulli_frame_nll(logits, targets, mask)[0], logits)
        assert_grads_close(grad, num)

    def test_mask_excludes_frames(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 2, 4))
        targets = (rng.random((3, 2, 4)) < 0.5).astype(float)
        mask = np.ones((3, 2))
        mask[2, 1] = 0.0
        # Poison the masked frame; the loss must not move.
        nll_before, grad = bernoulli_frame_nll(logits, targets, mask)
        logits2 = logits.copy()
        logits2[2, 1] = 1e3
        nll_after, _ = bernoulli_frame_nll(logits2, targets, mask)
        assert nll_after == pytest.approx(nll_before, rel=1e-12)
        np.testing.assert_array_equal(grad[2, 1], 0.0)
        # Average uses the unmasked frame count (5), not the total (6).
        per_frame = (targets * np.logaddexp(0, -logits)
                     + (1 - targets) * np.logaddexp(0, logits)).sum(-1)
        assert nll_before == pytest.approx((per_frame * mask).sum() / 5.0)

    def test_all_masked_rejected(self):
        with pytest.raises(DataError):
            bernoulli_frame_nll(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                                np.zeros((1, 1)))

    def test_stable_at_extreme_logits(self):
        logits = np.array([[[1e4, -1e4]]])
        targets = np.array([[[0.0, 1.0]]])
        nll, grad = bernoulli_frame_nll(logits, targets)
        assert nll == pytest.approx(2e4, rel=1e-12)
        assert np.all(np.isfinite(grad))


class TestFrameAccuracy:
    def test_hand_counted(self):
        # logits > 0 predicts a note. TP = 2, FP = 1, FN = 1 -> 0.5.
        logits = np.array([[[1.0, 1.0, -1.0, 1.0],
                            [-1.0, -1.0, 1.0, -1.0]]])
        targets = np.array([[[1.0, 1.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0]]])
        assert pooled_frame_accuracy(frame_counts(logits, targets)) \
            == pytest.approx(3.0 / 5.0)

    def test_empty_denominator_is_perfect(self):
        logits = -np.ones((2, 2, 3))
        targets = np.zeros((2, 2, 3))
        assert pooled_frame_accuracy(frame_counts(logits, targets)) == 1.0

    def test_mask_excludes_frames(self):
        logits = np.array([[[1.0], [1.0]]])
        targets = np.array([[[1.0], [0.0]]])
        assert pooled_frame_accuracy(frame_counts(logits, targets)) \
            == pytest.approx(0.5)
        mask = np.array([[1.0, 0.0]])
        assert pooled_frame_accuracy(frame_counts(logits, targets, mask)) == 1.0


class TestParamAccounting:
    def test_dense_counts(self):
        # 3 gates x (256*32 + 256*256 + 256).
        assert cell_param_count("gru", 32, 256) == 221952
        assert cell_param_count("srnn", 64, 256) == 82176
        assert cell_param_count("srnn", 256, 512) == 393728
        assert cell_param_count("gru", 256, 512) == 1181184

    def test_tt_counts(self):
        # Hidden modes 8x4x8x4 give a 1024-unit hidden state.
        h4 = (8, 4, 8, 4)
        i4 = (4, 4, 4, 4)
        assert cell_param_count("srnn", 256, 1024, i4, h4, 3) == 2560
        assert cell_param_count("srnn", 256, 1024, i4, h4, 5) == 4864
        assert cell_param_count("gru", 256, 1024, i4, h4, 3) == 7680
        assert cell_param_count("gru", 256, 1024, i4, h4, 5) == 14592
        assert cell_param_count("gru", 32, 100, (4, 8), (10, 10), 3) == 3180
        assert cell_param_count("gru", 32, 100, (4, 8), (10, 10), 5) == 5100
        assert cell_param_count("gru", 32, 100, (4, 8), (10, 10), 7) == 7020

    def test_gate_composition(self):
        # A gate is input map + hidden map + bias; the GRU is three gates.
        g = gate_param_count(32, 100, (4, 8), (10, 10), 5)
        assert g == 600 + 1000 + 100
        assert cell_param_count("gru", 32, 100, (4, 8), (10, 10), 5) == 3 * g

    def test_modes_must_factor_dims(self):
        with pytest.raises(ShapeError):
            gate_param_count(32, 100, (4, 4), (10, 10), 3)
        with pytest.raises(ShapeError):
            gate_param_count(32, 100, (4, 8), (10, 9), 3)
        with pytest.raises(ShapeError):
            gate_param_count(32, 100, (4, 8), None, 3)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            cell_param_count("lstm", 32, 100)

    def test_ratio(self):
        assert compression_ratio(221952, 5100) == pytest.approx(43.52)
        assert compression_ratio(393728, 2560) == pytest.approx(153.8)
        with pytest.raises(DataError):
            compression_ratio(0, 1)


class TestModelReport:
    def test_build_and_totals(self):
        model = build_predictor(frame_dim=32, cell_kind="gru", hidden_dim=100,
                                rng=np.random.default_rng(0), in_modes=(4, 8),
                                hidden_modes=(10, 10), rank=5)
        rep = model_report(model)
        assert rep.cell_params == 5100
        # 3 * (100*32 + 100*100 + 100)
        assert rep.dense_cell_params == cell_param_count("gru", 32, 100) == 39900
        # head 32*100 + 32
        assert rep.total_params == 5100 + 3232 == model.param_count()
        assert rep.ratio == pytest.approx(39900 / 5100)
        text = "\n".join(rep.lines())
        assert "rank 5" in text and "5100" in text

    def test_dense_report(self):
        model = build_predictor(frame_dim=32, cell_kind="srnn", hidden_dim=100,
                                rng=np.random.default_rng(0))
        rep = model_report(model)
        assert rep.cell_params == rep.dense_cell_params
        assert rep.ratio == pytest.approx(1.0)
        assert "dense" in "\n".join(rep.lines())
