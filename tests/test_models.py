"""End-to-end task models: forward shapes, whole-model gradients, accounting."""

import math

import numpy as np
import pytest

from fdcheck import assert_grads_close, numeric_grad
from test_acceptance import COUNTS
from ttrnn import ShapeError, linear
from ttrnn.models import (
    build_classifier,
    build_predictor,
    make_map,
    model_report,
)
from ttrnn.tasks import bernoulli_frame_nll, cell_param_count, softmax_cross_entropy


def small_classifier(seed=0, tt=False):
    kw = dict(in_modes=(2, 2), hidden_modes=(2, 3), rank=2) if tt else {}
    return build_classifier(frame_dim=5, n_classes=3, cell_kind="gru",
                            hidden_dim=6, rng=np.random.default_rng(seed),
                            proj_dim=4, **kw)


def small_predictor(seed=0, tt=False):
    kw = dict(in_modes=(2, 2), hidden_modes=(2, 3), rank=2) if tt else {}
    return build_predictor(frame_dim=4, cell_kind="srnn", hidden_dim=6,
                           rng=np.random.default_rng(seed), proj_dim=4, **kw)


# (tt, plan): a dense cell, and a TT cell under each execution plan.
VARIANTS = ((False, "dense"), (True, "dense"), (True, "sweep"))


def models_under(monkeypatch, factory):
    """``factory(tt=...)`` for each of VARIANTS, its TT maps forced onto
    the variant's plan."""
    for tt, plan in VARIANTS:
        monkeypatch.setattr(linear, "takes_dense_plan", lambda spec, plan=plan: plan == "dense")
        yield factory(tt=tt)


class TestClassifier:
    def test_forward_shape_and_loss_consistency(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 3, 5))
        labels = np.array([0, 2, 1])
        padded = np.ones((7, 3))
        padded[4:, 1] = 0.0
        for model in models_under(monkeypatch, small_classifier):
            for mask in (None, padded):
                logits = model.forward(x, mask)
                assert logits.shape == (3, 3)
                loss, logits2 = model.loss_and_grads(x, mask, labels)
                # Inference runs the training forward's operations, cacheless.
                np.testing.assert_array_equal(logits2, logits)
                want, _ = softmax_cross_entropy(logits, labels)
                assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tt", [False, True], ids=["dense", "tt"])
    def test_whole_model_gradients(self, tt):
        model = small_classifier(seed=3, tt=tt)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 2, 5))
        mask = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        labels = np.array([1, 0])

        def loss():
            logits = model.forward(x, mask)
            return softmax_cross_entropy(logits, labels)[0]

        model.zero_grads()
        model.loss_and_grads(x, mask, labels)
        grads = model.grads()
        for name, p in model.params().items():
            assert_grads_close(grads[name], numeric_grad(loss, p))

    def test_mask_ignores_padding(self):
        model = small_classifier(seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 1, 5))
        mask = np.ones((4, 1))
        mask[2:] = 0.0
        with_pad = model.forward(x, mask)
        short = model.forward(x[:2])
        np.testing.assert_allclose(with_pad, short, rtol=1e-13, atol=1e-13)


class TestPredictor:
    def test_forward_shape_and_loss_consistency(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 2, 4))
        targets = (rng.random((5, 2, 4)) < 0.4).astype(float)
        padded = np.ones((5, 2))
        padded[3:, 0] = 0.0
        for model in models_under(monkeypatch, small_predictor):
            for mask in (np.ones((5, 2)), padded):
                logits = model.forward(x, mask)
                assert logits.shape == (5, 2, 4)
                loss, logits2 = model.loss_and_grads(x, mask, targets)
                np.testing.assert_array_equal(logits2, logits)
                want, _ = bernoulli_frame_nll(logits, targets, mask)
                assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tt", [False, True], ids=["dense", "tt"])
    def test_whole_model_gradients(self, tt):
        model = small_predictor(seed=6, tt=tt)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2, 4))
        targets = (rng.random((3, 2, 4)) < 0.5).astype(float)
        mask = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])

        def loss():
            return bernoulli_frame_nll(model.forward(x, mask), targets, mask)[0]

        model.zero_grads()
        model.loss_and_grads(x, mask, targets)
        grads = model.grads()
        for name, p in model.params().items():
            assert_grads_close(grads[name], numeric_grad(loss, p))


class TestAccounting:
    def test_report_matches_live_model(self):
        model = build_classifier(frame_dim=28, n_classes=10, cell_kind="gru",
                                 hidden_dim=100, rng=np.random.default_rng(0),
                                 proj_dim=32, in_modes=(4, 8),
                                 hidden_modes=(10, 10), rank=5)
        rep = model_report(model)
        assert rep.cell_params == 5100
        assert (rep.in_modes, rep.hidden_modes, rep.rank) == ((4, 8), (10, 10), 5)
        # projection 32*28+32, head 10*100+10
        assert rep.extra_params == (32 * 28 + 32) + (10 * 100 + 10)
        assert rep.total_params == model.param_count()

    def test_no_projection(self):
        model = build_predictor(frame_dim=8, cell_kind="srnn", hidden_dim=8,
                                rng=np.random.default_rng(0))
        assert model.projection is None
        rep = model_report(model)
        assert rep.extra_params == 8 * 8 + 8
        assert rep.total_params == model.param_count()

    @pytest.mark.parametrize(
        "kind,d_in,hid,im,hm,rank",
        [row[:6] for row in COUNTS
         if row[3] is None or (math.prod(row[3]), math.prod(row[4])) == row[1:3]])
    def test_live_count_is_the_published_formula(self, kind, d_in, hid, im, hm,
                                                 rank):
        # Reports count the live cell and only the tests use the formula,
        # so this is what keeps the two equal.
        model = build_predictor(frame_dim=d_in, cell_kind=kind, hidden_dim=hid,
                                rng=np.random.default_rng(0), in_modes=im,
                                hidden_modes=hm, rank=rank)
        assert (model_report(model).cell_params
                == cell_param_count(kind, d_in, hid, im, hm, rank)
                == model.cell.param_count())


class TestParameterKeys:
    # Adam state, global_norm, checkpoint records, inspect and the perfbench
    # per-map metrics all key on these names in this order.

    def test_tt_gru_classifier_with_projection(self):
        model = small_classifier(tt=True)
        gates = [f"cell.{k}" for g in "rzh"
                 for k in (f"wx{g}.core0", f"wx{g}.core1", f"wh{g}.core0",
                           f"wh{g}.core1", f"bias_{g}")]
        keys = ["proj.weight", "proj.bias", *gates, "head.weight", "head.bias"]
        assert list(model.params()) == keys
        assert list(model.grads()) == keys
        assert list(model.named_maps()) == [
            "proj", "cell.wxr", "cell.whr", "cell.wxz", "cell.whz",
            "cell.wxh", "cell.whh", "head"]
        assert list(model.named_arrays()) == [
            "cell.bias_r", "cell.bias_z", "cell.bias_h"]

    def test_tt_srnn_predictor_without_projection(self):
        model = build_predictor(frame_dim=4, cell_kind="srnn", hidden_dim=6,
                                rng=np.random.default_rng(0), in_modes=(2, 2),
                                hidden_modes=(2, 3), rank=2)
        keys = ["cell.wx.core0", "cell.wx.core1", "cell.wh.core0",
                "cell.wh.core1", "cell.bias", "head.weight", "head.bias"]
        assert list(model.params()) == keys
        assert list(model.grads()) == keys
        assert list(model.named_maps()) == ["cell.wx", "cell.wh", "head"]
        assert list(model.named_arrays()) == ["cell.bias"]
        params, grads = model.params(), model.grads()
        assert params["cell.bias"] is model.cell.bias
        assert grads["cell.bias"] is model.cell.grad_bias
        assert model.extra_param_count() == 6 * 4 + 4


class TestFactories:
    def test_make_map_validates(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            make_map(6, 6, rng, out_modes=(2, 3), in_modes=(2, 2), rank=2)
        with pytest.raises(ShapeError):
            make_map(6, 6, rng, out_modes=(2, 3), in_modes=None, rank=2)

    def test_wiring_validated(self):
        rng = np.random.default_rng(0)
        from ttrnn.cells import SRNNCell
        from ttrnn.linear import DenseLinear
        from ttrnn.models import SequenceClassifier
        cell = SRNNCell(DenseLinear.glorot(4, 3, rng, bias=False),
                        DenseLinear.glorot(4, 4, rng, bias=False), np.zeros(4))
        bad_head = DenseLinear.glorot(2, 5, rng)
        with pytest.raises(ShapeError):
            SequenceClassifier(cell, bad_head, None)
        bad_proj = DenseLinear.glorot(7, 9, rng)
        with pytest.raises(ShapeError):
            SequenceClassifier(cell, DenseLinear.glorot(2, 4, rng), bad_proj)
