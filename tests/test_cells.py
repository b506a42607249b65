"""Recurrent cells and BPTT: reference transcriptions of the update
equations, finite-difference checks over a full unroll, mask semantics."""

import gc
import weakref

import numpy as np
import pytest

from fdcheck import assert_grads_close, numeric_grad
from ttrnn import DenseLinear, ShapeError, TTLinear, TTSpec, linear
from ttrnn.cells import GRUCell, SRNNCell, _unroll, bptt, sigmoid, unroll
from ttrnn.linear import DenseView, SweepView
from ttrnn.models import make_cell
from ttrnn.tasks import cell_param_count


def dense_srnn(input_dim=3, hidden=4, seed=0):
    return make_cell("srnn", input_dim, hidden, np.random.default_rng(seed))


def tt_srnn(seed=0):
    return make_cell("srnn", 6, 6, np.random.default_rng(seed),
                     in_modes=(2, 3), hidden_modes=(3, 2), rank=2)


def dense_gru(input_dim=3, hidden=4, seed=0):
    return make_cell("gru", input_dim, hidden, np.random.default_rng(seed))


def tt_gru(seed=0):
    return make_cell("gru", 6, 6, np.random.default_rng(seed),
                     in_modes=(2, 3), hidden_modes=(3, 2), rank=2)


ALL_CELLS = [dense_srnn, tt_srnn, dense_gru, tt_gru]
PLANS = ("dense", "sweep")


def force_plan(monkeypatch, plan):
    """Make every TT cell map take ``plan``, whatever the rule says."""
    monkeypatch.setattr(linear, "takes_dense_plan", lambda spec: plan == "dense")


def check_unroll_against_finite_differences(cell, first_masked=False):
    rng = np.random.default_rng(9)
    steps, batch = 4, 3
    x_seq = rng.standard_normal((steps, batch, cell.input_dim))
    mask = np.ones((steps, batch))
    mask[2, 1] = 0.0  # one padded step mid-sequence
    mask[3, 2] = 0.0
    if first_masked:  # a row whose first step, the zero-state one, is padding
        mask[0, 0] = 0.0
    proj_seq = rng.standard_normal((steps, batch, cell.hidden_dim))
    proj_last = rng.standard_normal((batch, cell.hidden_dim))

    def loss():
        h_seq, _ = unroll(cell, x_seq, mask=mask)
        return float(np.sum(h_seq * proj_seq) + np.sum(h_seq[-1] * proj_last))

    h_seq, caches = unroll(cell, x_seq, mask=mask)
    cell.zero_grads()
    grad_x = bptt(cell, caches, grad_h_seq=proj_seq, grad_h_last=proj_last)

    params = cell.params()
    grads = cell.grads()
    for name in params:
        assert_grads_close(grads[name], numeric_grad(loss, params[name]))
    assert_grads_close(grad_x, numeric_grad(loss, x_seq))


def test_sigmoid_stable_and_correct():
    x = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                               rtol=1e-12, atol=1e-15)
    with np.errstate(over="raise"):
        big = sigmoid(np.array([-1000.0, 1000.0]))
    np.testing.assert_allclose(big, [0.0, 1.0], atol=1e-12)


class TestReferenceEquations:
    def test_srnn_step_matches_transcription(self):
        cell = dense_srnn(seed=3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        h = rng.standard_normal((5, 4))
        got, _ = cell.step(x, h)
        wx = cell.wx.weight
        wh = cell.wh.weight
        want = np.tanh(x @ wx.T + h @ wh.T + cell.bias)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gru_step_matches_transcription(self):
        # Independent line-by-line transcription of the gate equations. The
        # reset gate multiplies h_prev before the hidden-to-hidden map.
        cell = dense_gru(seed=5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        h = rng.standard_normal((4, 4))
        for g in cell.bias:
            cell.bias[g][:] = rng.standard_normal(4) * 0.3
        got, _ = cell.step(x, h)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        r = sig(x @ cell.wx["r"].weight.T + h @ cell.wh["r"].weight.T + cell.bias["r"])
        z = sig(x @ cell.wx["z"].weight.T + h @ cell.wh["z"].weight.T + cell.bias["z"])
        c = np.tanh(x @ cell.wx["h"].weight.T
                    + (r * h) @ cell.wh["h"].weight.T + cell.bias["h"])
        want = (1.0 - z) * h + z * c
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_initial_state_defaults_to_zero(self):
        cell = dense_srnn()
        x = np.random.default_rng(0).standard_normal((2, 2, 3))
        h_seq, _ = unroll(cell, x)
        want0, _ = cell.step(x[0], np.zeros((2, 4)))
        np.testing.assert_allclose(h_seq[0], want0, rtol=1e-14, atol=1e-14)


class TestBPTTGradients:
    @pytest.mark.parametrize("factory", ALL_CELLS, ids=lambda f: f.__name__)
    def test_full_unroll_matches_finite_differences(self, factory):
        check_unroll_against_finite_differences(factory(seed=7))

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_tt_unroll_matches_finite_differences_under_each_plan(
            self, factory, plan, monkeypatch):
        force_plan(monkeypatch, plan)
        check_unroll_against_finite_differences(factory(seed=7))

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", ALL_CELLS, ids=lambda f: f.__name__)
    def test_first_step_masked_matches_finite_differences(
            self, factory, plan, monkeypatch):
        force_plan(monkeypatch, plan)
        check_unroll_against_finite_differences(factory(seed=8), first_masked=True)

    @pytest.mark.parametrize("factory", [dense_srnn, dense_gru],
                             ids=lambda f: f.__name__)
    def test_last_state_only_gradient(self, factory):
        cell = factory(seed=1)
        rng = np.random.default_rng(4)
        x_seq = rng.standard_normal((3, 2, cell.input_dim))
        proj = rng.standard_normal((2, cell.hidden_dim))

        def loss():
            h_seq, _ = unroll(cell, x_seq)
            return float(np.sum(h_seq[-1] * proj))

        _, caches = unroll(cell, x_seq)
        cell.zero_grads()
        grad_x = bptt(cell, caches, grad_h_last=proj)
        for name, p in cell.params().items():
            assert_grads_close(cell.grads()[name], numeric_grad(loss, p))
        assert_grads_close(grad_x, numeric_grad(loss, x_seq))


class TestMaskSemantics:
    @pytest.mark.parametrize("factory", [dense_srnn, dense_gru, tt_gru],
                             ids=lambda f: f.__name__)
    def test_masked_steps_freeze_state(self, factory):
        cell = factory(seed=2)
        rng = np.random.default_rng(8)
        x_seq = rng.standard_normal((5, 2, cell.input_dim))
        mask = np.ones((5, 2))
        mask[3:, 0] = 0.0  # sample 0 ends after step 2
        h_seq, _ = unroll(cell, x_seq, mask=mask)
        np.testing.assert_array_equal(h_seq[3, 0], h_seq[2, 0])
        np.testing.assert_array_equal(h_seq[4, 0], h_seq[2, 0])
        assert not np.allclose(h_seq[4, 1], h_seq[2, 1])

    def test_padded_run_equals_short_run(self):
        # Values and gradients must match running the unpadded sequence.
        cell = dense_gru(seed=6)
        rng = np.random.default_rng(3)
        x_long = rng.standard_normal((5, 1, cell.input_dim))
        mask = np.ones((5, 1))
        mask[3:] = 0.0
        proj = rng.standard_normal((1, cell.hidden_dim))

        h_long, caches = unroll(cell, x_long, mask=mask)
        cell.zero_grads()
        gx_long = bptt(cell, caches, grad_h_last=proj)
        grads_long = {k: v.copy() for k, v in cell.grads().items()}

        h_short, caches = unroll(cell, x_long[:3])
        cell.zero_grads()
        gx_short = bptt(cell, caches, grad_h_last=proj)

        np.testing.assert_allclose(h_long[-1], h_short[-1], rtol=1e-13, atol=1e-13)
        for k, g in cell.grads().items():
            np.testing.assert_allclose(grads_long[k], g, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(gx_long[:3], gx_short, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(gx_long[3:], 0.0, atol=1e-15)

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_all_ones_mask_equals_no_mask(self, factory, plan, monkeypatch):
        force_plan(monkeypatch, plan)
        cell = factory(seed=5)
        rng = np.random.default_rng(11)
        x_seq = rng.standard_normal((4, 3, cell.input_dim))
        proj_seq = rng.standard_normal((4, 3, cell.hidden_dim))
        proj_last = rng.standard_normal((3, cell.hidden_dim))
        runs = []
        for mask in (None, np.ones((4, 3))):
            h_seq, caches = unroll(cell, x_seq, mask=mask)
            cell.zero_grads()
            grad_x = bptt(cell, caches, grad_h_seq=proj_seq, grad_h_last=proj_last)
            runs.append((h_seq, grad_x, {k: v.copy() for k, v in cell.grads().items()}))
        (h_none, gx_none, g_none), (h_ones, gx_ones, g_ones) = runs
        np.testing.assert_array_equal(h_ones, h_none)
        np.testing.assert_array_equal(gx_ones, gx_none)
        assert list(g_ones) == list(g_none)
        for name in g_none:
            np.testing.assert_array_equal(g_ones[name], g_none[name], err_msg=name)


def stepwise(cell, x_seq, mask, proj_seq):
    """Unroll and BPTT one ``Cell.step`` at a time from an explicit zero
    state, so step 0 runs every map: the computation without the zero-state
    skip. Needs a cell of dense maps, whose caches never go stale."""
    steps, batch = x_seq.shape[:2]
    keep = np.ones((steps, batch, 1)) if mask is None else mask[:, :, None]
    h = np.zeros((batch, cell.hidden_dim))
    h_seq, caches = [], []
    for t in range(steps):
        h_new, cache = cell.step(x_seq[t], h)
        h = keep[t] * h_new + (1.0 - keep[t]) * h
        h_seq.append(h)
        caches.append(cache)
    cell.zero_grads()
    grad_x = np.empty_like(x_seq)
    carry = 0.0
    for t in range(steps - 1, -1, -1):
        g = proj_seq[t] + carry
        grad_x[t], dh = cell._step_backward(cell.named_maps(), keep[t] * g,
                                            caches[t])
        carry = dh + (1.0 - keep[t]) * g
    return np.array(h_seq), grad_x, {k: v.copy() for k, v in cell.grads().items()}


class TestZeroStateStep:
    """Step 0 runs from h_0 = 0 and skips the work that makes exact zeros:
    an SRNN's wh, a GRU's wh maps and its reset gate."""

    @pytest.mark.parametrize("masking", ["none", "mid", "first-step", "second-step"])
    @pytest.mark.parametrize("factory", [dense_srnn, dense_gru],
                             ids=lambda f: f.__name__)
    def test_skip_equals_the_full_step(self, factory, masking):
        cell = factory(seed=4)
        rng = np.random.default_rng(12)
        for b in cell.named_arrays().values():
            b[...] = rng.standard_normal(b.shape)
        x_seq = rng.standard_normal((4, 3, cell.input_dim))
        proj_seq = rng.standard_normal((4, 3, cell.hidden_dim))
        mask = None if masking == "none" else np.ones((4, 3))
        if masking == "mid":
            mask[2, 1] = 0.0
        elif masking == "first-step":
            mask[0, :2] = 0.0
        elif masking == "second-step":  # its carry is the last bptt adds
            mask[1, 2] = 0.0
        want = stepwise(cell, x_seq, mask, proj_seq)
        h_seq, caches = unroll(cell, x_seq, mask=mask)
        cell.zero_grads()
        grad_x = bptt(cell, caches, grad_h_seq=proj_seq)
        # assert_array_equal holds 0.0 == -0.0: equal up to the sign of zeros.
        np.testing.assert_array_equal(h_seq, want[0])
        np.testing.assert_array_equal(grad_x, want[1])
        for name, g in cell.grads().items():
            np.testing.assert_array_equal(g, want[2][name], err_msg=name)
        np.testing.assert_array_equal(_unroll(cell, x_seq, mask, cached=False)[0],
                                      h_seq)

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_step_zero_runs_no_hidden_map(self, factory, plan, monkeypatch):
        force_plan(monkeypatch, plan)
        cell = factory(seed=2)
        calls = []
        # A step runs its maps through the plan's views: count their calls.
        real_plan = linear.execution_plan

        def counted_plan(maps, steps, batch, cached):
            plan_maps = real_plan(maps, steps, batch, cached)
            for name, view in plan_maps.items():
                for attr in ("forward_cached", "backward"):
                    def recorded(*args, _fn=getattr(view, attr), _key=(name, attr)):
                        calls.append(_key)
                        return _fn(*args)
                    setattr(view, attr, recorded)
            return plan_maps

        monkeypatch.setattr("ttrnn.cells.execution_plan", counted_plan)
        x_seq = np.random.default_rng(0).standard_normal((1, 2, cell.input_dim))
        _, caches = unroll(cell, x_seq)
        bptt(cell, caches, grad_h_last=np.ones((2, cell.hidden_dim)))
        ran = {name for name, attr in calls if attr == "forward_cached"}
        assert ran == set(RUNS_FROM_ZERO[cell.kind])
        assert {name for name, attr in calls if attr == "backward"} == ran
        skipped = set(cell.named_maps()) - ran
        for name in skipped:
            for g in cell.named_maps()[name].grads().values():
                assert not g.any(), name


# The maps a step from the zero state runs; the others run T - 1 times.
RUNS_FROM_ZERO = {"srnn": ("wx",), "gru": ("wxz", "wxh")}


def runs_per_unroll(cell, steps):
    """How often an unroll of ``steps`` steps runs each TT map."""
    return {name: steps - (name not in RUNS_FROM_ZERO[cell.kind])
            for name, m in cell.named_maps().items() if isinstance(m, TTLinear)}


class TestConstruction:
    def test_param_counts_match_accounting(self):
        # Formula-based accounting must agree with real constructed cells.
        cell = make_cell("srnn", 32, 100, np.random.default_rng(0),
                         in_modes=(4, 8), hidden_modes=(10, 10), rank=5)
        assert cell.param_count() == 1700
        assert cell_param_count("srnn", 32, 100, (4, 8), (10, 10), 5) == 1700

        cell = make_cell("gru", 32, 100, np.random.default_rng(0),
                         in_modes=(4, 8), hidden_modes=(10, 10), rank=3)
        assert cell.param_count() == 3180
        assert cell_param_count("gru", 32, 100, (4, 8), (10, 10), 3) == 3180

        cell = make_cell("gru", 32, 256, np.random.default_rng(0))
        assert cell.param_count() == 221952
        assert cell_param_count("gru", 32, 256) == 221952

    def test_cell_maps_must_be_biasless(self):
        from ttrnn.linear import DenseLinear
        rng = np.random.default_rng(0)
        with_bias = DenseLinear.glorot(4, 3, rng, bias=True)
        plain = DenseLinear.glorot(4, 4, rng, bias=False)
        with pytest.raises(ShapeError):
            SRNNCell(with_bias, plain, np.zeros(4))

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        from ttrnn.linear import DenseLinear
        wx = DenseLinear.glorot(4, 3, rng, bias=False)
        wh = DenseLinear.glorot(4, 5, rng, bias=False)
        with pytest.raises(ShapeError):
            SRNNCell(wx, wh, np.zeros(4))

    def test_bias_shape_checked(self):
        from ttrnn.linear import DenseLinear
        rng = np.random.default_rng(0)
        wx = DenseLinear.glorot(4, 3, rng, bias=False)
        wh = DenseLinear.glorot(4, 4, rng, bias=False)
        for bias in (np.zeros(5), None):
            with pytest.raises(ShapeError, match=r"bias must have shape \(4,\)"):
                SRNNCell(wx, wh, bias)
        cell = make_cell("gru", 3, 4, rng)
        biases = {g: np.zeros(4) for g in GRUCell.GATES}
        biases["z"] = np.zeros((4, 1))
        with pytest.raises(ShapeError, match=r"bias\[z\] must have shape \(4,\)"):
            GRUCell(cell.wx, cell.wh, biases)

    def test_gru_requires_all_gates(self):
        rng = np.random.default_rng(0)
        from ttrnn.linear import DenseLinear

        def m(o, i):
            return DenseLinear.glorot(o, i, rng, bias=False)

        wx = {"r": m(4, 3), "z": m(4, 3)}
        wh = {g: m(4, 4) for g in ("r", "z", "h")}
        with pytest.raises(ShapeError):
            GRUCell(wx, wh, {g: np.zeros(4) for g in ("r", "z", "h")})


class TestUnrollErrors:
    def test_bad_shapes(self):
        cell = dense_srnn()
        with pytest.raises(ShapeError):
            unroll(cell, np.zeros((2, 3, 99)))
        with pytest.raises(ShapeError):
            unroll(cell, np.zeros((0, 3, 3)))
        with pytest.raises(ShapeError):
            unroll(cell, np.zeros((2, 3, 3)), mask=np.ones((2, 4)))

    def test_bptt_needs_some_gradient(self):
        cell = dense_srnn()
        _, caches = unroll(cell, np.zeros((2, 1, 3)))
        with pytest.raises(ShapeError):
            bptt(cell, caches)

    @pytest.mark.parametrize("grads", [
        {"grad_h_last": np.zeros((2, 4))},
        {"grad_h_seq": np.zeros((1, 3, 4))},
        {"grad_h_seq": np.zeros((3, 3, 4))},
    ], ids=["last-batch", "seq-fewer-steps", "seq-more-steps"])
    def test_bptt_rejects_gradients_unlike_the_unroll(self, grads):
        # The unroll ran T=2 steps on a batch of 3.
        cell = dense_srnn()
        _, caches = unroll(cell, np.zeros((2, 3, 3)))
        with pytest.raises(ShapeError):
            bptt(cell, caches, **grads)


def row_tt_gru(seed=0):
    # The mnist-row-ttgru cell: 100 = 10x10 hidden, 32 = 4x8 input, rank 3.
    return make_cell("gru", 32, 100, np.random.default_rng(seed),
                     in_modes=(4, 8), hidden_modes=(10, 10), rank=3)


def row_tt_srnn(seed=0):
    return make_cell("srnn", 32, 100, np.random.default_rng(seed),
                     in_modes=(4, 8), hidden_modes=(10, 10), rank=3)


class TestExecutionPlans:
    @staticmethod
    def run(cell, x_seq, mask, proj_seq):
        h_seq, caches = unroll(cell, x_seq, mask=mask)
        cell.zero_grads()
        grad_x = bptt(cell, caches, grad_h_seq=proj_seq)
        return h_seq, grad_x, {k: v.copy() for k, v in cell.grads().items()}

    @pytest.mark.parametrize("factory", [row_tt_srnn, row_tt_gru],
                             ids=lambda f: f.__name__)
    def test_dense_and_sweep_plans_agree(self, factory, monkeypatch):
        cell = factory(seed=3)
        rng = np.random.default_rng(5)
        x_seq = rng.standard_normal((6, 4, cell.input_dim))
        mask = np.ones((6, 4))
        mask[4:, 1] = 0.0
        proj_seq = rng.standard_normal((6, 4, cell.hidden_dim))
        out = {}
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            out[plan] = self.run(cell, x_seq, mask, proj_seq)
        (h_d, gx_d, g_d), (h_s, gx_s, g_s) = out["dense"], out["sweep"]
        np.testing.assert_allclose(h_d, h_s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx_d, gx_s, rtol=0, atol=1e-12)
        assert set(g_d) == set(g_s)
        for name in g_d:
            np.testing.assert_allclose(g_d[name], g_s[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_bptt_twice_adds_twice_the_gradient(self, factory, plan, monkeypatch):
        # The dense plan zeroes its accumulated dW.T when it flushes; a
        # second bptt over the same caches must add the same amount again.
        force_plan(monkeypatch, plan)
        cell = factory(seed=4)
        rng = np.random.default_rng(6)
        x_seq = rng.standard_normal((3, 2, cell.input_dim))
        proj = rng.standard_normal((2, cell.hidden_dim))
        _, caches = unroll(cell, x_seq)
        cell.zero_grads()
        gx_once = bptt(cell, caches, grad_h_last=proj)
        once = {k: v.copy() for k, v in cell.grads().items()}
        gx_twice = bptt(cell, caches, grad_h_last=proj)
        np.testing.assert_array_equal(gx_twice, gx_once)
        for name, g in cell.grads().items():
            assert np.any(once[name] != 0.0), name
            np.testing.assert_allclose(g, 2.0 * once[name], rtol=1e-14, atol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("plan", PLANS)
    def test_dense_plan_runs_no_sweep(self, plan, monkeypatch):
        # The dense plan builds W.T from the cores and flushes onto them
        # without sweeping the map; the sweep plan sweeps once per run of a
        # map, 6T - 4 times per GRU unroll (step 0 runs only wxz and wxh).
        cell = row_tt_gru(seed=1)
        assert all(linear.takes_dense_plan(m.tt.spec) for m in tt_maps(cell))
        force_plan(monkeypatch, plan)
        calls = {"forward_cached": 0, "backward": 0}
        for attr in calls:
            def counted(self, *args, _fn=getattr(TTLinear, attr), _attr=attr):
                calls[_attr] += 1
                return _fn(self, *args)
            monkeypatch.setattr(TTLinear, attr, counted)
        steps = 5
        x_seq, mask, proj_seq = masked_inputs(cell, steps=steps)
        _, caches = unroll(cell, x_seq, mask=mask)
        bptt(cell, caches, grad_h_seq=proj_seq)
        want = 0 if plan == "dense" else 6 * steps - 4
        assert calls == {"forward_cached": want, "backward": want}

    def test_flops_per_row_counts_each_core_step(self):
        # 100x100 rank 3: each of the two cores costs 2 * 10 * 3 * 10 * 10.
        spec = TTSpec.with_rank((10, 10), (10, 10), 3)
        assert spec.flops_per_row() == 12000
        # A single core is the dense matvec.
        assert TTSpec.with_rank((7,), (5,), 1).flops_per_row() == 2 * 35

    @pytest.mark.parametrize("out_modes, in_modes, rank, plan", [
        # Every shipped map's plan, read with F as the cost of the sweep's own
        # direction (tests/test_ttmatrix.py pins each direction).
        # mnist-row-ttgru: wx and wh of the TT-GRU-100.
        ((10, 10), (4, 8), 3, "dense"),
        ((10, 10), (10, 10), 3, "dense"),
        # pianoroll-ttsrnn: 64 = 8x8 hidden, 32 = 4x8 input, rank 4.
        ((8, 8), (4, 8), 4, "dense"),
        ((8, 8), (8, 8), 4, "dense"),
        # 256x256 on either side of M*N <= flops_per_row (65536 vs 32768/65536).
        ((16, 16), (16, 16), 2, "sweep"),
        ((16, 16), (16, 16), 4, "dense"),
        # The benchmark's wide TT-SRNN: hidden 4096, input 256, rank 4.
        ((16, 16, 16), (4, 8, 8), 4, "sweep"),
        ((16, 16, 16), (16, 16, 16), 4, "sweep"),
        # inspect-demo: hidden 1024 = 8x4x8x4, input 256 = 4x4x4x4, rank 5.
        ((8, 4, 8, 4), (4, 4, 4, 4), 5, "sweep"),
        ((8, 4, 8, 4), (8, 4, 8, 4), 5, "sweep"),
    ])
    def test_rule_picks_plan_from_shape(self, out_modes, in_modes, rank, plan):
        spec = TTSpec.with_rank(out_modes, in_modes, rank)
        assert ("dense" if linear.takes_dense_plan(spec) else "sweep") == plan


def tt_maps(cell):
    return [m for m in cell.named_maps().values() if isinstance(m, TTLinear)]


def arrays_in(value):
    """Every array in a cache, however its tuples and lists nest."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from arrays_in(v)


def masked_inputs(cell, steps=4, batch=3, seed=9):
    """A sequence with two padded steps, its mask and a per-step gradient."""
    rng = np.random.default_rng(seed)
    x_seq = rng.standard_normal((steps, batch, cell.input_dim))
    mask = np.ones((steps, batch))
    mask[2, 1] = 0.0
    mask[steps - 1, batch - 1] = 0.0
    proj_seq = rng.standard_normal((steps, batch, cell.hidden_dim))
    return x_seq, mask, proj_seq


class TestSweepWorkspace:
    """Sweep-plan TT maps write unroll step t into slot t of a workspace
    that outlives the unroll; the step caches are views into it."""

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("reuse", ["unroll", "forward"])
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_stale_caches_raise(self, factory, reuse, plan, monkeypatch):
        # Building a dense view starts a new generation of its map, as a
        # lease does, so either plan refuses an unroll whose map has moved
        # on to a later one.
        force_plan(monkeypatch, plan)
        cell = factory(seed=3)
        x_a, mask, proj_seq = masked_inputs(cell, seed=1)
        x_b = masked_inputs(cell, seed=2)[0]
        _, caches_a = unroll(cell, x_a, mask=mask)
        if reuse == "unroll":
            h_b, caches_b = unroll(cell, x_b, mask=mask)
        else:
            # One map's forward is enough: it leases that map's workspace.
            last = tt_maps(cell)[-1]
            last.forward(np.ones((1, last.in_dim)))
        cell.zero_grads()
        with pytest.raises(ShapeError, match="stale"):
            bptt(cell, caches_a, grad_h_seq=proj_seq)
        for name, g in cell.grads().items():
            assert not g.any(), f"{name} moved before the stale unroll was refused"
        if reuse == "forward":
            h_b, caches_b = unroll(cell, x_b, mask=mask)
        gx_b = bptt(cell, caches_b, grad_h_seq=proj_seq)

        fresh = factory(seed=3)
        h_f, gx_f, g_f = TestExecutionPlans.run(fresh, x_b, mask, proj_seq)
        np.testing.assert_array_equal(h_b, h_f)
        np.testing.assert_array_equal(gx_b, gx_f)
        for name, g in cell.grads().items():
            np.testing.assert_array_equal(g, g_f[name], err_msg=name)

    @pytest.mark.parametrize("factory", ALL_CELLS, ids=lambda f: f.__name__)
    def test_no_result_shares_the_workspace(self, factory, monkeypatch):
        # The GRU's gate math writes in place into what its maps return, and
        # adds three maps' input gradients in place (grad_x += ...); were a
        # result a view of a cache, of the weights or of a workspace, that
        # would corrupt it.
        returned = []  # (map, method, result, cache)
        for cls in (TTLinear, DenseView, DenseLinear):
            for attr in ("forward_cached", "backward"):
                def recorded(self, *args, _fn=getattr(cls, attr), _attr=attr):
                    out = _fn(self, *args)
                    if _attr == "forward_cached":
                        returned.append((self, _attr) + out)
                    else:
                        returned.append((self, _attr, out, args[1]))
                    return out
                monkeypatch.setattr(cls, attr, recorded)
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            cell = factory(seed=2)
            x_seq, mask, proj_seq = masked_inputs(cell)
            returned.clear()
            h_seq, caches = unroll(cell, x_seq, mask=mask)
            grad_x = bptt(cell, caches, grad_h_seq=proj_seq)
            h_inf = _unroll(cell, x_seq, mask, cached=False)[0]
            assert returned
            for layer, attr, out, cache in returned:
                held = list(arrays_in(cache))
                if isinstance(layer, DenseView):
                    held += [a for a in (layer.wt, layer.grad_wt) if a is not None]
                    layer = layer.layer
                held += list(layer.params().values()) + list(layer.grads().values())
                if isinstance(layer, TTLinear):
                    held.append(layer.workspace)
                for a in held:
                    assert not np.shares_memory(out, a), (plan, attr)
            for out in (h_seq, grad_x, h_inf):
                for layer in tt_maps(cell):
                    assert not np.shares_memory(out, layer.workspace)
            if plan == "dense" or not tt_maps(cell):
                continue
            # wx sweeps right to left, so its first step (Q = 1) writes into
            # the workspace too.
            wx = cell.named_maps()["wx" if cell.kind == "srnn" else "wxh"]
            assert wx.tt.spec.right_to_left
            # forward_cached runs once per run of a map in training, once in
            # inference; the step from the zero state skips the hidden maps
            # and the GRU's wxr.
            names = {id(m): name for name, m in cell.named_maps().items()}
            runs = runs_per_unroll(cell, x_seq.shape[0])
            for attr, times in (("forward_cached", 2), ("backward", 1)):
                counts = {name: 0 for name in runs}
                for layer, seen, _, _ in returned:
                    if seen == attr and isinstance(layer, TTLinear):
                        counts[names[id(layer)]] += 1
                        assert layer.workspace.size > 0
                assert counts == {name: times * n for name, n in runs.items()}, attr

    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_same_shape_unrolls_reuse_one_buffer(self, factory, monkeypatch):
        force_plan(monkeypatch, "sweep")
        cell = factory(seed=1)
        maps = tt_maps(cell)

        def train_at(steps, batch):
            x_seq, mask, proj_seq = masked_inputs(cell, steps, batch)
            _, caches = unroll(cell, x_seq, mask=mask)
            bptt(cell, caches, grad_h_seq=proj_seq)
            _unroll(cell, x_seq, mask, cached=False)
            held = [(m.workspace, m.workspace.ctypes.data) for m in maps]
            # Bare forward_cached + backward pairs at the same batch fit in
            # what the unroll leased, and their step inputs live there.
            for m, (workspace, address) in zip(maps, held):
                for _ in range(steps):
                    _, cache = m.forward_cached(np.ones((batch, m.in_dim)))
                    assert m.workspace is workspace
                    assert m.workspace.ctypes.data == address
                    for z in cache[0][1:]:
                        assert np.shares_memory(z, workspace)
                    m.backward(np.ones((batch, m.out_dim)), cache)
            return held

        def same(a, b):
            return all(wa is wb and pa == pb for (wa, pa), (wb, pb) in zip(a, b))

        first = train_at(4, 3)
        assert same(train_at(4, 3), first)
        longer = train_at(6, 3)
        assert not any(wa is wb for (wa, _), (wb, _) in zip(longer, first))
        assert same(train_at(6, 3), longer)
        assert same(train_at(4, 3), longer)  # it never shrinks
        wider = train_at(4, 5)
        assert not any(wa is wb for (wa, _), (wb, _) in zip(wider, longer))
        assert same(train_at(4, 5), wider)

    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_inference_asks_for_no_cache(self, factory, monkeypatch):
        # Inference keeps no step cache, and each step sweeps into a lease
        # of one slot of its map's workspace where an unroll leases T.
        force_plan(monkeypatch, "sweep")
        leases = []
        real = SweepView.__init__

        def counted(self, layer, slots, batch):
            leases.append((layer, slots, batch))
            return real(self, layer, slots, batch)

        monkeypatch.setattr(SweepView, "__init__", counted)
        cell = factory(seed=6)
        x_seq, mask, _ = masked_inputs(cell)
        steps, batch = x_seq.shape[:2]
        h_inf, (_, step_caches, _, _) = _unroll(cell, x_seq, mask, cached=False)
        assert step_caches == []
        # One lease per run of a map: T - 1 for the maps step 0 skips.
        assert len(leases) == sum(runs_per_unroll(cell, steps).values())
        assert all(lease[1:] == (1, batch) for lease in leases)
        leases.clear()
        h_seq, _ = unroll(cell, x_seq, mask=mask)
        assert [lease[1:] for lease in leases] == [(steps, batch)] * len(tt_maps(cell))
        np.testing.assert_array_equal(h_inf, h_seq)

    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_an_unroll_builds_each_maps_core_matrices_once(self, factory, monkeypatch):
        # A lease computes the core matrices for all of its sweeps, and the
        # backward passes read them off it.
        force_plan(monkeypatch, "sweep")
        built = []
        real = TTLinear._core_matrices

        def counted(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(TTLinear, "_core_matrices", counted)
        cell = factory(seed=5)
        x_seq, mask, proj_seq = masked_inputs(cell)
        _, caches = unroll(cell, x_seq, mask=mask)
        bptt(cell, caches, grad_h_seq=proj_seq)
        assert sorted(map(id, built)) == sorted(map(id, tt_maps(cell)))

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("factory", [tt_srnn, tt_gru], ids=lambda f: f.__name__)
    def test_maps_are_freed_by_reference_counting(self, factory, plan, monkeypatch):
        # A map never holds its views, so no map <-> view cycle keeps a
        # dropped cell's workspaces alive until the cyclic collector runs.
        force_plan(monkeypatch, plan)
        gc.disable()
        try:
            cell = factory(seed=4)
            x_seq, mask, proj_seq = masked_inputs(cell)
            _, caches = unroll(cell, x_seq, mask=mask)
            bptt(cell, caches, grad_h_seq=proj_seq)
            _unroll(cell, x_seq, mask, cached=False)
            workspaces = [weakref.ref(m.workspace) for m in tt_maps(cell)]
            assert workspaces
            del cell, caches
            assert all(ref() is None for ref in workspaces)
        finally:
            gc.enable()

    def test_right_to_left_first_step_writes_into_the_slot(self):
        # tt_srnn's wx (3x2 by 2x3) sweeps core 1 first; that step has one
        # column per block (Q = 1), yet only the last step's output is fresh.
        wx = tt_srnn(seed=1).wx
        assert wx.tt.spec.right_to_left
        shapes = wx.tt.spec.sweep_shapes(3)
        assert shapes[0][3] == 1 and shapes[-1][3] > 1
        x = np.random.default_rng(0).standard_normal((3, wx.in_dim))
        lease = SweepView(wx, 2, 3)
        lease.forward_cached(np.zeros_like(x))  # slot 0
        y, cache = lease.forward_cached(x)
        z_inputs, _ = cache
        size = sum(rows * height * cols for rows, height, _, cols in shapes[:-1])
        slot = wx.workspace[size:2 * size]
        assert not np.shares_memory(z_inputs[0], wx.workspace)  # x itself
        assert np.shares_memory(z_inputs[1], slot)  # step 0's output
        assert not np.shares_memory(y, wx.workspace)
        dx = wx.backward(np.ones((3, wx.out_dim)), cache)
        assert not np.shares_memory(dx, wx.workspace)
        np.testing.assert_allclose(y, x @ wx.tt.to_dense().T, rtol=1e-13, atol=1e-15)


class TranscribedGRU(GRUCell):
    """The GRU's gate math out of place, a fresh array for every operation:
    the reference that GRUCell's in-place math must match bit for bit."""

    def _step(self, maps, x_t, h_prev, h_out, kept):
        # kept goes unused; h_t lands where the unroll asks for it.
        az, cxz = maps["wxz"].forward_cached(x_t)
        ac, cxh = maps["wxh"].forward_cached(x_t)
        if h_prev is None:
            z = sigmoid(az + self.bias["z"])
            c = np.tanh(ac + self.bias["h"])
            return np.multiply(z, c, out=h_out), (cxz, cxh, z, c, None)
        ar, cxr = maps["wxr"].forward_cached(x_t)
        br, chr_ = maps["whr"].forward_cached(h_prev)
        r = sigmoid(ar + br + self.bias["r"])
        bz, chz = maps["whz"].forward_cached(h_prev)
        z = sigmoid(az + bz + self.bias["z"])
        s = r * h_prev
        bc, chh = maps["whh"].forward_cached(s)
        c = np.tanh(ac + bc + self.bias["h"])
        h_t = np.add((1.0 - z) * h_prev, z * c, out=h_out)
        return h_t, (cxz, cxh, z, c, (cxr, chr_, chz, chh, r, h_prev))

    def _step_backward(self, maps, grad_h, cache):
        cxz, cxh, z, c, hidden = cache
        h_prev = 0.0 if hidden is None else hidden[-1]
        dz = grad_h * (c - h_prev)
        dc = grad_h * z
        dac = dc * (1.0 - c * c)
        self.grad_bias["h"] += dac.sum(axis=0)
        grad_x = maps["wxh"].backward(dac, cxh)
        daz = dz * z * (1.0 - z)
        self.grad_bias["z"] += daz.sum(axis=0)
        grad_x += maps["wxz"].backward(daz, cxz)
        if hidden is None:
            return grad_x, None
        cxr, chr_, chz, chh, r, _ = hidden
        dh_prev = grad_h * (1.0 - z)
        ds = maps["whh"].backward(dac, chh)
        dr = ds * h_prev
        dh_prev = dh_prev + ds * r
        dh_prev += maps["whz"].backward(daz, chz)
        dar = dr * r * (1.0 - r)
        self.grad_bias["r"] += dar.sum(axis=0)
        grad_x += maps["wxr"].backward(dar, cxr)
        dh_prev += maps["whr"].backward(dar, chr_)
        return grad_x, dh_prev


class TestInPlaceGateMath:
    """GRUCell runs its gate math in place; each operation keeps its
    operands and order, so every result has the same bits as the
    transcription's."""

    @staticmethod
    def run(cell, x_seq, mask, proj_seq, proj_last):
        h_seq, caches = unroll(cell, x_seq, mask=mask)
        cell.zero_grads()
        grad_x = bptt(cell, caches, grad_h_seq=proj_seq, grad_h_last=proj_last)
        h_inf = _unroll(cell, x_seq, mask, cached=False)[0]
        grads = {k: v.copy() for k, v in cell.grads().items()}
        return {"h_seq": h_seq, "grad_x": grad_x, "h_inf": h_inf, **grads}

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("factory, plan", [
        (dense_gru, None), (tt_gru, "dense"), (tt_gru, "sweep"),
    ], ids=["dense_gru", "tt_gru-dense", "tt_gru-sweep"])
    def test_same_bits_as_the_transcription(self, factory, plan, masked, steps,
                                            monkeypatch):
        if plan is not None:
            force_plan(monkeypatch, plan)
        cell = factory(seed=7)
        transcribed = factory(seed=7)
        transcribed.__class__ = TranscribedGRU
        rng = np.random.default_rng(13)
        for c in (cell, transcribed):
            for b in c.named_arrays().values():
                b[...] = np.random.default_rng(14).standard_normal(b.shape)
        batch = 3
        x_seq = rng.standard_normal((steps, batch, cell.input_dim))
        mask = None
        if masked:
            mask = np.ones((steps, batch))
            mask[0, 0] = 0.0
            mask[steps - 1, batch - 1] = 0.0
        proj_seq = rng.standard_normal((steps, batch, cell.hidden_dim))
        proj_last = rng.standard_normal((batch, cell.hidden_dim))
        got = self.run(cell, x_seq, mask, proj_seq, proj_last)
        want = self.run(transcribed, x_seq, mask, proj_seq, proj_last)
        assert set(got) == set(want)
        for key, a in got.items():
            # Compared as integers, so even the sign of a zero must match.
            np.testing.assert_array_equal(a.view(np.int64), want[key].view(np.int64),
                                          err_msg=key)

    @pytest.mark.parametrize("factory", [dense_gru, tt_gru], ids=lambda f: f.__name__)
    def test_step_same_bits_as_the_transcription(self, factory):
        # Cell.step gives its one step fresh arrays.
        cell = factory(seed=8)
        transcribed = factory(seed=8)
        transcribed.__class__ = TranscribedGRU
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, cell.input_dim))
        h = rng.standard_normal((3, cell.hidden_dim))
        got, cache = cell.step(x, h)
        want, want_cache = transcribed.step(x, h)
        kept = [cache[2], cache[3], cache[4][4]]  # z, c, r
        for a, b in zip([got] + kept, [want, want_cache[2], want_cache[3],
                                       want_cache[4][4]]):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestUnrollBlock:
    """An unroll writes each step's h_t (or blended state) into h_seq and
    the GRU's z, c, r and s into row t of one block, so a training step's
    cache holds views of the unroll's arrays and no array of its own."""

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("factory, plan", [
        (dense_gru, None), (tt_gru, "dense"), (tt_gru, "sweep"),
    ], ids=["dense_gru", "tt_gru-dense", "tt_gru-sweep"])
    def test_gru_caches_hold_views_of_the_unroll(self, factory, plan, masked,
                                                 monkeypatch):
        if plan is not None:
            force_plan(monkeypatch, plan)
        cell = factory(seed=3)
        x_seq, mask, _ = masked_inputs(cell)
        h_seq, (_, step_caches, _, _) = unroll(cell, x_seq,
                                               mask=mask if masked else None)
        steps, batch = x_seq.shape[:2]
        block = step_caches[0][2].base
        assert block.shape == (steps, len(GRUCell.KEPT), batch, cell.hidden_dim)
        owners = [x_seq, h_seq, block] + [m.workspace for m in tt_maps(cell)]
        for t, cache in enumerate(step_caches):
            _, _, z, c, hidden = cache
            assert np.shares_memory(z, block[t, 0])
            assert np.shares_memory(c, block[t, 1])
            if hidden is not None:
                _, _, _, chh, r, h_prev = hidden
                assert np.shares_memory(r, block[t, 2])
                s = next(arrays_in(chh))  # the input whh read
                assert np.shares_memory(s, block[t, 3])
                assert np.shares_memory(h_prev, h_seq[t - 1])
            for a in arrays_in(cache):
                assert any(np.shares_memory(a, o) for o in owners), (t, a.shape)

    @pytest.mark.parametrize("factory", ALL_CELLS, ids=lambda f: f.__name__)
    def test_unmasked_steps_write_h_t_into_h_seq(self, factory, monkeypatch):
        force_plan(monkeypatch, "sweep")
        cell = factory(seed=2)
        x_seq, _, _ = masked_inputs(cell)
        returned = []
        real = type(cell)._step

        def recorded(self, *args):
            out = real(self, *args)
            returned.append(out[0])
            return out

        monkeypatch.setattr(type(cell), "_step", recorded)
        h_seq, _ = unroll(cell, x_seq)
        assert len(returned) == x_seq.shape[0]
        for t, h_t in enumerate(returned):
            assert h_t.base is h_seq and np.shares_memory(h_t, h_seq[t])
