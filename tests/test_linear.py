"""Dense and TT affine maps: forward against dense reconstruction, backward
against central finite differences."""

import numpy as np
import pytest

from fdcheck import assert_grads_close, numeric_grad
from ttrnn import DenseLinear, ShapeError, TTLinear, TTMatrix, TTSpec
from ttrnn.linear import DenseView, SweepView


def make_tt_layer(out_modes, in_modes, ranks, seed=0):
    spec = TTSpec(out_modes, in_modes, ranks)
    return TTLinear.glorot(spec, np.random.default_rng(seed))


# Each spec's sweep direction (TTSpec.right_to_left) is in the comment; a
# one-core map always ties, and ties sweep left to right.
SPECS = [
    ((2, 3), (4, 5), (1, 2, 1)),  # left to right
    ((3, 4, 2), (2, 5, 3), (1, 2, 3, 1)),  # right to left
    ((6,), (4,), (1, 1)),  # tie (d = 1)
    ((2, 2, 2, 2), (3, 2, 2, 3), (1, 2, 4, 2, 1)),  # left to right
    ((5, 4), (4, 5), (1, 1, 1)),  # right to left
    ((4, 5), (2, 3), (1, 2, 1)),  # right to left
    ((4, 3, 2, 3), (2, 2, 3, 2), (1, 3, 2, 4, 1)),  # right to left
    ((2, 2, 3), (2, 3, 3), (1, 3, 2, 1)),  # tie, not square
]


class TestForward:
    @pytest.mark.parametrize("out_m,in_m,ranks", SPECS)
    def test_tt_matches_dense_reconstruction(self, out_m, in_m, ranks):
        layer = make_tt_layer(out_m, in_m, ranks)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((7, layer.in_dim))
        y = layer.forward(x)
        w = layer.tt.to_dense()
        np.testing.assert_allclose(y, x @ w.T, rtol=1e-12, atol=1e-12)

    def test_batch_of_one_and_many(self):
        # forward reuses the layer's workspace across calls, growing it for
        # a larger batch; no result may share memory with it.
        layer = make_tt_layer((3, 4, 2), (2, 5, 3), (1, 2, 3, 1))
        rng = np.random.default_rng(0)
        w = layer.tt.to_dense()
        xs = [rng.standard_normal((b, 30)) for b in (1, 7, 3, 7)]
        ys = [layer.forward(x) for x in xs]
        for x, y in zip(xs, ys):
            assert not np.shares_memory(y, layer.workspace)
            np.testing.assert_allclose(y, x @ w.T, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(y, layer.forward_cached(x)[0])

    def test_dense_layer(self):
        rng = np.random.default_rng(3)
        layer = DenseLinear.glorot(5, 7, rng)
        layer.bias[:] = rng.standard_normal(5)
        x = rng.standard_normal((4, 7))
        # Scalar oracle loop.
        want = np.empty((4, 5))
        for b in range(4):
            for i in range(5):
                want[b, i] = sum(layer.weight[i, j] * x[b, j] for j in range(7))
                want[b, i] += layer.bias[i]
        np.testing.assert_allclose(layer.forward(x), want, rtol=1e-12, atol=1e-12)

    def test_no_bias(self):
        # A TT map is its cores; the cell that holds it owns the bias.
        layer = make_tt_layer((2, 3), (3, 2), (1, 2, 1))
        assert layer.bias is None
        assert list(layer.params()) == ["core0", "core1"]

    def test_shape_errors(self):
        layer = make_tt_layer((2, 3), (3, 2), (1, 2, 1))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(6))


class TestBackward:
    @pytest.mark.parametrize("out_m,in_m,ranks", SPECS)
    def test_tt_grads_match_finite_differences(self, out_m, in_m, ranks):
        # At batch 1 the last core step's 2-D GEMMs have only P_d rows;
        # with d = 1 that step is also the first.
        for batch in (1, 3):
            layer = make_tt_layer(out_m, in_m, ranks, seed=5)
            rng = np.random.default_rng(11)
            x = rng.standard_normal((batch, layer.in_dim))
            proj = rng.standard_normal((batch, layer.out_dim))

            def loss():
                return float(np.sum(layer.forward(x) * proj))

            y, cache = layer.forward_cached(x)
            layer.zero_grads()
            dx = layer.backward(proj, cache)

            for k, core in enumerate(layer.tt.cores):
                assert_grads_close(layer.grad_cores[k], numeric_grad(loss, core))
            assert_grads_close(dx, numeric_grad(loss, x))

    def test_tt_input_grad_matches_dense_path(self):
        layer = make_tt_layer((3, 4, 2), (2, 5, 3), (1, 2, 3, 1), seed=8)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, layer.in_dim))
        g = rng.standard_normal((5, layer.out_dim))
        _, cache = layer.forward_cached(x)
        layer.zero_grads()
        dx = layer.backward(g, cache)
        np.testing.assert_allclose(dx, g @ layer.tt.to_dense(), rtol=1e-12,
                                   atol=1e-12)

    def test_dense_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        layer = DenseLinear.glorot(4, 6, rng)
        layer.bias[:] = rng.standard_normal(4) * 0.3
        x = rng.standard_normal((3, 6))
        proj = rng.standard_normal((3, 4))

        def loss():
            return float(np.sum(layer.forward(x) * proj))

        _, cache = layer.forward_cached(x)
        layer.zero_grads()
        dx = layer.backward(proj, cache)
        assert_grads_close(layer.grad_weight, numeric_grad(loss, layer.weight))
        assert_grads_close(layer.grad_bias, numeric_grad(loss, layer.bias))
        assert_grads_close(dx, numeric_grad(loss, x))

    def test_grads_accumulate(self):
        layer = make_tt_layer((2, 3), (3, 2), (1, 2, 1))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6))
        g = rng.standard_normal((2, 6))
        _, cache = layer.forward_cached(x)
        layer.zero_grads()
        layer.backward(g, cache)
        once = [c.copy() for c in layer.grad_cores]
        _, cache = layer.forward_cached(x)
        layer.backward(g, cache)
        for c1, c2 in zip(once, layer.grad_cores):
            np.testing.assert_allclose(c2, 2 * c1, rtol=1e-12, atol=1e-14)

    def test_cache_replay_out_of_order(self):
        # BPTT replays caches newest-first; each slot's cache must stand
        # alone within the lease.
        layer = make_tt_layer((2, 3), (3, 2), (1, 2, 1))
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal((2, 6)) for _ in range(3)]
        gs = [rng.standard_normal((2, 6)) for _ in range(3)]
        lease = SweepView(layer, 3, 2)
        caches = [lease.forward_cached(x)[1] for x in xs]
        layer.zero_grads()
        for g, cache in zip(reversed(gs), reversed(caches)):
            layer.backward(g, cache)
        got = [c.copy() for c in layer.grad_cores]
        # Oracle: same three contributions accumulated forward-order.
        layer.zero_grads()
        for x, g in zip(xs, gs):
            _, cache = layer.forward_cached(x)
            layer.backward(g, cache)
        for a, b in zip(got, layer.grad_cores):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


class TestWorkspace:
    """Slot-backed caches: a ``SweepView`` lease, then its
    ``forward_cached(x)``."""

    SPEC = ((3, 4, 2), (2, 5, 3), (1, 2, 3, 1))

    def test_slot_path_matches_fresh_path_to_the_bit(self):
        # Slot t of one lease against bare calls, each of which leases slot
        # 0 afresh and is replayed before the next.
        layer = make_tt_layer(*self.SPEC, seed=2)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((3, 4, layer.in_dim))
        gs = rng.standard_normal((3, 4, layer.out_dim))
        layer.zero_grads()
        lease = SweepView(layer, 3, 4)
        outs = [lease.forward_cached(x) for x in xs]
        slotted = ([y for y, _ in outs],
                   [layer.backward(g, cache) for g, (_, cache) in zip(gs, outs)],
                   [g.copy() for g in layer.grads().values()])
        layer.zero_grads()
        ys, dxs = [], []
        for x, g in zip(xs, gs):
            y, cache = layer.forward_cached(x)
            ys.append(y)
            dxs.append(layer.backward(g, cache))
        bare = (ys, dxs, list(layer.grads().values()))
        for want, got in zip(bare, slotted):
            for a, b in zip(want, got):
                np.testing.assert_array_equal(a, b)
        for out in slotted[0] + slotted[1] + ys + dxs:
            assert not np.shares_memory(out, layer.workspace)

    @pytest.mark.parametrize("again", ["lease", "forward"])
    def test_slot_caches_go_stale_at_the_next_lease(self, again):
        layer = make_tt_layer(*self.SPEC)
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((2, 3, layer.in_dim))
        g = rng.standard_normal((3, layer.out_dim))

        def lease_again():
            if again == "lease":
                SweepView(layer, 2, 3)
            else:
                layer.forward(xs[0])

        def assert_stale(caches):
            before = [g.copy() for g in layer.grads().values()]
            for cache in caches:
                with pytest.raises(ShapeError, match="stale"):
                    layer.backward(g, cache)
            for a, b in zip(before, layer.grads().values()):
                np.testing.assert_array_equal(a, b)

        lease = SweepView(layer, 3, 3)  # a slot to spare for the last check
        caches = [lease.forward_cached(x)[1] for x in xs]
        for cache in caches[::-1] * 2:  # replaying a current lease is fine
            layer.backward(g, cache)
        lease_again()
        assert_stale(caches)
        with pytest.raises(ShapeError, match="stale"):  # nor sweeps into it
            lease.forward_cached(xs[0])
        # A bare forward_cached leases one slot: the same rule holds.
        _, cache = layer.forward_cached(xs[0])
        layer.backward(g, cache)
        lease_again()
        assert_stale([cache])

    def test_slot_outside_the_lease_raises(self):
        # A third sweep into a lease of two, or a sweep at the wrong batch.
        layer = make_tt_layer(*self.SPEC)
        lease = SweepView(layer, 2, 3)
        with pytest.raises(ShapeError, match="outside the lease"):
            lease.forward_cached(np.zeros((4, layer.in_dim)))
        for _ in range(2):
            lease.forward_cached(np.zeros((3, layer.in_dim)))
        with pytest.raises(ShapeError, match="outside the lease"):
            lease.forward_cached(np.zeros((3, layer.in_dim)))


class TestDenseView:
    """The dense plan's GEMM chain: ``W.T`` from the cores, and the flush of
    ``dW.T`` onto the core gradients."""

    @pytest.mark.parametrize("out_m,in_m,ranks", SPECS)
    def test_wt_matches_the_oracle(self, out_m, in_m, ranks):
        layer = make_tt_layer(out_m, in_m, ranks, seed=3)
        wt = DenseView(layer).wt
        w = layer.tt.to_dense()
        assert wt.shape == (layer.in_dim, layer.out_dim)
        assert wt.flags.c_contiguous
        # Relative to the largest entry; measured <= 3.6e-16 over random
        # specs with d = 1 to 4.
        np.testing.assert_allclose(wt, w.T, rtol=0, atol=1e-14 * np.abs(w).max())

    @pytest.mark.parametrize("out_m,in_m,ranks", SPECS)
    def test_flush_matches_the_sweep_backward(self, out_m, in_m, ranks):
        # Oracle: the sweep's own backward pass on the identity, whose
        # forward is W.T.
        layer = make_tt_layer(out_m, in_m, ranks, seed=4)
        dwt = np.random.default_rng(8).standard_normal((layer.in_dim, layer.out_dim))
        _, eye_cache = layer.forward_cached(np.eye(layer.in_dim))
        layer.zero_grads()
        layer.backward(dwt, eye_cache)
        want = [g.copy() for g in layer.grad_cores]
        layer.zero_grads()
        view = DenseView(layer)
        view.backward(dwt, np.eye(layer.in_dim))  # grad_wt = eye.T @ dwt
        view.flush()
        assert view.grad_wt is None
        for k, (got, ref) in enumerate(zip(layer.grad_cores, want)):
            # Relative to the largest entry; measured <= 2.4e-15.
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-13 * np.abs(ref).max(),
                                       err_msg=f"core{k}")

    @pytest.mark.parametrize("out_m,in_m,ranks", SPECS)
    def test_flush_matches_finite_differences(self, out_m, in_m, ranks):
        layer = make_tt_layer(out_m, in_m, ranks, seed=6)
        proj = np.random.default_rng(9).standard_normal((layer.in_dim, layer.out_dim))

        def loss():
            return float(np.sum(DenseView(layer).wt * proj))

        layer.zero_grads()
        view = DenseView(layer)
        view.backward(proj, np.eye(layer.in_dim))
        view.flush()
        for k, core in enumerate(layer.tt.cores):
            assert_grads_close(layer.grad_cores[k], numeric_grad(loss, core))


class TestParams:
    def test_param_dicts_are_live_views(self):
        rng = np.random.default_rng(0)
        tt = make_tt_layer((2, 3), (3, 2), (1, 2, 1))
        tt3 = make_tt_layer((2, 3, 2), (3, 2, 1), (1, 2, 2, 1))
        dense = DenseLinear.glorot(3, 4, rng)
        dense_bare = DenseLinear.glorot(3, 4, rng, bias=False)
        cases = [
            (tt, {"core0": (tt.tt.cores[0], tt.grad_cores[0]),
                  "core1": (tt.tt.cores[1], tt.grad_cores[1])}),
            (tt3, {f"core{k}": (tt3.tt.cores[k], tt3.grad_cores[k]) for k in range(3)}),
            (dense, {"weight": (dense.weight, dense.grad_weight),
                     "bias": (dense.bias, dense.grad_bias)}),
            (dense_bare, {"weight": (dense_bare.weight, dense_bare.grad_weight)}),
        ]
        for layer, live in cases:
            params, grads = layer.params(), layer.grads()
            assert list(params) == list(live) and list(grads) == list(live)
            for key, (arr, grad) in live.items():
                assert params[key] is arr and grads[key] is grad
            first = next(iter(live))
            params[first][...] = 0.0
            assert np.all(live[first][0] == 0.0)

    def test_param_count(self):
        layer = make_tt_layer((10, 10), (4, 8), (1, 5, 1))
        assert layer.param_count() == 600
        dense = DenseLinear.glorot(100, 32, np.random.default_rng(0))
        assert dense.param_count() == 3200 + 100
