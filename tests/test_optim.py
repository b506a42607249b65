"""Adam and gradient clipping against hand-computed and transcribed oracles."""

import numpy as np
import pytest

from ttrnn import ShapeError
from ttrnn.optim import Adam, clip_global_norm, global_norm


def test_first_step_hand_value():
    # After one step m-hat = g, v-hat = g^2, so theta moves by
    # lr * g / (|g| + eps) regardless of g's magnitude.
    theta = {"w": np.array([1.0])}
    opt = Adam(theta, lr=0.001)
    opt.step({"w": np.array([0.5])})
    want = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
    assert theta["w"][0] == pytest.approx(want, rel=1e-12)


def test_matches_reference_transcription():
    # Independent loop with the textbook update formulas, fresh arrays each
    # step instead of in-place moments.
    rng = np.random.default_rng(0)
    p0 = rng.standard_normal(7)
    grads = [rng.standard_normal(7) for _ in range(25)]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

    ref = p0.copy()
    m = np.zeros(7)
    v = np.zeros(7)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)

    theta = {"w": p0.copy()}
    opt = Adam(theta, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for g in grads:
        opt.step({"w": g})
    np.testing.assert_allclose(theta["w"], ref, rtol=1e-12, atol=1e-14)


def test_in_place_step_is_the_expression_to_the_bit():
    # The step runs through scratch arrays; it must round exactly as the
    # one-expression update does, for parameters of several shapes and
    # sizes (the scratch is sized for the largest and shared).
    rng = np.random.default_rng(3)
    shapes = {"head": (9, 40), "bias": (9,), "core": (2, 3, 4, 5), "one": ()}
    p0 = {k: rng.standard_normal(s) for k, s in shapes.items()}
    grads = [{k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
              for k, s in shapes.items()} for _ in range(8)]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8

    ref = {k: p.copy() for k, p in p0.items()}
    m = {k: np.zeros_like(p) for k, p in p0.items()}
    v = {k: np.zeros_like(p) for k, p in p0.items()}
    for t, step in enumerate(grads, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, g in step.items():
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * (g * g)
            ref[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)

    theta = {k: p.copy() for k, p in p0.items()}
    opt = Adam(theta, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for step in grads:
        opt.step(step)
    for k in shapes:
        np.testing.assert_array_equal(theta[k], ref[k])
        np.testing.assert_array_equal(opt.m[k], m[k])
        np.testing.assert_array_equal(opt.v[k], v[k])


def test_step_allocates_no_parameter_sized_arrays():
    import tracemalloc

    theta = {"big": np.ones((300, 200)), "small": np.ones(7)}
    grads = {k: np.full_like(p, 0.5) for k, p in theta.items()}
    opt = Adam(theta)
    opt.step(grads)
    tracemalloc.start()
    try:
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < theta["big"].nbytes // 4


def test_quadratic_convergence():
    target = np.array([3.0, -1.5, 0.25])
    theta = {"x": np.zeros(3)}
    opt = Adam(theta, lr=0.05)
    for _ in range(500):
        opt.step({"x": 2.0 * (theta["x"] - target)})
    np.testing.assert_allclose(theta["x"], target, atol=1e-3)


def test_updates_in_place():
    w = np.ones(4)
    opt = Adam({"w": w}, lr=0.1)
    opt.step({"w": np.ones(4)})
    assert not np.allclose(w, 1.0)  # same array the caller holds


def test_state_round_trip():
    rng = np.random.default_rng(1)
    w1 = rng.standard_normal(5)
    w2 = w1.copy()
    grads = [rng.standard_normal(5) for _ in range(10)]

    a = Adam({"w": w1}, lr=0.02)
    for g in grads[:4]:
        a.step({"w": g})
    saved = {k: v.copy() for k, v in a.state().items()}
    w_saved = w1.copy()
    for g in grads[4:]:
        a.step({"w": g})
    final_direct = w1.copy()

    b = Adam({"w": w2}, lr=0.02)
    w2[...] = w_saved
    b.load_state(saved)
    assert b.t == 4
    for g in grads[4:]:
        b.step({"w": g})
    np.testing.assert_array_equal(w2, final_direct)


def test_key_mismatch_rejected():
    opt = Adam({"a": np.zeros(2)})
    with pytest.raises(ShapeError):
        opt.step({"b": np.zeros(2)})
    with pytest.raises(ShapeError):
        opt.step({"a": np.zeros(3)})
    with pytest.raises(ShapeError):
        opt.load_state({"t": np.array([1.0])})


@pytest.mark.parametrize("key, value, match", [
    ("m.w", np.zeros(1), "m.w has shape"),
    ("v.w", np.zeros(4), "v.w has shape"),
    ("m.w", np.zeros((4, 3)), "m.w has shape"),
    ("t", np.array([2.7]), "t must be one non-negative whole number"),
    ("t", np.array([-1.0]), "t must be one non-negative whole number"),
    ("t", np.array([np.nan]), "t must be one non-negative whole number"),
    ("t", np.array([1.0, 2.0]), "t must be one non-negative whole number"),
], ids=["m-broadcast", "v-broadcast", "m-transposed", "t-fraction",
        "t-negative", "t-nan", "t-two-values"])
def test_load_state_checks_before_copying(key, value, match):
    rng = np.random.default_rng(2)
    opt = Adam({"w": rng.standard_normal((3, 4)), "b": np.zeros(3)})
    for _ in range(2):
        opt.step({"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(3)})
    before = {k: v.copy() for k, v in opt.state().items()}
    # Every other entry is valid and differs from the live state, so a
    # partial copy would show.
    state = {k: v + 1.0 for k, v in before.items()}
    state[key] = value
    with pytest.raises(ShapeError, match=match):
        opt.load_state(state)
    assert opt.t == 2
    for k, v in opt.state().items():
        np.testing.assert_array_equal(v, before[k])


class TestClip:
    def test_norm_value(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_norm(grads) == pytest.approx(5.0)

    def test_scales_in_place_when_over(self):
        a = np.array([3.0])
        b = np.array([4.0])
        pre = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert global_norm({"a": a, "b": b}) == pytest.approx(1.0)
        np.testing.assert_allclose(a, [0.6])
        np.testing.assert_allclose(b, [0.8])

    def test_noop_when_under(self):
        a = np.array([0.3, 0.4])
        pre = clip_global_norm({"a": a}, max_norm=10.0)
        assert pre == pytest.approx(0.5)
        np.testing.assert_array_equal(a, [0.3, 0.4])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ShapeError):
            clip_global_norm({"a": np.ones(1)}, max_norm=0.0)
