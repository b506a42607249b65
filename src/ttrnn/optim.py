"""Adam with bias correction, plus global gradient-norm clipping.

Parameters and gradients travel as ``dict[str, ndarray]`` with matching
keys; the optimizer updates the parameter arrays in place so every layer
holding a view sees the step immediately.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def global_norm(grads: dict) -> float:
    """L2 norm of all gradient arrays stacked into one vector."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is <= max_norm.

    Returns the pre-clip norm. No-op when already within bounds.
    """
    if max_norm <= 0:
        raise ShapeError(f"max_norm must be positive, got {max_norm}")
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """First/second-moment adaptive step with bias correction.

    m <- b1 m + (1-b1) g ; v <- b2 v + (1-b2) g^2
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p) for k, p in self.params.items()}
        # Two scratch arrays for the update's temporaries, sized for the
        # largest parameter, so a step allocates nothing.
        size = max((p.size for p in self.params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict) -> None:
        if set(grads) != set(self.params):
            missing = set(self.params) ^ set(grads)
            raise ShapeError(f"grad keys do not match param keys: {sorted(missing)}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            if g.shape != p.shape:
                raise ShapeError(f"grad {k} has shape {g.shape}, param {p.shape}")
            m = self.m[k]
            v = self.v[k]
            s, d = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            # The formula in the docstring, one operation at a time in its
            # order of evaluation, so the result is the same to the bit.
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=s)
            v *= self.beta2
            np.multiply(g, g, out=s)
            v += np.multiply(1.0 - self.beta2, s, out=s)
            np.divide(m, c1, out=s)
            s *= self.lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            p -= np.divide(s, d, out=s)

    def state(self) -> dict:
        """Serializable state: step count and both moment sets."""
        out = {"t": np.array([self.t], dtype=np.float64)}
        for k in self.params:
            out[f"m.{k}"] = self.m[k]
            out[f"v.{k}"] = self.v[k]
        return out

    def load_state(self, state: dict) -> None:
        """Restore what :meth:`state` returned. Every entry is checked
        before any is copied, so a load that fails leaves ``t``, ``m`` and
        ``v`` as they were."""
        want = set(self.state())
        if set(state) != want:
            raise ShapeError("optimizer state keys do not match this parameter set")
        t = np.asarray(state["t"], dtype=np.float64)
        if t.shape != (1,) or not (t[0] >= 0 and float(t[0]).is_integer()):
            raise ShapeError(f"optimizer state t must be one non-negative "
                             f"whole number, got {state['t']!r}")
        for k, p in self.params.items():
            for key in (f"m.{k}", f"v.{k}"):
                if np.shape(state[key]) != p.shape:
                    raise ShapeError(f"optimizer state {key} has shape "
                                     f"{np.shape(state[key])}, param {p.shape}")
        self.t = int(t[0])
        for k in self.params:
            self.m[k][...] = state[f"m.{k}"]
            self.v[k][...] = state[f"v.{k}"]
