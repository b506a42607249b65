"""One workload's trainer, built only from the public API ``train_run`` uses.

Import after :func:`program.require` has put the checkout's ``src/`` first
on ``sys.path``. Calls go through module attributes (``O.clip_global_norm``
here, ``data.make_batches`` inside ``make_eval_batches``) so the tracer's
wrappers see them.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

import numpy as np

from ttrnn import optim as O
from ttrnn.config import TrainConfig
from ttrnn.linear import TTLinear
from ttrnn.train import (batch_loss_and_grads, build_model, evaluate,
                         load_task_data, make_eval_batches)

# Directional finite-difference step and tolerances of tests/fdcheck.py.
FD_STEP = 1e-5
FD_RTOL = 1e-5
FD_ATOL = 1e-7
# Largest |TT forward - dense oracle| the gate accepts.
ORACLE_ATOL = 1e-10


@dataclass
class Trainer:
    """A built model with its optimizer and batches, plus failure counts."""

    cfg: TrainConfig
    model: object
    optimizer: O.Adam
    train_batches: list
    val_batches: list
    attempted: int = 0
    failed: int = 0

    @property
    def classify(self) -> bool:
        return self.cfg.is_classification()

    def train_step(self, batch) -> bool:
        """zero grads, loss and grads, clip, Adam: ``train_run``'s inner loop.

        The step fails if it raises or if its loss or pre-clip gradient norm
        is non-finite; a failed step never reaches the weights.
        """
        self.attempted += 1
        try:
            self.model.zero_grads()
            loss, _ = batch_loss_and_grads(self.model, batch, self.classify)
            grads = self.model.grads()
            norm = O.clip_global_norm(grads, self.cfg.clip_norm)
            ok = bool(np.isfinite(loss) and np.isfinite(norm))
            if ok:
                self.optimizer.step(grads)
            else:
                self._note(f"train step: loss {loss!r}, grad norm {norm!r}")
        except Exception:  # a failing step is counted; the loop goes on
            ok = False
            self._note(traceback.format_exc())
        self.failed += not ok
        return ok

    def eval_step(self, batch) -> bool:
        """Forward-only loss and metric of one batch through ``evaluate``."""
        self.attempted += 1
        try:
            loss, metric = evaluate(self.model, [batch], self.classify)
            ok = bool(np.isfinite(loss) and np.isfinite(metric))
            if not ok:
                self._note(f"eval step: loss {loss!r}, metric {metric!r}")
        except Exception:  # a failing step is counted; the loop goes on
            ok = False
            self._note(traceback.format_exc())
        self.failed += not ok
        return ok

    def _note(self, text: str):
        if not self.failed:  # report the first failure only
            print(f"step failed: {text}", file=sys.stderr)


def build(raw: dict) -> Trainer:
    """Config parse, model build, data read and batching (no step yet).

    Train and validation batches both keep file order
    (``make_eval_batches``); the inputs are already drawn from the seed.
    """
    cfg = TrainConfig.from_dict(raw)
    model = build_model(cfg, np.random.default_rng(cfg.seed_init))
    data = load_task_data(cfg)
    train_batches = make_eval_batches(cfg, data["train"], data["train_labels"])
    val_batches = make_eval_batches(cfg, data["val"], data["val_labels"])
    optimizer = O.Adam(model.params(), lr=cfg.lr, beta1=cfg.beta1,
                       beta2=cfg.beta2, eps=cfg.eps)
    return Trainer(cfg, model, optimizer, train_batches, val_batches)


def gate(raw: dict) -> list:
    """Correctness checks run before any timing; returns failure messages.

    * every TT map's forward equals ``x @ tt.to_dense().T`` within
      ``ORACLE_ATOL`` at the workload's batch size;
    * the gradient of one full train step's loss, projected on a random unit
      direction over all parameters, agrees with a central difference.
    """
    trainer = build(raw)
    cfg, model = trainer.cfg, trainer.model
    rng = np.random.default_rng([cfg.seed_init, 0x6a7e])
    failures = []
    for name, layer in model.named_maps().items():
        if not isinstance(layer, TTLinear):
            continue
        x = rng.standard_normal((cfg.batch_size, layer.in_dim))
        want = x @ layer.tt.to_dense(force=True).T
        if layer.bias is not None:
            want += layer.bias
        err = float(np.max(np.abs(layer.forward(x) - want)))
        if not err <= ORACLE_ATOL:
            failures.append(f"{name}: TT forward differs from the dense oracle "
                            f"by {err:.3e} > {ORACLE_ATOL:g}")

    batch = trainer.train_batches[0]

    def loss():
        model.zero_grads()
        return batch_loss_and_grads(model, batch, trainer.classify)[0]

    loss()
    params = model.params()
    grads = {k: g.copy() for k, g in model.grads().items()}
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    scale = float(np.sqrt(sum(float(np.sum(v * v)) for v in direction.values())))
    analytic = sum(float(np.sum(grads[k] * v)) for k, v in direction.items()) / scale
    saved = {k: p.copy() for k, p in params.items()}
    sides = []
    for sign in (1.0, -1.0):
        for k, p in params.items():
            p[...] = saved[k] + sign * FD_STEP * direction[k] / scale
        sides.append(loss())
    for k, p in params.items():
        p[...] = saved[k]
    numeric = (sides[0] - sides[1]) / (2.0 * FD_STEP)
    if not abs(analytic - numeric) <= FD_ATOL + FD_RTOL * abs(numeric):
        failures.append(f"train-step gradient: directional derivative "
                        f"{analytic!r} vs central difference {numeric!r}")
    return failures
