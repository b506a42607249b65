"""Write the checkpoints and reference results that
``tests/test_checkpoint.py::TestParentCheckpoints`` reads.

    PYTHONPATH=src python tests/data/make_parent_fixtures.py

The committed files were written at commit 9413de4, before TT maps chose a
sweep direction and before the step from the zero initial state skipped its
hidden maps: every map then swept left to right and ran at every step. The
test loads them with the current code and checks that evaluation and
gradients stay within rounding of what that commit computed. Rerunning this
script rewrites the reference results with the running code.
"""

from pathlib import Path

import numpy as np

from ttrnn.checkpoint import save_checkpoint
from ttrnn.models import build_classifier, build_predictor

HERE = Path(__file__).parent

# name -> (constructor, its arguments after the rng): one GRU whose six maps
# all take the sweep plan, and an SRNN shaped like pianoroll-ttsrnn's whose
# maps take the dense plan. Both have a non-square wx.
MODELS = {
    "gru-sweep": (build_classifier,
                  dict(frame_dim=5, n_classes=3, cell_kind="gru", hidden_dim=32,
                       proj_dim=8, in_modes=(2, 2, 2), hidden_modes=(4, 4, 2),
                       rank=1)),
    "srnn-dense": (build_predictor,
                   dict(frame_dim=6, cell_kind="srnn", hidden_dim=64, proj_dim=8,
                        in_modes=(2, 4), hidden_modes=(8, 8), rank=2)),
}


def build(name: str, seed: int):
    constructor, kwargs = MODELS[name]
    return constructor(rng=np.random.default_rng(seed), **kwargs)


def batch(name: str):
    """Inputs, mask and targets: row 1's first step and row 2's last two
    are padding."""
    model = build(name, 0)
    frame_dim = model.projection.in_dim
    rng = np.random.default_rng(5)
    x_seq = rng.standard_normal((5, 3, frame_dim))
    mask = np.ones((5, 3))
    mask[0, 1] = 0.0
    mask[3:, 2] = 0.0
    if name.startswith("gru"):
        targets = np.array([0, 2, 1])
    else:
        targets = (rng.random((5, 3, frame_dim)) < 0.3).astype(np.float64)
    return x_seq, mask, targets


def main():
    for name in MODELS:
        model = build(name, 1)
        rng = np.random.default_rng(2)
        for p in model.params().values():
            p += 0.3 * rng.standard_normal(p.shape)
        save_checkpoint(HERE / f"{name}.ttcp", model)
        x_seq, mask, targets = batch(name)
        out = model.forward(x_seq, mask)
        model.zero_grads()
        loss, _ = model.loss_and_grads(x_seq, mask, targets)
        np.savez(HERE / f"{name}.npz", forward=out, loss=loss,
                 **{f"grad:{k}": g for k, g in model.grads().items()})


if __name__ == "__main__":
    main()
