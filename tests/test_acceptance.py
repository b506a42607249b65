"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS|FAIL`` line before
asserting, so the verdict is visible in failure output and under ``-s``.
Criterion 5a needs the real handwritten-digit IDX files; point
``TTRNN_MNIST_DIR`` at a directory holding them (or drop them into
``data/mnist/`` next to ``src/``). Without the files the test fails, stating
why, rather than skipping: the gate reports what was actually demonstrated.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ttrnn.bench import DENSE_BUDGET_BYTES, fit_loglog_slope, run_scaling_sweep
from ttrnn.cells import bptt, unroll
from ttrnn.cli import main
from ttrnn.config import TrainConfig
from ttrnn.data import make_batches
from ttrnn.linear import TTLinear
from ttrnn.models import build_predictor, make_cell
from ttrnn.optim import Adam, clip_global_norm
from ttrnn.tasks import (
    bernoulli_frame_nll,
    cell_param_count,
    compression_ratio,
    frame_counts,
    pooled_frame_accuracy,
)
from ttrnn.train import batch_loss_and_grads, evaluate, parse_runlog, train_run
from ttrnn.ttmatrix import TTMatrix, TTSpec

from synthdata import periodic_songs, write_idx_fixture


def _verdict(num, label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {tag}{extra}")
    return ok


# ---------------------------------------------------------------------------
# 1. Published parameter counts and compression ratios.

# (kind, input_dim, hidden, in_modes, hidden_modes, rank) -> quoted count
COUNTS = [
    ("gru", 32, 256, None, None, None, 221952),
    ("gru", 32, 100, (4, 8), (10, 10), 3, 3180),
    ("gru", 32, 100, (4, 8), (10, 10), 5, 5100),
    ("gru", 32, 100, (4, 8), (10, 10), 7, 7020),
    ("srnn", 32, 100, (4, 8), (10, 10), 5, 1700),
    ("srnn", 256, 512, None, None, None, 393728),
    ("gru", 256, 512, None, None, None, 1181184),
    ("srnn", 256, 1024, (4, 4, 4, 4), (8, 4, 8, 4), 3, 2560),
    ("srnn", 256, 1024, (4, 4, 4, 4), (8, 4, 8, 4), 5, 4864),
    ("gru", 256, 1024, (4, 4, 4, 4), (8, 4, 8, 4), 3, 7680),
    ("gru", 256, 1024, (4, 4, 4, 4), (8, 4, 8, 4), 5, 14592),
]

# (baseline, compressed, ratio as displayed). A quoted ratio must agree with
# baseline/compressed to within one unit in its last displayed decimal, which
# accepts either rounding or truncation of the exact quotient.
RATIOS = [
    (221952, 3180, "69.8"),
    (221952, 5100, "43.52"),
    (221952, 7020, "31.61"),
    (82176, 1700, "48.34"),
    (393728, 2560, "153.80"),
    (1181184, 7680, "153.80"),
    (393728, 4864, "80.95"),
    (1181184, 14592, "80.95"),
]


def test_criterion_1_parameter_counts_and_ratios():
    t0 = time.perf_counter()
    problems = []
    for kind, d_in, hid, im, hm, rank, want in COUNTS:
        got = cell_param_count(kind, d_in, hid, im, hm, rank)
        if got != want:
            problems.append(f"{kind} {d_in}->{hid} r{rank}: {got} != {want}")
    for base, comp, shown in RATIOS:
        decimals = len(shown.split(".")[1])
        got = compression_ratio(base, comp)
        if abs(got - float(shown)) >= 10.0 ** -decimals:
            problems.append(f"{base}/{comp} = {got:.4f}, quoted {shown}")
    # Documented exceptions: two quoted counts that do not follow from their
    # row's own task sizes. 82176 is the SRNN-H256 baseline computed with a
    # 64-wide input, although the row task feeds 28 columns (which would give
    # 72960); the 48.34 ratio above is built on it. 1030 is the rank-3 twin
    # of the 1700 row but with input modes (4, 7), where the rank-5 row of
    # the same table uses (4, 8) (which would give 1060).
    if cell_param_count("srnn", 64, 256) != 82176:
        problems.append("exception 82176 (input width 64) not reproduced")
    if cell_param_count("srnn", 28, 256) != 72960:
        problems.append("task-consistent srnn 28->256 should be 72960")
    if cell_param_count("srnn", 28, 100, (4, 7), (10, 10), 3) != 1030:
        problems.append("exception 1030 (input modes (4, 7)) not reproduced")
    if cell_param_count("srnn", 32, 100, (4, 8), (10, 10), 3) != 1060:
        problems.append("mode-consistent rank-3 count should be 1060")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _verdict(1, "published parameter counts and ratios", ok,
             f"{len(COUNTS)} counts, {len(RATIOS)} ratios, 2 documented "
             f"exceptions, {elapsed:.3f} s")
    assert not problems, "; ".join(problems)
    assert elapsed < 1.0, f"took {elapsed:.3f} s, budget 1 s"


# ---------------------------------------------------------------------------
# 2. TT forward equals dense reconstruction on random specs.


def test_criterion_2_tt_forward_matches_dense_oracle():
    rng = np.random.default_rng(20260819)
    target = 200
    checked = 0
    worst = 0.0
    while checked < target:
        d = int(rng.integers(1, 5))
        out_modes = tuple(int(m) for m in rng.integers(1, 9, size=d))
        in_modes = tuple(int(m) for m in rng.integers(1, 9, size=d))
        if math.prod(out_modes) * math.prod(in_modes) > 4096:
            continue
        ranks = (1,) + tuple(int(r) for r in rng.integers(1, 6, size=d - 1)) + (1,)
        tt = TTMatrix.glorot(TTSpec(out_modes, in_modes, ranks), rng)
        x = rng.standard_normal((3, tt.spec.in_dim))
        got = TTLinear(tt).forward(x)
        want = x @ tt.to_dense().T
        worst = max(worst, float(np.max(np.abs(got - want))))
        checked += 1
    ok = worst <= 1e-10
    _verdict(2, "TT forward vs dense oracle", ok,
             f"{checked} random specs, worst abs err {worst:.3e}")
    assert ok, f"worst abs error {worst:.3e} exceeds 1e-10"


# ---------------------------------------------------------------------------
# 3. Analytic gradients vs central finite differences.


def _fd_mismatches(pairs, rtol=1e-5, atol=1e-7):
    """Names whose analytic/numeric gradient pairs disagree."""
    bad = []
    for name, analytic, numeric in pairs:
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            err = float(np.max(np.abs(np.asarray(analytic) - numeric)))
            bad.append(f"{name} (max abs diff {err:.3e})")
    return bad


def test_criterion_3_gradients_match_finite_differences():
    from fdcheck import numeric_grad

    t0 = time.perf_counter()
    bad = []

    # Standalone TT linear map, 16 -> 16 with modes (4, 4).
    rng = np.random.default_rng(11)
    layer = TTLinear.glorot(TTSpec.with_rank((4, 4), (4, 4), 3), rng)
    x = rng.standard_normal((5, 16))
    w = rng.standard_normal((5, 16))

    def lin_loss():
        return float(np.sum(layer.forward(x) * w))

    _, cache = layer.forward_cached(x)
    layer.zero_grads()
    dx = layer.backward(w, cache)
    pairs = [(f"linear core {k}", layer.grad_cores[k], numeric_grad(lin_loss, g))
             for k, g in enumerate(layer.tt.cores)]
    pairs.append(("linear input", dx, numeric_grad(lin_loss, x)))
    bad += _fd_mismatches(pairs)

    # Full unrolls, losses reading every hidden state plus the final one.
    for kind in ("srnn", "gru"):
        for steps in (1, 4, 9):
            rng = np.random.default_rng(100 * steps + len(kind))
            cell = make_cell(kind, 16, 16, rng, in_modes=(4, 4),
                             hidden_modes=(4, 4), rank=3)
            x_seq = rng.standard_normal((steps, 3, 16))
            p_seq = rng.standard_normal((steps, 3, 16))
            q_last = rng.standard_normal((3, 16))

            def loss():
                h_seq, _ = unroll(cell, x_seq)
                return float(np.sum(h_seq * p_seq) + np.sum(h_seq[-1] * q_last))

            cell.zero_grads()
            h_seq, caches = unroll(cell, x_seq)
            grad_x = bptt(cell, caches, grad_h_seq=p_seq, grad_h_last=q_last)
            grads = cell.grads()
            pairs = [(f"{kind} T={steps} {name}", grads[name],
                      numeric_grad(loss, arr))
                     for name, arr in cell.params().items()]
            pairs.append((f"{kind} T={steps} input", grad_x,
                          numeric_grad(loss, x_seq)))
            bad += _fd_mismatches(pairs)

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _verdict(3, "finite-difference gradient checks", ok,
             f"linear + srnn/gru at T in (1, 4, 9), {elapsed:.1f} s")
    assert not bad, "; ".join(bad)
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"


# ---------------------------------------------------------------------------
# 4. Initialization statistics per core.


def test_criterion_4_glorot_core_statistics():
    cases = [
        ("d=3 r=32", TTSpec.with_rank((10, 10, 10), (10, 10, 10), 32)),
        ("d=1 dense", TTSpec.with_rank((400,), (400,), 1)),
    ]
    problems = []
    details = []
    for label, spec in cases:
        rng = np.random.default_rng(99)
        # Pool independent draws until every core has >= 1e5 samples.
        core_sizes = [math.prod(spec.core_shape(k)) for k in range(spec.ndim)]
        draws = max(-(-100_000 // s) for s in core_sizes)
        pooled = [[] for _ in range(spec.ndim)]
        for _ in range(draws):
            tt = TTMatrix.glorot(spec, rng)
            for k, g in enumerate(tt.cores):
                pooled[k].append(g.reshape(-1))
        for k in range(spec.ndim):
            m, n, r_prev, r_next = spec.core_shape(k)
            sigma = math.sqrt(2.0 / (n * r_next + m * r_prev))
            sample = np.concatenate(pooled[k])
            assert sample.size >= 100_000
            std = float(sample.std())
            mean = float(sample.mean())
            se = sigma / math.sqrt(sample.size)
            if abs(std - sigma) > 0.05 * sigma:
                problems.append(f"{label} core {k}: std {std:.5f} vs {sigma:.5f}")
            if abs(mean) > 3.0 * se:
                problems.append(f"{label} core {k}: mean {mean:.2e} > 3 SE {3 * se:.2e}")
            details.append(f"{label}/G{k}: std off {abs(std - sigma) / sigma:.1%}")
    ok = not problems
    _verdict(4, "per-core init statistics", ok, ", ".join(details))
    assert not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# 5a. Row-serialized digit classification on real data (when present).

_MNIST_NAMES = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    ("train-images.idx", "train-labels.idx"),
)


def _find_mnist():
    roots = []
    env = os.environ.get("TTRNN_MNIST_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for root in roots:
        for img_name, lab_name in _MNIST_NAMES:
            images, labels = root / img_name, root / lab_name
            if images.exists() and labels.exists():
                return images, labels
    return None


def test_criterion_5a_row_digit_accuracy(tmp_path):
    found = _find_mnist()
    if found is None:
        _verdict("5a", "row-task digit accuracy >= 0.92 in 5 epochs", False,
                 "blocked: digit IDX files absent and no network to fetch "
                 "them; set TTRNN_MNIST_DIR to run")
        pytest.fail(
            "cannot run: the handwritten-digit IDX files are not on disk "
            "(checked $TTRNN_MNIST_DIR and ./data/mnist) and this environment "
            "has no network access to download them. The identical training "
            "path is exercised end to end on synthetic data by criterion 5b "
            "and the CLI tests. To execute this criterion, place "
            "train-images-idx3-ubyte and train-labels-idx1-ubyte in a "
            "directory and set TTRNN_MNIST_DIR to it."
        )
    images, labels = found
    cfg = TrainConfig(task="mnist-row", model="gru", parameterization="tt",
                      hidden=100, hidden_modes=(10, 10), input_modes=(4, 8),
                      rank=3, proj=32, lr=1e-3, clip_norm=5.0, batch_size=32,
                      epochs=5, seed_init=7, seed_data=13, train_count=10000,
                      val_count=10000, images=str(images), labels=str(labels),
                      out_dir=str(tmp_path))
    cfg.validate()
    t0 = time.perf_counter()
    result = train_run(cfg)
    elapsed = time.perf_counter() - t0
    best = max(float(r["val_metric"]) for r in result["records"])
    ok = best >= 0.92 and elapsed <= 900.0
    _verdict("5a", "row-task digit accuracy >= 0.92 in 5 epochs", ok,
             f"best val acc {best:.4f}, {elapsed:.0f} s")
    assert best >= 0.92, f"best validation accuracy {best:.4f} < 0.92"
    assert elapsed <= 900.0


# ---------------------------------------------------------------------------
# 5b. Synthetic periodic piano roll learned within 200 steps.


def test_criterion_5b_periodic_roll_nll():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    model = build_predictor(88, "srnn", 64, rng, proj_dim=32,
                            in_modes=(4, 8), hidden_modes=(8, 8), rank=4)
    songs = periodic_songs(16, 33).sequences
    eval_batches = make_batches(songs, "predict", 8)
    opt = Adam(model.params(), lr=0.01)
    steps = 0
    hit = None
    nll = math.inf
    for epoch in range(50):
        for batch in make_batches(songs, "predict", 8, shuffle_seed=epoch):
            model.zero_grads()
            batch_loss_and_grads(model, batch, classify=False)
            clip_global_norm(model.grads(), 5.0)
            opt.step(model.grads())
            steps += 1
            nll, _ = evaluate(model, eval_batches, classify=False)
            if nll < 3.0:
                hit = steps
                break
            if steps >= 200:
                break
        if hit is not None or steps >= 200:
            break
    elapsed = time.perf_counter() - t0
    ok = hit is not None and elapsed <= 900.0
    _verdict("5b", "periodic-roll NLL < 3.0 within 200 steps", ok,
             f"reached {nll:.3f} at step {steps}, {elapsed:.1f} s")
    assert hit is not None, f"NLL still {nll:.3f} after {steps} steps"
    assert elapsed <= 900.0


# ---------------------------------------------------------------------------
# 6. Forward-time scaling: near-linear for TT, near-quadratic for dense.


def test_criterion_6_scaling_slopes():
    t0 = time.perf_counter()
    sizes = [2 ** p for p in range(10, 17)]
    tt_points = run_scaling_sweep("tt", sizes, rank=4, max_mode=16,
                                  batch=16, seed=0)
    tt_slope, tt_resid = fit_loglog_slope(tt_points)
    # d=2 cannot span these sizes with modes <= 16 (16*16 = 256), so the TT
    # grid lets the core count grow with size at fixed rank and mode cap.
    # The dense grid stops where weight + gradient would blow the memory
    # budget; the slope needs only >= 3 in-budget points.
    dense_sizes = [s for s in sizes if 2 * 8 * s * s <= DENSE_BUDGET_BYTES]
    dense_points = run_scaling_sweep("dense", dense_sizes, batch=16, seed=0)
    dense_slope, dense_resid = fit_loglog_slope(dense_points)
    elapsed = time.perf_counter() - t0
    ok = (tt_slope <= 1.25 and dense_slope >= 1.7
          and len(dense_points) >= 3 and elapsed <= 300.0)
    _verdict(6, "forward-time scaling slopes", ok,
             f"tt {tt_slope:.3f} <= 1.25 over {len(tt_points)} sizes, dense "
             f"{dense_slope:.3f} >= 1.7 over {len(dense_points)} sizes, "
             f"{elapsed:.0f} s")
    assert tt_slope <= 1.25, f"tt slope {tt_slope:.3f} (resid {tt_resid:.3f})"
    assert dense_slope >= 1.7, f"dense slope {dense_slope:.3f} (resid {dense_resid:.3f})"
    assert len(dense_points) >= 3
    assert elapsed <= 300.0, f"took {elapsed:.0f} s, budget 300 s"


# ---------------------------------------------------------------------------
# 7. Training determinism and checkpoint round trips.


def test_criterion_7_determinism_and_roundtrip(tmp_path, capsys):
    images, labels = write_idx_fixture(tmp_path, 80, seed=5, classes=4)
    out = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "task = mnist-row\nmodel = gru\nparameterization = tt\n"
        "hidden = 16\nhidden_modes = 4x4\ninput_modes = 4x4\nrank = 2\n"
        "proj = 16\nlr = 0.01\nbatch_size = 8\nepochs = 2\nval_count = 20\n"
        f"images = {images}\nlabels = {labels}\nout_dir = {out}\n"
    )
    assert main(["train", str(cfg)]) == 0
    assert main(["train", str(cfg)]) == 0
    records = parse_runlog(out / "run.log")
    assert len(records) == 4

    def stripped(recs):
        return [{k: v for k, v in r.items() if k != "wall_s"} for r in recs]

    identical = stripped(records[:2]) == stripped(records[2:])

    capsys.readouterr()
    assert main(["eval", str(out / "last.ttcp")]) == 0
    first = capsys.readouterr().out
    assert main(["eval", str(out / "last.ttcp")]) == 0
    second = capsys.readouterr().out
    fields = dict(tok.split("=", 1) for tok in first.split()
                  if "=" in tok and not tok.startswith("#"))
    final = records[-1]
    bitwise = (first == second
               and fields["loss"] == final["val_loss"]
               and fields["accuracy"] == final["val_metric"])
    ok = identical and bitwise
    _verdict(7, "run determinism and checkpoint round trip", ok,
             f"2 runs x {len(records) // 2} epochs, eval loss {fields['loss']}")
    assert identical, "two identical runs logged different numeric fields"
    assert bitwise, (f"round-trip mismatch: eval said {fields}, "
                     f"log said {final}")


# ---------------------------------------------------------------------------
# 8. Metric closed forms on constructed micro-cases.


def test_criterion_8_metric_closed_forms():
    # Exactly TP=3, FP=1, FN=2 in one frame; everything else true-negative.
    logits = np.full((2, 4, 88), -1.0)
    targets = np.zeros((2, 4, 88))
    logits[0, 1, [3, 10, 40]] = 1.0
    targets[0, 1, [3, 10, 40]] = 1.0  # TP x3
    logits[1, 2, 5] = 1.0             # FP
    targets[0, 3, [7, 8]] = 1.0       # FN x2
    counts = frame_counts(logits, targets)
    acc = pooled_frame_accuracy(counts)
    counts_ok = counts == (3, 1, 2)
    acc_err = abs(acc - 0.5)

    # Zero logits mean probability one half for each of the 88 notes, so
    # every frame's NLL is 88*ln 2 regardless of the target pattern.
    rng = np.random.default_rng(3)
    roll_targets = (rng.random((6, 88)) < 0.3).astype(float)
    nll, _ = bernoulli_frame_nll(np.zeros((6, 88)), roll_targets)
    nll_err = abs(nll - 88.0 * math.log(2.0))

    ok = counts_ok and acc_err <= 1e-12 and nll_err <= 1e-12
    _verdict(8, "metric closed forms", ok,
             f"ACC err {acc_err:.1e}, NLL err {nll_err:.1e}")
    assert counts_ok, f"counts {counts} != (3, 1, 2)"
    assert acc_err <= 1e-12
    assert nll_err <= 1e-12
