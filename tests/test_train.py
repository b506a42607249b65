import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttrnn
import ttrnn.data as D
from synthdata import write_idx_fixture, write_pianoroll_fixture
from ttrnn.checkpoint import load_checkpoint, read_checkpoint
from ttrnn.config import TrainConfig
from ttrnn.errors import ConfigError, FormatError, NumericError
from ttrnn import linear
from ttrnn.models import (SequenceClassifier, SequencePredictor,
                          build_classifier, build_predictor)
from ttrnn.optim import Adam, global_norm
from ttrnn.train import (
    batch_loss_and_grads,
    build_model,
    evaluate,
    load_split,
    load_task_data,
    make_eval_batches,
    parse_runlog,
    train_run,
    train_step,
)


def mnist_cfg(tmp_path, **overrides):
    images, labels = write_idx_fixture(tmp_path, 60, seed=1, classes=4)
    raw = dict(task="mnist-row", model="srnn", parameterization="dense",
               hidden="12", hidden_modes="none", input_modes="none",
               proj="8", batch_size="8", epochs="2", val_count="20",
               lr="0.01", images=images, labels=labels,
               out_dir=str(tmp_path / "run"))
    raw.update({k: str(v) for k, v in overrides.items()})
    return TrainConfig.from_dict(raw)


def roll_cfg(tmp_path, **overrides):
    train = write_pianoroll_fixture(tmp_path, n_songs=6, length=24,
                                    name="train.txt")
    val = write_pianoroll_fixture(tmp_path, n_songs=2, length=24,
                                  name="val.txt")
    raw = dict(task="pianoroll", model="srnn", parameterization="tt",
               hidden="0", hidden_modes="4x4", input_modes="4x4",
               proj="16", rank="2", batch_size="3", epochs="1", lr="0.01",
               train_path=train, val_path=val, out_dir=str(tmp_path / "run"))
    raw.update({k: str(v) for k, v in overrides.items()})
    return TrainConfig.from_dict(raw)


class TestBuildModel:
    def test_classifier_for_mnist(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        model = build_model(cfg, np.random.default_rng(0))
        assert isinstance(model, SequenceClassifier)
        assert model.frame_dim == 28
        assert model.cell.hidden_dim == 12

    def test_predictor_for_pianoroll(self, tmp_path):
        cfg = roll_cfg(tmp_path)
        model = build_model(cfg, np.random.default_rng(0))
        assert isinstance(model, SequencePredictor)
        assert model.frame_dim == 88
        assert model.head.out_dim == 88

    def test_same_seed_same_weights(self, tmp_path):
        cfg = roll_cfg(tmp_path)
        a = build_model(cfg, np.random.default_rng(cfg.seed_init))
        b = build_model(cfg, np.random.default_rng(cfg.seed_init))
        for k, v in a.params().items():
            assert np.array_equal(v, b.params()[k])


class TestLoadTaskData:
    def test_mnist_split_sizes(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        data = load_task_data(cfg)
        assert len(data["train"]) == 40
        assert len(data["val"]) == 20
        assert data["train"][0].shape == (28, 28)

    def test_train_count_cap(self, tmp_path):
        cfg = mnist_cfg(tmp_path, train_count=10)
        data = load_task_data(cfg)
        assert len(data["train"]) == 10

    def test_permuted_task_applies_shared_permutation(self, tmp_path):
        cfg = mnist_cfg(tmp_path, task="mnist-permuted", proj="8",
                        input_modes="none")
        data = load_task_data(cfg)
        seq = data["train"][0]
        assert seq.shape == (784, 1)
        from ttrnn.data import make_permutation, read_idx

        perm = make_permutation(seed=cfg.seed_permutation)
        ds = read_idx(cfg.images, cfg.labels)
        assert np.array_equal(seq[:, 0], ds.images[0].reshape(-1)[perm])

    def test_missing_paths_is_config_error(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        cfg.images = ""
        with pytest.raises(ConfigError, match="images"):
            load_task_data(cfg)

    def test_pianoroll_paths(self, tmp_path):
        cfg = roll_cfg(tmp_path)
        data = load_task_data(cfg)
        assert len(data["train"]) == 6
        assert data["train_labels"] is None

    def test_test_split_loader(self, tmp_path):
        test_i, test_l = write_idx_fixture(tmp_path, 12, seed=9, classes=4)
        cfg = mnist_cfg(tmp_path, test_images=test_i, test_labels=test_l)
        seqs, labels = load_split(cfg, "test")
        assert len(seqs) == 12 and len(labels) == 12
        with pytest.raises(ConfigError, match="test_path"):
            load_split(roll_cfg(tmp_path), "test")

    @pytest.mark.parametrize("make_cfg", [mnist_cfg, roll_cfg],
                             ids=["mnist", "pianoroll"])
    def test_each_split_matches_load_task_data(self, tmp_path, make_cfg):
        cfg = make_cfg(tmp_path, train_count=5)
        data = load_task_data(cfg)
        for split in ("train", "val"):
            seqs, labels = load_split(cfg, split)
            assert len(seqs) == len(data[split])
            assert all(np.array_equal(a, b) for a, b in zip(seqs, data[split]))
            if labels is None:
                assert data[f"{split}_labels"] is None
            else:
                assert np.array_equal(labels, data[f"{split}_labels"])
        with pytest.raises(ConfigError, match="split"):
            load_split(cfg, "holdout")

    def test_val_split_reads_no_train_file(self, tmp_path):
        cfg = roll_cfg(tmp_path)
        want = load_task_data(cfg)["val"]
        os.unlink(cfg.train_path)
        seqs, labels = load_split(cfg, "val")
        assert labels is None
        assert all(np.array_equal(a, b) for a, b in zip(seqs, want))

    @pytest.mark.parametrize("make_cfg,reader", [(mnist_cfg, "read_idx"),
                                                 (roll_cfg, "read_pianoroll")],
                             ids=["mnist", "pianoroll"])
    def test_task_data_reads_each_file_once(self, tmp_path, monkeypatch,
                                            make_cfg, reader):
        real = getattr(D, reader)
        calls = []

        def counting(*paths):
            calls.append(paths)
            return real(*paths)

        monkeypatch.setattr(D, reader, counting)
        load_task_data(make_cfg(tmp_path))
        assert len(calls) == len(set(calls)) == (1 if reader == "read_idx" else 2)


class TestTrainStep:
    def build(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        data = load_task_data(cfg)
        batch = make_eval_batches(cfg, data["train"], data["train_labels"])[0]
        return model, Adam(model.params(), lr=cfg.lr), batch

    @pytest.mark.parametrize("clip_norm", [0.0, 5.0, 1e-3])
    def test_returns_unclipped_norm(self, tmp_path, clip_norm):
        model, opt, batch = self.build(tmp_path)
        twin, _, _ = self.build(tmp_path)
        twin.zero_grads()
        want_loss, want_weight = batch_loss_and_grads(twin, batch, True)
        want = global_norm(twin.grads())
        loss, weight, norm = train_step(model, opt, batch, True, clip_norm)
        assert (loss, weight, norm) == (want_loss, want_weight, want)
        assert opt.t == 1
        if clip_norm > 0.0:
            assert global_norm(model.grads()) == pytest.approx(
                min(want, clip_norm), rel=1e-12)
        assert any(not np.array_equal(p, twin.params()[k])
                   for k, p in model.params().items())

    @pytest.mark.parametrize("clip_norm", [0.0, 5.0])
    @pytest.mark.parametrize("poison", ["loss", "grads"])
    def test_nonfinite_step_leaves_state_unchanged(self, tmp_path, monkeypatch,
                                                   clip_norm, poison):
        import ttrnn.train as T

        model, opt, batch = self.build(tmp_path)
        train_step(model, opt, batch, True, clip_norm)
        before = {k: p.copy() for k, p in model.params().items()}
        moments = {k: v.copy() for k, v in opt.state().items()}
        real = T.batch_loss_and_grads

        def poisoned(model, batch, classify):
            loss, weight = real(model, batch, classify)
            if poison == "loss":
                return np.inf, weight
            next(iter(model.grads().values()))[...] = np.nan
            return loss, weight

        monkeypatch.setattr(T, "batch_loss_and_grads", poisoned)
        what = "loss inf; try" if poison == "loss" else "gradient norm nan; try"
        with pytest.raises(NumericError, match=f"^non-finite {what} a lower lr"):
            train_step(model, opt, batch, True, clip_norm)
        assert opt.t == 1
        assert all(np.array_equal(model.params()[k], v) for k, v in before.items())
        assert all(np.array_equal(opt.state()[k], v) for k, v in moments.items())


class TestEvaluate:
    def test_classification_pools_over_batches(self, tmp_path):
        cfg = mnist_cfg(tmp_path, batch_size=7)  # uneven final batch
        model = build_model(cfg, np.random.default_rng(0))
        data = load_task_data(cfg)
        batches = make_eval_batches(cfg, data["val"], data["val_labels"])
        loss, acc = evaluate(model, batches, True)
        # Oracle: single-pass over one big batch.
        cfg_big = mnist_cfg(tmp_path, batch_size=1000)
        big = make_eval_batches(cfg_big, data["val"], data["val_labels"])
        loss_big, acc_big = evaluate(model, big, True)
        assert acc == pytest.approx(acc_big, abs=0)
        assert loss == pytest.approx(loss_big, rel=1e-12)

    def test_prediction_metrics_bounded(self, tmp_path):
        cfg = roll_cfg(tmp_path)
        model = build_model(cfg, np.random.default_rng(0))
        data = load_task_data(cfg)
        batches = make_eval_batches(cfg, data["val"], None)
        nll, acc = evaluate(model, batches, False)
        assert np.isfinite(nll) and nll > 0
        assert 0.0 <= acc <= 1.0


class TestBatchView:
    """Training and evaluation read each batch the same way: the same
    inputs, mask, targets and weight give the same loss."""

    @staticmethod
    def padded_batches(classify):
        # Unequal lengths, so most batches carry padding; the last is short.
        rng = np.random.default_rng(4)
        lengths = [5, 2, 7, 3, 6, 4, 2]
        seqs = [(rng.random((n, 8)) > 0.6).astype(float) for n in lengths]
        labels = rng.integers(0, 3, len(seqs)) if classify else None
        return D.make_batches(seqs, "classify" if classify else "predict", 3,
                              labels=labels)

    @pytest.mark.parametrize("plan", ["dense", "sweep"])
    @pytest.mark.parametrize("classify", [True, False],
                             ids=["classifier", "predictor"])
    def test_eval_loss_is_the_weighted_train_loss(self, classify, plan,
                                                  monkeypatch):
        monkeypatch.setattr(linear, "takes_dense_plan",
                            lambda spec: plan == "dense")
        tt = dict(proj_dim=6, in_modes=(2, 3), hidden_modes=(3, 2), rank=2)
        rng = np.random.default_rng(5)
        model = (build_classifier(8, 3, "gru", 6, rng, **tt) if classify
                 else build_predictor(8, "srnn", 6, rng, **tt))
        batches = self.padded_batches(classify)
        assert any(not b.mask.all() for b in batches)
        loss_sum = weight_sum = 0.0
        for batch in batches:
            loss, weight = batch_loss_and_grads(model, batch, classify)
            assert weight == (batch.size if classify else batch.mask.sum())
            loss_sum += loss * weight
            weight_sum += weight
        assert evaluate(model, batches, classify)[0] == loss_sum / weight_sum


class TestTrainRun:
    def test_artifacts_and_records(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        result = train_run(cfg)
        out = tmp_path / "run"
        assert (out / "run.log").exists()
        assert (out / "config.resolved").exists()
        assert (out / "best.ttcp").exists()
        assert (out / "last.ttcp").exists()
        assert [r["epoch"] for r in result["records"]] == [1, 2]
        parsed = parse_runlog(out / "run.log")
        assert len(parsed) == 2
        assert parsed[0]["hash"] == cfg.digest()
        assert float(parsed[0]["train_loss"]) > 0

    def test_epoch_records_strictly_increase(self, tmp_path):
        cfg = mnist_cfg(tmp_path, epochs=3)
        result = train_run(cfg)
        epochs = [r["epoch"] for r in result["records"]]
        assert epochs == sorted(set(epochs))

    def test_determinism_across_runs(self, tmp_path):
        # Same config, run twice; the append-only log then holds both runs.
        train_run(mnist_cfg(tmp_path))
        train_run(mnist_cfg(tmp_path))
        rows = [{k: v for k, v in rec.items() if k != "wall_s"}
                for rec in parse_runlog(tmp_path / "run" / "run.log")]
        assert len(rows) == 4
        assert rows[:2] == rows[2:]

    @pytest.mark.parametrize("clip_norm", [0.0, 1.0])
    def test_records_carry_gradient_diagnostics(self, tmp_path, clip_norm):
        cfg = mnist_cfg(tmp_path, clip_norm=clip_norm)
        result = train_run(cfg)
        # Replay the two epochs with train_step, keeping each batch's norm.
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        opt = Adam(model.params(), lr=cfg.lr, beta1=cfg.beta1,
                   beta2=cfg.beta2, eps=cfg.eps)
        data = load_task_data(cfg)
        logged = parse_runlog(tmp_path / "run" / "run.log")
        assert len(logged) == 2
        for epoch, rec, line in zip((1, 2), result["records"], logged):
            batches = D.make_batches(data["train"], "classify", cfg.batch_size,
                                     shuffle_seed=cfg.seed_data + epoch,
                                     labels=data["train_labels"],
                                     divisor=D.PIXEL_DIVISOR)
            norms = [train_step(model, opt, b, True, clip_norm)[2] for b in batches]
            clipped = [n > clip_norm for n in norms] if clip_norm else []
            want = {"grad_norm_mean": sum(norms) / len(norms),
                    "grad_norm_max": max(norms),
                    "clip_frac": sum(clipped) / len(norms)}
            assert {k: rec[k] for k in want} == want
            assert {k: float(line[k]) for k in want} == want
            if clip_norm:
                assert 0.0 < want["clip_frac"] < 1.0
            else:
                assert want["clip_frac"] == 0.0

    def test_last_checkpoint_is_written_after_every_epoch(self, tmp_path,
                                                          monkeypatch):
        import ttrnn.train as T

        cfg = mnist_cfg(tmp_path)
        data = load_task_data(cfg)
        per_epoch = len(make_eval_batches(cfg, data["train"], data["train_labels"]))
        real, calls = T.train_step, []

        def fails_in_epoch_2(*args):
            calls.append(1)
            if len(calls) > per_epoch:
                raise NumericError("non-finite loss nan; try a lower lr")
            return real(*args)

        monkeypatch.setattr(T, "train_step", fails_in_epoch_2)
        with pytest.raises(NumericError, match="at epoch 2 batch 0"):
            train_run(cfg)
        last = tmp_path / "run" / "last.ttcp"
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        opt = Adam(model.params(), lr=cfg.lr)
        meta = load_checkpoint(last, model, optimizer=opt)
        assert meta["epoch"] == 1.0
        # It holds the weights an unbroken one-epoch run ends with.
        monkeypatch.undo()
        one = mnist_cfg(tmp_path, epochs=1, out_dir=str(tmp_path / "one"))
        train_run(one)
        want = build_model(one, np.random.default_rng(one.seed_init))
        assert load_checkpoint(tmp_path / "one" / "last.ttcp", want) == meta
        for key, value in want.params().items():
            np.testing.assert_array_equal(model.params()[key], value)
        assert opt.t == per_epoch

    def test_epochs_zero_reports_without_training(self, tmp_path):
        cfg = mnist_cfg(tmp_path, epochs=0, images="missing", labels="missing")
        # Data paths are never touched when no training happens.
        result = train_run(cfg)
        assert result["records"] == []
        assert result["report"].cell_params > 0
        log_text = (tmp_path / "run" / "run.log").read_text()
        assert "cell params:" in log_text
        assert parse_runlog(tmp_path / "run" / "run.log") == []
        # The untrained checkpoint still exists for inspection.
        assert (tmp_path / "run" / "best.ttcp").exists()

    def test_undecodable_runlog_is_format_error(self, tmp_path):
        log = tmp_path / "run.log"
        log.write_bytes(b"epoch=1 train_loss=0.5\nepoch=2 note=\xff\n")
        with pytest.raises(FormatError, match="byte 0xff at offset 36"):
            parse_runlog(log)

    def test_logged_cell_count_for_tt_gru(self, tmp_path):
        cfg = mnist_cfg(tmp_path, epochs=0, model="gru", parameterization="tt",
                        hidden="100", hidden_modes="10x10", input_modes="4x8",
                        proj="32", rank="3")
        result = train_run(cfg)
        assert result["report"].cell_params == 3180
        assert "cell params: 3180" in (tmp_path / "run" / "run.log").read_text()

    def test_best_checkpoint_resumes_with_optimizer(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        train_run(cfg)
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        opt = Adam(model.params(), lr=cfg.lr)
        meta = load_checkpoint(tmp_path / "run" / "best.ttcp", model,
                               optimizer=opt)
        assert meta["epoch"] in (1.0, 2.0)
        assert "val_loss" in meta

    def test_checkpoint_embeds_resolved_config(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        train_run(cfg)
        ckpt = read_checkpoint(tmp_path / "run" / "best.ttcp")
        assert ckpt.config_text == cfg.to_text()

    def test_nonfinite_loss_aborts(self, tmp_path):
        cfg = mnist_cfg(tmp_path, lr=1e308, epochs=1)
        with pytest.raises(NumericError, match="non-finite"):
            with np.errstate(all="ignore"):
                train_run(cfg)

    @pytest.mark.parametrize("clip_norm", [0.0, 5.0])
    def test_nonfinite_grads_abort_before_step(self, tmp_path, monkeypatch,
                                               clip_norm):
        import ttrnn.train as T

        real = T.batch_loss_and_grads
        seen = {}

        def nan_grads(model, batch, classify):
            loss, weight = real(model, batch, classify)
            seen["model"] = model
            seen["before"] = {k: p.copy() for k, p in model.params().items()}
            next(iter(model.grads().values()))[...] = np.nan
            return loss, weight

        monkeypatch.setattr(T, "batch_loss_and_grads", nan_grads)
        cfg = mnist_cfg(tmp_path, epochs=1, clip_norm=clip_norm)
        with pytest.raises(NumericError, match="gradient norm"):
            train_run(cfg)
        after = seen["model"].params()
        assert all(np.array_equal(after[k], v) for k, v in seen["before"].items())
        log_text = (tmp_path / "run" / "run.log").read_text()
        assert "# abort: non-finite gradient norm nan" in log_text

    def test_failed_run_closes_its_log(self, tmp_path):
        # A file left open warns when it is collected; -X dev shows it.
        cfg = mnist_cfg(tmp_path, images="", labels="")
        path = tmp_path / "c.cfg"
        path.write_text(cfg.to_text())
        code = ("import gc, sys\n"
                "from ttrnn.config import TrainConfig\n"
                "from ttrnn.errors import ConfigError\n"
                "from ttrnn.train import train_run\n"
                "try:\n"
                "    train_run(TrainConfig.from_file(sys.argv[1]))\n"
                "except ConfigError as e:\n"
                "    print(e)\n"
                "gc.collect()\n")
        src = str(Path(ttrnn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", code, str(path)], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "field images/labels: mnist tasks need IDX paths\n"
        assert "ResourceWarning" not in result.stderr
        assert (tmp_path / "run" / "run.log").read_text().startswith("# config hash")

    def test_early_stop_with_flat_validation(self, tmp_path):
        # lr must be > 0, but a step of ~1e-300 is far below the rounding
        # of every weight and of the loss, so the model is frozen in effect:
        # validation never improves after epoch 1 and patience 1 stops the
        # run at epoch 2.
        cfg = mnist_cfg(tmp_path, epochs=10, lr=1e-300, early_stop="true",
                        patience=1)
        result = train_run(cfg)
        assert [r["epoch"] for r in result["records"]] == [1, 2]
        assert "early stop" in (tmp_path / "run" / "run.log").read_text()

    def test_eval_matches_last_logged_record(self, tmp_path):
        cfg = mnist_cfg(tmp_path)
        result = train_run(cfg)
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        load_checkpoint(tmp_path / "run" / "last.ttcp", model)
        data = load_task_data(cfg)
        batches = make_eval_batches(cfg, data["val"], data["val_labels"])
        loss, metric = evaluate(model, batches, True)
        final = result["records"][-1]
        assert loss == final["val_loss"]
        assert metric == final["val_metric"]

    def test_permuted_run_logs_permutation_digest(self, tmp_path):
        from ttrnn.data import make_permutation, permutation_digest

        cfg = mnist_cfg(tmp_path, task="mnist-permuted", input_modes="none",
                        epochs=1, train_count=8, val_count=8)
        train_run(cfg)
        lines = (tmp_path / "run" / "run.log").read_text().splitlines()
        digest = permutation_digest(make_permutation(seed=cfg.seed_permutation))
        assert f"# permutation {digest}" in lines
        row = mnist_cfg(tmp_path, epochs=1, train_count=8, val_count=8,
                        out_dir=str(tmp_path / "row"))
        train_run(row)
        text = (tmp_path / "row" / "run.log").read_text()
        assert "# permutation" not in text

    def test_pianoroll_run(self, tmp_path):
        cfg = roll_cfg(tmp_path, epochs=2)
        result = train_run(cfg)
        recs = result["records"]
        assert len(recs) == 2
        assert all(np.isfinite(r["val_loss"]) for r in recs)
        assert all(0.0 <= r["val_metric"] <= 1.0 for r in recs)
