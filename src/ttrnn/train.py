"""Deterministic training loop with plain-text run logs.

One process owns the parameters and optimizer. Everything stochastic is
seeded from the config (init, data order, pixel permutation), so two runs
with the same resolved config produce byte-identical numeric log fields;
wall-time fields are the only ones allowed to differ.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from . import data as D
from .checkpoint import load_into_model, save_checkpoint
from .config import TrainConfig, parse_kv
from .errors import ConfigError, NumericError
from .models import build_classifier, build_predictor, model_report
from .optim import Adam, clip_global_norm, global_norm
from .reader import decode
from .tasks import bernoulli_frame_nll, frame_counts, softmax_cross_entropy

N_CLASSES = 10


def build_model(cfg: TrainConfig, rng):
    """Construct the configured model with freshly initialized weights."""
    kwargs = dict(proj_dim=cfg.proj or None, **cfg.tt_args())
    if cfg.is_classification():
        return build_classifier(cfg.frame_dim(), N_CLASSES, cfg.model,
                                cfg.hidden, rng, **kwargs)
    return build_predictor(cfg.frame_dim(), cfg.model, cfg.hidden, rng, **kwargs)


def restore_model(ckpt, config_path=None):
    """``(cfg, model)`` for a read checkpoint: the config from
    ``config_path``, else the one ``ckpt`` embeds, and that config's model
    holding the stored weights. A record the model has no exact place for
    raises ShapeError naming it (see :func:`load_into_model`)."""
    if config_path is not None:
        cfg = TrainConfig.from_file(config_path)
    elif ckpt.config_text.strip():
        cfg = TrainConfig.from_dict(parse_kv(ckpt.config_text,
                                             source="<checkpoint>"))
    else:
        raise ConfigError("checkpoint carries no config; pass --config")
    model = build_model(cfg, np.random.default_rng(cfg.seed_init))
    load_into_model(ckpt, model)
    return cfg, model


def _read_images(cfg: TrainConfig, images, labels, fields: str):
    """One IDX pair of an mnist task and the task's shared pixel
    permutation: ``(dataset, permutation)``, the permutation None unless the
    task is mnist-permuted."""
    if not images or not labels:
        raise ConfigError(f"field {fields}: mnist tasks need IDX paths")
    perm = None
    if cfg.task == "mnist-permuted":
        perm = D.make_permutation(seed=cfg.seed_permutation)
    return D.read_idx(images, labels), perm


def _serialize_images(dataset: D.ImageDataset, task: str, permutation):
    mode = {"mnist-row": "row", "mnist-pixel": "pixel",
            "mnist-permuted": "permuted"}[task]
    return [D.serialize_image(img, mode, permutation) for img in dataset.images]


def load_task_data(cfg: TrainConfig) -> dict:
    """Load and split data per config.

    Returns ``{"train": sequences, "train_labels": ..., "val": ...,
    "val_labels": ..., "permutation": ...}`` (labels None for prediction
    tasks; the pixel permutation None unless the task is mnist-permuted,
    whose digest ``train_run`` logs).
    """
    if cfg.is_classification():
        ds, perm = _read_images(cfg, cfg.images, cfg.labels, "images/labels")
        train_ds, val_ds = D.split_train_val(ds, cfg.val_count)
        if cfg.train_count:
            train_ds = D.ImageDataset(train_ds.images[: cfg.train_count],
                                      train_ds.labels[: cfg.train_count])
        return {
            "train": _serialize_images(train_ds, cfg.task, perm),
            "train_labels": train_ds.labels,
            "val": _serialize_images(val_ds, cfg.task, perm),
            "val_labels": val_ds.labels,
            "permutation": perm,
        }
    if not cfg.train_path or not cfg.val_path:
        raise ConfigError("field train_path/val_path: pianoroll needs both")
    train = D.read_pianoroll(cfg.train_path).sequences
    val = D.read_pianoroll(cfg.val_path).sequences
    if cfg.train_count:
        train = train[: cfg.train_count]
    return {"train": train, "train_labels": None,
            "val": val, "val_labels": None, "permutation": None}


def _batch_task(cfg: TrainConfig) -> str:
    return "classify" if cfg.is_classification() else "predict"


def batch_loss_and_grads(model, batch: D.SequenceBatch, classify: bool):
    """Run one batch through the model; returns (loss, weight).

    The weight is what the loss averages over: sequences for
    classification, valid target frames for prediction.
    """
    x_tm, mask_tm = batch.time_major()
    if classify:
        loss, _ = model.loss_and_grads(x_tm, mask_tm, batch.targets)
        return loss, batch.size
    targets_tm = batch.targets.transpose(1, 0, 2)
    loss, _ = model.loss_and_grads(x_tm, mask_tm, targets_tm)
    return loss, float(mask_tm.sum())


def evaluate(model, batches, classify: bool):
    """(mean loss, metric) over batches, reduced in listed order.

    Classification: mean cross-entropy and accuracy over all items.
    Prediction: per-frame NLL and pooled frame accuracy TP/(TP+FP+FN).
    """
    loss_sum = 0.0
    weight_sum = 0.0
    correct = 0
    counts = np.zeros(3, dtype=np.int64)
    for batch in batches:
        x_tm, mask_tm = batch.time_major()
        logits = model.forward(x_tm, mask=mask_tm)
        if classify:
            loss, _ = softmax_cross_entropy(logits, batch.targets)
            loss_sum += loss * batch.size
            weight_sum += batch.size
            correct += int(np.sum(np.argmax(logits, axis=1) == batch.targets))
        else:
            targets_tm = batch.targets.transpose(1, 0, 2)
            loss, _ = bernoulli_frame_nll(logits, targets_tm, mask_tm)
            frames = float(mask_tm.sum())
            loss_sum += loss * frames
            weight_sum += frames
            counts += frame_counts(logits, targets_tm, mask_tm)
    loss = loss_sum / weight_sum
    if classify:
        return loss, correct / weight_sum
    tp, fp, fn = (int(c) for c in counts)
    denom = tp + fp + fn
    return loss, 1.0 if denom == 0 else tp / denom


class RunLog:
    """Append-only key-value text log.

    Epoch records are bare ``key=value`` lines; anything contextual goes in
    ``#`` comment lines. Every record carries the config hash so logs,
    checkpoints and reports from one run tie together.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    def comment(self, text: str):
        for line in str(text).splitlines() or [""]:
            self._fh.write(f"# {line}\n")
        self._fh.flush()

    def record(self, **fields) -> str:
        parts = []
        for key, value in fields.items():
            if isinstance(value, float):
                value = repr(value)
            parts.append(f"{key}={value}")
        line = " ".join(parts)
        self._fh.write(line + "\n")
        self._fh.flush()
        return line

    def close(self):
        self._fh.close()


def parse_runlog(path) -> list:
    """Parse epoch records back out of a run log (comments skipped)."""
    records = []
    for raw in decode(Path(path).read_bytes(), "utf-8", path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rec = {}
        for token in line.split():
            key, _, value = token.partition("=")
            rec[key] = value
        records.append(rec)
    return records


def train_run(cfg: TrainConfig, out_dir=None, echo=None) -> dict:
    """Train per config; returns a summary dict.

    Artifacts land in ``out_dir`` (default ``cfg.out_dir``): the resolved
    config, the run log, and ``best.ttcp``/``last.ttcp`` checkpoints. With
    ``epochs = 0`` only the model report (and an untrained checkpoint for
    inspection) is produced. A non-finite loss or gradient norm aborts with a
    diagnostic before the weights are touched.
    """
    out_dir = cfg.out_dir if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    cfg_text = cfg.to_text()
    digest = cfg.digest()
    with open(os.path.join(out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(cfg_text)

    def say(text):
        if echo is not None:
            echo(text)

    rng = np.random.default_rng(cfg.seed_init)
    model = build_model(cfg, rng)
    report = model_report(model, cfg.baseline_hidden or None)

    log = RunLog(os.path.join(out_dir, "run.log"))
    log.comment(f"config hash {digest}")
    for line in report.lines():
        log.comment(line)
        say(line)

    classify = cfg.is_classification()
    best_path = os.path.join(out_dir, "best.ttcp")
    last_path = os.path.join(out_dir, "last.ttcp")

    if cfg.epochs == 0:
        save_checkpoint(best_path, model, cfg_text, meta={"epoch": 0})
        log.close()
        return {"report": report, "records": [], "best_path": best_path,
                "hash": digest, "model": model}

    dataset = load_task_data(cfg)
    if dataset["permutation"] is not None:
        log.comment(f"permutation {D.permutation_digest(dataset['permutation'])}")
    task = _batch_task(cfg)
    val_batches = make_eval_batches(cfg, dataset["val"], dataset["val_labels"])

    optimizer = Adam(model.params(), lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2, eps=cfg.eps)
    best_val = np.inf
    best_epoch = 0
    records = []
    for epoch in range(1, cfg.epochs + 1):
        start = time.monotonic()
        batches = D.make_batches(dataset["train"], task, cfg.batch_size,
                                 shuffle_seed=cfg.seed_data + epoch,
                                 labels=dataset["train_labels"])
        loss_sum = 0.0
        weight_sum = 0.0
        for i, batch in enumerate(batches):
            model.zero_grads()
            loss, weight = batch_loss_and_grads(model, batch, classify)
            if not np.isfinite(loss):
                log.comment(f"abort: non-finite loss {loss} at epoch {epoch} "
                            f"batch {i}")
                log.close()
                raise NumericError(
                    f"non-finite loss {loss} at epoch {epoch} batch {i}; "
                    f"try a lower lr or enable clip_norm")
            grads = model.grads()
            if cfg.clip_norm > 0.0:
                norm = clip_global_norm(grads, cfg.clip_norm)
            else:
                norm = global_norm(grads)
            if not np.isfinite(norm):
                log.comment(f"abort: non-finite gradient norm {norm} at epoch "
                            f"{epoch} batch {i}")
                log.close()
                raise NumericError(
                    f"non-finite gradient norm {norm} at epoch {epoch} "
                    f"batch {i}; try a lower lr")
            optimizer.step(grads)
            loss_sum += loss * weight
            weight_sum += weight
        train_loss = loss_sum / weight_sum
        val_loss, val_metric = evaluate(model, val_batches, classify)
        wall = time.monotonic() - start
        line = log.record(epoch=epoch, hash=digest, train_loss=train_loss,
                          val_loss=val_loss, val_metric=val_metric,
                          wall_s=round(wall, 3))
        say(line)
        records.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss, "val_metric": val_metric})
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            save_checkpoint(best_path, model, cfg_text, optimizer=optimizer,
                            meta={"epoch": epoch, "val_loss": val_loss,
                                  "val_metric": val_metric})
        if cfg.early_stop and epoch - best_epoch >= cfg.patience:
            log.comment(f"early stop at epoch {epoch}; best epoch {best_epoch}")
            break
    save_checkpoint(last_path, model, cfg_text, optimizer=optimizer,
                    meta={"epoch": records[-1]["epoch"],
                          "val_loss": records[-1]["val_loss"],
                          "val_metric": records[-1]["val_metric"]})
    log.comment(f"best epoch {best_epoch} val_loss {best_val!r}")
    log.close()
    return {"report": report, "records": records, "best_path": best_path,
            "last_path": last_path, "hash": digest, "model": model}


def make_eval_batches(cfg: TrainConfig, sequences, labels):
    """Fixed-order batches for evaluation (no shuffling)."""
    return D.make_batches(sequences, _batch_task(cfg), cfg.batch_size,
                          shuffle_seed=None, labels=labels)


def load_split(cfg: TrainConfig, split: str):
    """Sequences and labels for one evaluation split (``val`` or ``test``)."""
    if split == "val":
        loaded = load_task_data(cfg)
        return loaded["val"], loaded["val_labels"]
    if split != "test":
        raise ConfigError(f"split must be val or test, got {split!r}")
    if cfg.is_classification():
        ds, perm = _read_images(cfg, cfg.test_images, cfg.test_labels,
                                "test_images/test_labels")
        return _serialize_images(ds, cfg.task, perm), ds.labels
    if not cfg.test_path:
        raise ConfigError("field test_path: needed for the test split")
    return D.read_pianoroll(cfg.test_path).sequences, None
