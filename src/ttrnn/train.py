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
from .errors import ConfigError, DataError, NumericError
from .models import build_classifier, build_predictor, model_report
from .optim import Adam, clip_global_norm, global_norm
from .reader import decode
from .tasks import (bernoulli_frame_nll, frame_counts, pooled_frame_accuracy,
                    softmax_cross_entropy)

N_CLASSES = 10


def build_model(cfg: TrainConfig, rng):
    """Construct the configured model with freshly initialized weights; a
    model too large to allocate is a ConfigError."""
    kwargs = dict(proj_dim=cfg.proj or None, **cfg.tt_args())
    try:
        if cfg.is_classification():
            return build_classifier(cfg.frame_dim(), N_CLASSES, cfg.model,
                                    cfg.hidden, rng, **kwargs)
        return build_predictor(cfg.frame_dim(), cfg.model, cfg.hidden, rng,
                               **kwargs)
    except MemoryError as e:
        raise ConfigError(f"the configured model does not fit in memory: "
                          f"{e}") from None


def restore_model(ckpt, config_path=None):
    """``(cfg, model)`` for a read checkpoint: the config from
    ``config_path``, else the one ``ckpt`` embeds, and that config's model
    holding the stored weights. A record the model has no exact place for
    raises ShapeError naming it (see :func:`load_into_model`)."""
    if config_path is not None:
        cfg = TrainConfig.from_file(config_path)
    elif ckpt.config_text.strip():
        source = f"{ckpt.source}: embedded config"
        raw = parse_kv(ckpt.config_text, source=source)
        try:
            cfg = TrainConfig.from_dict(raw)
        except ConfigError as e:
            raise ConfigError(f"{source}: {e}") from None
    else:
        raise ConfigError("checkpoint carries no config; pass --config")
    model = build_model(cfg, np.random.default_rng(cfg.seed_init))
    load_into_model(ckpt, model)
    return cfg, model


def _permutation(cfg: TrainConfig):
    """The shared pixel order of an mnist-permuted task, else None."""
    if cfg.task == "mnist-permuted":
        return D.make_permutation(seed=cfg.seed_permutation)
    return None


def _load_splits(cfg: TrainConfig, splits) -> dict:
    """``{split: (sequences, labels)}`` for ``splits`` (one split, or train
    and val), reading only the files they need, each once. An mnist task
    cuts train and val off one IDX pair; labels are None for pianoroll."""
    stop = {"train": cfg.train_count or None}  # where each split is cut
    if not cfg.is_classification():
        paths = {"train": cfg.train_path, "val": cfg.val_path,
                 "test": cfg.test_path}
        if not all(paths[split] for split in splits):
            raise ConfigError("field test_path: needed for the test split"
                              if "test" in splits else
                              "field train_path/val_path: pianoroll needs both")
        return {split: (D.read_pianoroll(paths[split]).sequences[: stop.get(split)],
                        None) for split in splits}
    fields = ("test_images", "test_labels") if "test" in splits else \
        ("images", "labels")
    images, labels = (getattr(cfg, name) for name in fields)
    if not images or not labels:
        raise ConfigError(f"field {'/'.join(fields)}: mnist tasks need IDX paths")
    ds = D.read_idx(images, labels)
    if ds.images.shape[1:] != (28, 28):
        raise DataError(f"{images}: images are {ds.images.shape[1]}x"
                        f"{ds.images.shape[2]}, mnist tasks need 28x28")
    parts = {"test": ds} if "test" in splits else \
        dict(zip(("train", "val"), D.split_train_val(ds, cfg.val_count)))
    mode, perm = cfg.task.removeprefix("mnist-"), _permutation(cfg)
    return {split: (D.serialize_images(parts[split].images[: stop.get(split)],
                                       mode, perm),
                    parts[split].labels[: stop.get(split)]) for split in splits}


def load_split(cfg: TrainConfig, split: str):
    """``(sequences, labels)`` of split ``train``, ``val`` or ``test``, read
    from that split's files alone (labels None for prediction tasks)."""
    if split not in ("train", "val", "test"):
        raise ConfigError(f"split must be train, val or test, got {split!r}")
    return _load_splits(cfg, (split,))[split]


def load_task_data(cfg: TrainConfig) -> dict:
    """The train and val splits, each input file read once:
    ``{"train": sequences, "train_labels": ..., "val": ..., "val_labels":
    ...}``, labels None for prediction tasks."""
    (train, train_labels), (val, val_labels) = \
        _load_splits(cfg, ("train", "val")).values()
    return {"train": train, "train_labels": train_labels,
            "val": val, "val_labels": val_labels}


def _batches(cfg: TrainConfig, sequences, labels, shuffle_seed=None):
    """``sequences`` in batches of ``cfg.batch_size`` for the config's
    task; a batch divides pixel bytes by 255 when it runs, notes by 1."""
    classify = cfg.is_classification()
    return D.make_batches(sequences, "classify" if classify else "predict",
                          cfg.batch_size, shuffle_seed=shuffle_seed,
                          labels=labels,
                          divisor=D.PIXEL_DIVISOR if classify else 1.0)


def _batch_view(batch: D.SequenceBatch, classify: bool):
    """``(x_tm, mask_tm, targets, weight)``: ``batch`` time-major, as the
    model reads it, and the weight its mean loss averages over (sequences
    for classification, valid target frames for prediction)."""
    x_tm, mask_tm = batch.time_major()
    if classify:
        return x_tm, mask_tm, batch.targets, batch.size
    return (x_tm, mask_tm, batch.targets.transpose(1, 0, 2),
            float(mask_tm.sum()))


def batch_loss_and_grads(model, batch: D.SequenceBatch, classify: bool):
    """Run one batch through the model; returns (loss, weight)."""
    x_tm, mask_tm, targets, weight = _batch_view(batch, classify)
    loss, _ = model.loss_and_grads(x_tm, mask_tm, targets)
    return loss, weight


def train_step(model, optimizer, batch: D.SequenceBatch, classify: bool,
               clip_norm: float):
    """One optimizer step on ``batch``; returns ``(loss, weight, grad_norm)``.

    ``grad_norm`` is the global norm of the gradients before clipping them
    to ``clip_norm`` (no clipping at 0). A non-finite loss or norm raises
    NumericError, worded ``<what>; <hint>``, before the weights move.
    """
    model.zero_grads()
    loss, weight = batch_loss_and_grads(model, batch, classify)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}; try a lower lr or "
                           f"enable clip_norm")
    grads = model.grads()
    if clip_norm > 0.0:
        norm = clip_global_norm(grads, clip_norm)
    else:
        norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NumericError(f"non-finite gradient norm {norm}; try a lower lr")
    optimizer.step(grads)
    return loss, weight, norm


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
        x_tm, mask_tm, targets, weight = _batch_view(batch, classify)
        logits = model.forward(x_tm, mask=mask_tm)
        if classify:
            loss, _ = softmax_cross_entropy(logits, targets)
            correct += int(np.sum(np.argmax(logits, axis=1) == targets))
        else:
            loss, _ = bernoulli_frame_nll(logits, targets, mask_tm)
            counts += frame_counts(logits, targets, mask_tm)
        loss_sum += loss * weight
        weight_sum += weight
    loss = loss_sum / weight_sum
    if classify:
        return loss, correct / weight_sum
    return loss, pooled_frame_accuracy(counts)


def _grad_stats(norms, clip_norm: float) -> dict:
    """An epoch's gradient diagnostics from its batches' pre-clip global
    norms: their mean and maximum, and ``clip_frac``, the share of batches
    whose norm exceeds ``clip_norm`` (0 when ``clip_norm`` is 0, which
    clips nothing)."""
    clipped = sum(norm > clip_norm for norm in norms) if clip_norm > 0.0 else 0
    return {"grad_norm_mean": sum(norms) / len(norms),
            "grad_norm_max": max(norms),
            "clip_frac": clipped / len(norms)}


class RunLog:
    """Append-only key-value text log, open for one ``with`` block.

    Epoch records are bare ``key=value`` lines; anything contextual goes in
    ``#`` comment lines. Every record carries the config hash so logs,
    checkpoints and reports from one run tie together.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

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


def train_run(cfg: TrainConfig, echo=None) -> dict:
    """Train per config; returns a summary dict.

    Artifacts land in ``cfg.out_dir``: the resolved config, the run log,
    and ``best.ttcp``/``last.ttcp`` checkpoints, ``last.ttcp`` rewritten
    after every epoch. With ``epochs = 0`` only
    the model report (and an untrained checkpoint for inspection) is
    produced. A non-finite loss or gradient norm aborts with a diagnostic
    before the weights are touched.
    """
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    cfg_text = cfg.to_text()
    digest = cfg.digest()
    with open(os.path.join(out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(cfg_text)
    say = echo if echo is not None else (lambda text: None)
    model = build_model(cfg, np.random.default_rng(cfg.seed_init))
    report = model_report(model, cfg.baseline_hidden or None)
    classify = cfg.is_classification()
    best_path = os.path.join(out_dir, "best.ttcp")
    last_path = os.path.join(out_dir, "last.ttcp")
    summary = {"report": report, "records": [], "best_path": best_path,
               "hash": digest, "model": model}

    with RunLog(os.path.join(out_dir, "run.log")) as log:
        log.comment(f"config hash {digest}")
        for line in report.lines():
            log.comment(line)
            say(line)
        if cfg.epochs == 0:
            save_checkpoint(best_path, model, cfg_text, meta={"epoch": 0})
            return summary

        dataset = load_task_data(cfg)
        perm = _permutation(cfg)
        if perm is not None:
            log.comment(f"permutation {D.permutation_digest(perm)}")
        val_batches = make_eval_batches(cfg, dataset["val"],
                                        dataset["val_labels"])
        optimizer = Adam(model.params(), lr=cfg.lr, beta1=cfg.beta1,
                         beta2=cfg.beta2, eps=cfg.eps)
        best_val, best_epoch = np.inf, 0
        for epoch in range(1, cfg.epochs + 1):
            start = time.monotonic()
            batches = _batches(cfg, dataset["train"], dataset["train_labels"],
                               shuffle_seed=cfg.seed_data + epoch)
            loss_sum = weight_sum = 0.0
            norms = []
            for i, batch in enumerate(batches):
                try:
                    loss, weight, norm = train_step(model, optimizer, batch,
                                                    classify, cfg.clip_norm)
                except NumericError as e:
                    what, _, hint = str(e).partition("; ")
                    where = f"{what} at epoch {epoch} batch {i}"
                    log.comment(f"abort: {where}")
                    raise NumericError(f"{where}; {hint}") from None
                loss_sum += loss * weight
                weight_sum += weight
                norms.append(norm)
            rec = {"epoch": epoch, "train_loss": loss_sum / weight_sum}
            rec["val_loss"], rec["val_metric"] = evaluate(model, val_batches,
                                                          classify)
            rec.update(_grad_stats(norms, cfg.clip_norm))
            wall = time.monotonic() - start
            say(log.record(**{"epoch": epoch, "hash": digest, **rec},
                           wall_s=round(wall, 3)))
            summary["records"].append(rec)
            meta = {key: rec[key] for key in ("epoch", "val_loss", "val_metric")}
            if rec["val_loss"] < best_val:
                best_val, best_epoch = rec["val_loss"], epoch
                save_checkpoint(best_path, model, cfg_text,
                                optimizer=optimizer, meta=meta)
            save_checkpoint(last_path, model, cfg_text, optimizer=optimizer,
                            meta=meta)
            if cfg.early_stop and epoch - best_epoch >= cfg.patience:
                log.comment(f"early stop at epoch {epoch}; best epoch {best_epoch}")
                break
        log.comment(f"best epoch {best_epoch} val_loss {best_val!r}")
    return {**summary, "last_path": last_path}


def make_eval_batches(cfg: TrainConfig, sequences, labels):
    """Fixed-order batches for evaluation (no shuffling)."""
    return _batches(cfg, sequences, labels)
