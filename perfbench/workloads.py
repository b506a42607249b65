"""The two benchmark workloads and the synthetic inputs each one reads.

Every workload is a ``TrainConfig`` field dict plus a generator that writes
its train/validation data as IDX or piano-roll files. The files are written
here, byte by byte, rather than through ``ttrnn.data``'s writers, so the
inputs stay identical across commits of the program under test; the program
only ever reads them back through its own readers.

Why these two, one per regime of the TT cost model:

* ``row-ttgru``: the ``configs/mnist-row-ttgru.cfg`` shape, the paper's 69.8x
  TT-GRU-100 cell. Many small TT calls per step, so call overhead dominates
  and every change to the TT execution plan shows here.
* ``wide-ttsrnn``: the ``configs/bench.cfg`` regime (hidden 4096 = 16x16x16,
  input 256 = 4x8x8, rank 4, batch 16) on short piano-roll songs, where the
  TT sweep is FLOP-bound rather than call-bound and a dense 4096x4096 map
  would need 134 MB. It also has the SRNN cell, the per-timestep head and
  the Bernoulli loss that ``row-ttgru`` lacks.

Both models keep a dense projection and head, so dense maps are measured on
both. Every song has ``song_frames`` frames and, as in the test suite's
piano-roll fixtures, one note per frame: 9 frames give T = 8 input steps and
no padding.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
NOTE_LOW = 21
N_NOTES = 88


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # TrainConfig fields, without seeds and data paths
    train_batches: int  # full batches in the training split
    val_batches: int  # full batches in the validation split
    song_frames: int = 0  # pianoroll: frames per song

    @property
    def batch_size(self) -> int:
        return int(self.config["batch_size"])

    @property
    def classify(self) -> bool:
        return self.config["task"] != "pianoroll"


WORKLOADS = {
    w.name: w for w in (
        Workload("row-ttgru",
                 {"task": "mnist-row", "model": "gru", "parameterization": "tt",
                  "hidden": "100", "hidden_modes": "10x10", "proj": "32",
                  "input_modes": "4x8", "rank": "3", "baseline_hidden": "256",
                  "lr": "1e-3", "clip_norm": "5.0", "batch_size": "32"},
                 train_batches=24, val_batches=8),
        Workload("wide-ttsrnn",
                 {"task": "pianoroll", "model": "srnn", "parameterization": "tt",
                  "hidden": "0", "hidden_modes": "16x16x16", "proj": "256",
                  "input_modes": "4x8x8", "rank": "4", "lr": "1e-3",
                  "clip_norm": "5.0", "batch_size": "16"},
                 train_batches=12, val_batches=4, song_frames=9),
    )
}


def config_dict(workload: Workload, seed: int, data_dir: str) -> dict:
    """The full ``TrainConfig.from_dict`` input for one run."""
    raw = dict(workload.config, seed_init=str(seed), seed_data=str(seed + 1))
    if workload.classify:
        raw.update(images=os.path.join(data_dir, "images.idx"),
                   labels=os.path.join(data_dir, "labels.idx"),
                   train_count="0",
                   val_count=str(workload.batch_size * workload.val_batches))
    else:
        raw.update(train_path=os.path.join(data_dir, "train.txt"),
                   val_path=os.path.join(data_dir, "valid.txt"))
    return raw


def _write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray):
    count, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
        fh.write(labels.astype(np.uint8).tobytes())


def _digit_rows(rng, count: int):
    """Byte images whose class k brightens a class-specific band of rows."""
    labels = rng.integers(0, 10, size=count)
    images = rng.integers(0, 64, size=(count, 28, 28))
    for i, k in enumerate(labels):
        top = 2 * int(k) + 3
        images[i, top:top + 4, 4:24] += 160
    return np.clip(images, 0, 255), labels


def _songs(rng, count: int, frames: int):
    """``count`` songs of ``frames`` frames, one random note per frame."""
    notes = rng.integers(0, N_NOTES, size=(count, frames))
    return np.eye(N_NOTES, dtype=bool)[notes]


def _write_pianoroll(path, songs):
    lines = []
    for i, song in enumerate(songs):
        if i:
            lines.append("---")
        for frame in song:
            lines.append(" ".join(str(int(n) + NOTE_LOW) for n in np.nonzero(frame)[0]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_inputs(workload: Workload, seed: int, data_dir: str) -> dict:
    """Write the workload's data files for ``seed``; returns its config dict."""
    os.makedirs(data_dir, exist_ok=True)
    raw = config_dict(workload, seed, data_dir)
    rng = np.random.default_rng([seed, 0x7772])
    b = workload.batch_size
    if workload.classify:
        images, labels = _digit_rows(rng, b * (workload.train_batches
                                               + workload.val_batches))
        _write_idx(raw["images"], raw["labels"], images, labels)
    else:
        for key, groups in (("train_path", workload.train_batches),
                            ("val_path", workload.val_batches)):
            _write_pianoroll(raw[key], _songs(rng, groups * b,
                                              workload.song_frames))
    return raw
