"""Dataset ingestion and sequence serialization.

Three concerns live here:

* MNIST-style IDX files (big-endian, magic 0x00000803 for image tensors and
  0x00000801 for label vectors) and the three ways a 28x28 image becomes a
  sequence: row scan (T=28, 28 wide), pixel scan (T=784, 1 wide), and pixel
  scan under one shared fixed permutation.

* A line-oriented piano-roll text format. One line is one timestep holding
  the space-separated MIDI note numbers (21..108) active at that step; an
  empty line is a silent timestep; a line containing only ``---`` ends a
  song and starts the next. Note n maps to frame index n-21 of an 88-wide
  binary frame. (The separator cannot be the empty line: silence inside a
  song is encoded as an empty line, so songs need a marker that is not a
  valid timestep.)

* Padded batching: sequences of unequal length are right-padded and carry a
  prefix mask; next-frame prediction pairs inputs x_1..x_{T-1} with targets
  x_2..x_T before padding.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ShapeError
from .reader import Reader, decode

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
N_NOTES = 88
NOTE_LOW = 21
NOTE_HIGH = 108
SONG_SEPARATOR = "---"


@dataclass
class ImageDataset:
    """Grayscale images in [0,1] with integer class labels."""

    images: np.ndarray  # (count, rows, cols) float64
    labels: np.ndarray  # (count,) int64 in [0, 10)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise DataError(f"images must be 3-D, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise DataError("labels must lie in [0, 10)")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise DataError("pixel values must lie in [0, 1]")

    def __len__(self):
        return self.images.shape[0]


def _read_idx_file(path, magic: int, ndim: int) -> np.ndarray:
    r = Reader(Path(path).read_bytes(), path)
    found, *dims = r.unpack(f">{1 + ndim}I", "header")
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at offset 0, "
                          f"expected 0x{magic:08x}")
    data = r.array(np.uint8, dims, f"bytes of {'x'.join(map(str, dims))} items")
    r.end()
    return data


def read_idx(images_path, labels_path) -> ImageDataset:
    """Parse an IDX image/label file pair into one dataset.

    Byte pixels are scaled to [0,1] by /255. Errors carry the byte offset
    of the field that failed.
    """
    images = _read_idx_file(images_path, IDX_IMAGE_MAGIC, 3)
    labels = _read_idx_file(labels_path, IDX_LABEL_MAGIC, 1)
    if labels.shape[0] != images.shape[0]:
        raise FormatError(f"{labels_path}: count {labels.shape[0]} at offset "
                          f"4 does not match {images.shape[0]} images")
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DataError(f"{labels_path}: label {labels[bad[0]]} at offset "
                        f"{8 + bad[0]} outside [0, 10)")
    return ImageDataset(images / 255.0, labels.astype(np.int64))


def make_permutation(seed: int, n: int = 784) -> np.ndarray:
    """The shared pixel permutation for the permuted ordering.

    One permutation per run, drawn once from the seeded generator; every
    image must use the same one.
    """
    return np.random.default_rng(seed).permutation(n)


def permutation_digest(permutation) -> str:
    """Short stable fingerprint, logged so runs can be compared."""
    h = hashlib.sha256(np.asarray(permutation, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


def _check_permutation(permutation, n: int) -> np.ndarray:
    perm = np.asarray(permutation)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise DataError(f"permutation must be a bijection on 0..{n - 1}")
    return perm.astype(np.int64)


def serialize_images(images, mode: str, permutation=None) -> np.ndarray:
    """Flatten a ``(count, rows, cols)`` stack of images into ``count``
    sequences at once, as one ``(count, T, N)`` array.

    ``row``: each image's rows top to bottom (T=rows, N=cols): the stack.
    ``pixel``: each pixel in row-major order (T=rows*cols, N=1): a view.
    ``permuted``: pixel order rearranged by one shared permutation, checked
    once and applied as one gather.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ShapeError(f"images must be (count, rows, cols), got shape "
                         f"{images.shape}")
    count, rows, cols = images.shape
    if mode in ("row", "pixel"):
        if permutation is not None:
            raise DataError("permutation only applies to mode 'permuted'")
        return images if mode == "row" else images.reshape(count, rows * cols, 1)
    if mode == "permuted":
        if permutation is None:
            raise DataError("mode 'permuted' needs the shared permutation")
        perm = _check_permutation(permutation, rows * cols)
        return images.reshape(count, rows * cols)[:, perm, None]
    raise DataError(f"mode must be row|pixel|permuted, got {mode!r}")


@dataclass
class PianoRollDataset:
    """Variable-length songs, each a (T, 88) binary frame matrix."""

    sequences: list

    def __post_init__(self):
        checked = []
        for i, seq in enumerate(self.sequences):
            seq = np.asarray(seq, dtype=np.float64)
            if seq.ndim != 2 or seq.shape[1] != N_NOTES:
                raise DataError(f"song {i} must be (T, {N_NOTES}), got {seq.shape}")
            if seq.shape[0] < 1:
                raise DataError(f"song {i} has no timesteps")
            if not np.all((seq == 0.0) | (seq == 1.0)):
                raise DataError(f"song {i} contains non-binary values")
            checked.append(seq)
        self.sequences = checked

    def __len__(self):
        return len(self.sequences)


def read_pianoroll(path) -> PianoRollDataset:
    """Parse the line-oriented piano-roll format (module docstring)."""
    songs = []
    frames = []
    last_line = 0
    text = decode(Path(path).read_bytes(), "ascii", path)
    # Lines as text-mode iteration yields them: split at \n, \r and \r\n
    # only (str.splitlines also splits at \x0b, \x0c and \x1c-\x1e).
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        last_line = lineno
        line = line.strip()
        if line == SONG_SEPARATOR:
            if not frames:
                raise FormatError(f"{path}:{lineno}: separator ends an empty song")
            songs.append(np.array(frames))
            frames = []
            continue
        frame = np.zeros(N_NOTES)
        if line:
            for tok in line.split():
                try:
                    note = int(tok)
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: {tok!r} is not a note number"
                    ) from None
                if not NOTE_LOW <= note <= NOTE_HIGH:
                    raise FormatError(
                        f"{path}:{lineno}: note {note} outside "
                        f"[{NOTE_LOW}, {NOTE_HIGH}]"
                    )
                frame[note - NOTE_LOW] = 1.0
        frames.append(frame)
    if frames:
        songs.append(np.array(frames))
    elif songs:
        raise FormatError(f"{path}:{last_line}: trailing separator ends an "
                          f"empty song")
    return PianoRollDataset(songs)


@dataclass
class SequenceBatch:
    """One padded minibatch.

    ``inputs`` is (batch, T_max, N); ``mask`` is (batch, T_max) with each
    row a block of ones then zeros; ``targets`` is either (batch,) integer
    labels or (batch, T_max, N) next-step frames aligned with ``inputs``.
    """

    inputs: np.ndarray
    mask: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.inputs.ndim != 3:
            raise ShapeError(f"inputs must be (B, T, N), got {self.inputs.shape}")
        if self.mask.shape != self.inputs.shape[:2]:
            raise ShapeError(f"mask {self.mask.shape} must match inputs "
                             f"{self.inputs.shape[:2]}")
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise DataError("mask must be 0/1")
        if np.any(np.diff(self.mask, axis=1) > 0):
            raise DataError("mask rows must be a prefix of ones")
        if not np.all(self.mask[:, 0] == 1.0):
            raise DataError("every sequence must have at least one valid step")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def time_major(self):
        """(inputs (T, B, N), mask (T, B)) views for the recurrent unroll."""
        return self.inputs.transpose(1, 0, 2), self.mask.T


def _pad_batch(seqs: list) -> tuple:
    t_max = max(s.shape[0] for s in seqs)
    width = seqs[0].shape[1]
    inputs = np.zeros((len(seqs), t_max, width))
    mask = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        inputs[i, : s.shape[0]] = s
        mask[i, : s.shape[0]] = 1.0
    return inputs, mask


def make_batches(sequences, task: str, batch_size: int, shuffle_seed=None,
                 labels=None) -> list:
    """Deterministically batch sequences for one epoch.

    ``task`` is ``classify`` (needs ``labels``, one per sequence) or
    ``predict`` (targets are each sequence shifted by one step; sequences
    must have T >= 2). Order is shuffled by ``shuffle_seed`` when given;
    the final batch may be smaller. Same seed, same batches.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    n = len(sequences)
    if n == 0:
        raise DataError("dataset is empty")
    if task == "classify":
        if labels is None or len(labels) != n:
            raise DataError("classify needs one label per sequence")
    elif task == "predict":
        if labels is not None:
            raise DataError("predict does not take labels")
    else:
        raise DataError(f"task must be classify or predict, got {task!r}")
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        seqs = [np.asarray(sequences[i], dtype=np.float64) for i in idx]
        if task == "classify":
            inputs, mask = _pad_batch(seqs)
            targets = np.asarray([labels[i] for i in idx], dtype=np.int64)
        else:
            if any(s.shape[0] < 2 for s in seqs):
                raise DataError("predict needs sequences of at least 2 steps")
            inputs, mask = _pad_batch([s[:-1] for s in seqs])
            targets, _ = _pad_batch([s[1:] for s in seqs])
        batches.append(SequenceBatch(inputs, mask, targets))
    return batches


def split_train_val(dataset: ImageDataset, val_count: int = 10000):
    """Carve the validation set off the end of a training dataset."""
    n = len(dataset)
    if not 0 < val_count < n:
        raise DataError(f"val_count {val_count} must lie in (0, {n})")
    cut = n - val_count
    train = ImageDataset(dataset.images[:cut], dataset.labels[:cut])
    val = ImageDataset(dataset.images[cut:], dataset.labels[cut:])
    return train, val
