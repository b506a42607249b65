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

Data stays in the file's bytes until a batch runs: ``read_idx`` returns
uint8 pixels, ``read_pianoroll`` uint8 0/1 frames, and serialization and
batching gather and pad those bytes. :meth:`SequenceBatch.time_major` is
the one place float64 is made: it divides the batch's inputs by its one
``divisor`` (255 for pixels, 1 for notes) into the array the model reads,
with the same bits as dividing the whole stack first. On a synthetic IDX
pair of 60,000 images, loading plus the validation batches plus one epoch
of train batches peaks at +104 MB RSS and takes 0.21 s; float64 pixels
took +733 MB and 0.6-1.1 s (numpy 2.4, one core).
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
PIXEL_DIVISOR = 255.0  # a pixel byte over this is its value in [0, 1]


def _as_bytes(values, top: int, what: str) -> np.ndarray:
    """``values`` as uint8, a DataError unless each is a whole number in
    [0, top]; uint8 bytes with ``top`` 255 pass unchecked and uncopied."""
    values = np.asarray(values)
    if values.dtype != np.uint8 or top < 255:
        if not np.all((values >= 0) & (values <= top) & (values % 1 == 0)):
            raise DataError(f"{what} must be whole numbers in [0, {top}]")
    return values.astype(np.uint8, copy=False)


@dataclass
class ImageDataset:
    """Grayscale images as pixel bytes (value * 255) with integer class
    labels."""

    images: np.ndarray  # (count, rows, cols) uint8
    labels: np.ndarray  # (count,) int64 in [0, 10)

    def __post_init__(self):
        self.images = _as_bytes(self.images, 255, "pixel values")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise DataError(f"images must be 3-D, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise DataError("labels must lie in [0, 10)")

    def __len__(self):
        return self.images.shape[0]


def _read_idx_file(path, magic: int, ndim: int) -> np.ndarray:
    r = Reader.of_file(path)
    found, *dims = r.unpack(f">{1 + ndim}I", "header")
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at offset 0, "
                          f"expected 0x{magic:08x}")
    data = r.array(np.uint8, dims, f"bytes of {'x'.join(map(str, dims))} items")
    r.end()
    return data


def read_idx(images_path, labels_path) -> ImageDataset:
    """Parse an IDX image/label file pair into one dataset.

    Pixels stay the file's bytes; a batch divides them by
    :data:`PIXEL_DIVISOR` when it runs. Errors carry the byte offset of the
    field that failed.
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
    return ImageDataset(images, labels.astype(np.int64))


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
    once and applied as one gather. The sequences keep the stack's dtype.
    """
    images = np.asarray(images)
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
    """Variable-length songs, each a (T, 88) uint8 0/1 frame matrix."""

    sequences: list

    def __post_init__(self):
        checked = []
        for i, seq in enumerate(self.sequences):
            seq = np.asarray(seq)
            if seq.ndim != 2 or seq.shape[1] != N_NOTES:
                raise DataError(f"song {i} must be (T, {N_NOTES}), got {seq.shape}")
            if seq.shape[0] < 1:
                raise DataError(f"song {i} has no timesteps")
            checked.append(_as_bytes(seq, 1, f"song {i}'s frame values"))
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
        frame = np.zeros(N_NOTES, dtype=np.uint8)
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
                frame[note - NOTE_LOW] = 1
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

    ``inputs`` is (batch, T_max, N) in its sequences' own dtype (bytes, for
    data read from files), whose values are ``inputs / divisor``; ``mask``
    is (batch, T_max) with each row a block of ones then zeros; ``targets``
    is either (batch,) integer labels or (batch, T_max, N) next-step frames
    aligned with ``inputs``, which ``divisor`` does not scale.
    """

    inputs: np.ndarray
    mask: np.ndarray
    targets: np.ndarray
    divisor: float = 1.0

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
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
        """``(inputs (T, B, N), mask (T, B))`` for the recurrent unroll: the
        inputs divided by ``divisor`` into a fresh C-contiguous float64
        array, the mask a view."""
        batch, steps, width = self.inputs.shape
        inputs = np.empty((steps, batch, width))
        np.divide(self.inputs.transpose(1, 0, 2), self.divisor, out=inputs)
        return inputs, self.mask.T


def _pad_batch(seqs: list) -> tuple:
    t_max = max(s.shape[0] for s in seqs)
    width = seqs[0].shape[1]
    dtype = np.result_type(*{s.dtype for s in seqs})
    inputs = np.zeros((len(seqs), t_max, width), dtype=dtype)
    mask = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        inputs[i, : s.shape[0]] = s
        mask[i, : s.shape[0]] = 1.0
    return inputs, mask


def make_batches(sequences, task: str, batch_size: int, shuffle_seed=None,
                 labels=None, divisor: float = 1.0) -> list:
    """Deterministically batch sequences for one epoch.

    ``task`` is ``classify`` (needs ``labels``, one per sequence) or
    ``predict`` (targets are each sequence shifted by one step; sequences
    must have T >= 2). Order is shuffled by ``shuffle_seed`` when given;
    the final batch may be smaller. Same seed, same batches. Batches keep
    the sequences' dtype and carry ``divisor`` for
    :meth:`SequenceBatch.time_major` (:data:`PIXEL_DIVISOR` for pixel
    bytes).
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
        seqs = [np.asarray(sequences[i]) for i in idx]
        if task == "classify":
            inputs, mask = _pad_batch(seqs)
            targets = np.asarray([labels[i] for i in idx], dtype=np.int64)
        else:
            if any(s.shape[0] < 2 for s in seqs):
                raise DataError("predict needs sequences of at least 2 steps")
            inputs, mask = _pad_batch([s[:-1] for s in seqs])
            targets, _ = _pad_batch([s[1:] for s in seqs])
        batches.append(SequenceBatch(inputs, mask, targets, divisor))
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
