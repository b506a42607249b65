"""Synthetic datasets and files shared by the training, checkpoint, CLI,
and acceptance tests."""

import struct

import numpy as np

from ttrnn.checkpoint import KIND_ARRAY, KIND_TTMAP, MAGIC, VERSION
from ttrnn.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, NOTE_LOW,
                        SONG_SEPARATOR, ImageDataset, PianoRollDataset)


def write_idx(images_path, labels_path, dataset: ImageDataset) -> None:
    """The IDX pair ``ttrnn.data.read_idx`` reads back as ``dataset``."""
    count, rows, cols = dataset.images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(dataset.images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def write_pianoroll(path, dataset: PianoRollDataset) -> None:
    """The piano-roll text ``ttrnn.data.read_pianoroll`` reads back as
    ``dataset``."""
    with open(path, "w", encoding="ascii") as fh:
        for i, seq in enumerate(dataset.sequences):
            if i:
                fh.write(SONG_SEPARATOR + "\n")
            for frame in seq:
                notes = np.nonzero(frame > 0.5)[0] + NOTE_LOW
                fh.write(" ".join(str(int(n)) for n in notes) + "\n")


def striped_images(n: int, seed: int = 0, classes: int = 10) -> ImageDataset:
    """Classifiable toy images: label k brightens row block k.

    Easy enough that a few epochs of a small model separates them, which
    keeps pipeline tests about plumbing rather than optimization.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    images = rng.uniform(0.0, 0.25, size=(n, 28, 28))
    for i, k in enumerate(labels):
        r0 = 2 * int(k)
        images[i, r0 : r0 + 2, :] += 0.7
    images = np.clip(images, 0.0, 1.0)
    return ImageDataset(np.rint(images * 255.0).astype(np.uint8),
                        labels.astype(np.int64))


def write_idx_fixture(dir_path, n: int, seed: int = 0, classes: int = 10):
    """Write a striped-image IDX pair under ``dir_path``; returns the paths."""
    images_path = str(dir_path / f"images-{n}.idx")
    labels_path = str(dir_path / f"labels-{n}.idx")
    write_idx(images_path, labels_path, striped_images(n, seed, classes))
    return images_path, labels_path


def write_idx_header_fixture(dir_path, count: int, rows: int, cols: int):
    """An IDX pair that is all header: it claims ``count`` images of
    ``rows x cols`` and labels for them, and holds no pixel or label bytes."""
    images_path = dir_path / "header-images.idx"
    labels_path = dir_path / "header-labels.idx"
    images_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
    labels_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, count))
    return str(images_path), str(labels_path)


def noise_images(n: int, seed: int = 0, classes: int = 10) -> ImageDataset:
    """Pure-noise images with labels independent of pixels.

    No model can beat chance here, which pins down what an evaluation of an
    untrained network should report.
    """
    rng = np.random.default_rng(seed)
    images = np.rint(rng.uniform(0.0, 1.0, size=(n, 28, 28)) * 255.0).astype(np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return ImageDataset(images, labels)


def write_noise_idx_fixture(dir_path, n: int, seed: int = 0, classes: int = 10):
    images_path = str(dir_path / f"noise-images-{n}.idx")
    labels_path = str(dir_path / f"noise-labels-{n}.idx")
    write_idx(images_path, labels_path, noise_images(n, seed, classes))
    return images_path, labels_path


def periodic_songs(n_songs: int, length: int, base_note: int = 60,
                   period: int = 8) -> PianoRollDataset:
    """Deterministic cyclic melodies: step t plays base_note + (t mod period).

    Every song walks the same cycle from a song-dependent phase, so the
    next frame is a deterministic function of the current one and a
    sequence model can drive the per-step NLL toward zero.
    """
    songs = []
    for s in range(n_songs):
        frames = np.zeros((length, 88))
        for t in range(length):
            note = base_note + (t + s) % period
            frames[t, note - 21] = 1.0
        songs.append(frames)
    return PianoRollDataset(songs)


def write_pianoroll_fixture(dir_path, n_songs: int = 8, length: int = 40,
                            name: str = "songs.txt"):
    path = str(dir_path / name)
    write_pianoroll(path, periodic_songs(n_songs, length))
    return path


def write_one_record_checkpoint(path, name: str, kind: int, payload: bytes,
                                config: bytes = b"", length=None, copies=1):
    """A checkpoint of raw config text ``config`` and ``copies`` identical
    records whose headers claim ``length`` payload bytes (default: those of
    ``payload``)."""
    def text(raw: bytes) -> bytes:
        return struct.pack("<q", len(raw)) + raw

    length = len(payload) if length is None else length
    record = (text(name.encode("utf-8")) + struct.pack("<qq", kind, length)
              + payload)
    path.write_bytes(MAGIC + struct.pack("<q", VERSION) + text(config)
                     + struct.pack("<q", copies) + record * copies)
    return str(path)


def write_array_record_checkpoint(path, shape, data=(), name="arr:cell.bias"):
    """A checkpoint holding one array record whose header claims ``shape``
    and whose data is the float64 values ``data``, with no config text."""
    payload = (struct.pack(f"<{1 + len(shape)}q", len(shape), *shape)
               + np.asarray(data, dtype="<f8").tobytes())
    return write_one_record_checkpoint(path, name, KIND_ARRAY, payload)


def write_ttmap_header_checkpoint(path, out_modes, in_modes, ranks,
                                  name="map:cell.wx"):
    """A checkpoint holding one TT map record that is a TTM1 header alone
    (bias flag 0, no core data), with no config text."""
    fields = (len(out_modes), *out_modes, *in_modes, *ranks, 0)
    payload = b"TTM1" + struct.pack(f"<{len(fields)}q", *fields)
    return write_one_record_checkpoint(path, name, KIND_TTMAP, payload)
