"""IDX parsing, sequence serialization, piano-roll format, batching."""

import struct

import numpy as np
import pytest

from synthdata import write_idx, write_pianoroll
from ttrnn import DataError, FormatError, ShapeError
from ttrnn import data as D
from ttrnn.data import (
    ImageDataset,
    PianoRollDataset,
    SequenceBatch,
    make_batches,
    make_permutation,
    permutation_digest,
    read_idx,
    read_pianoroll,
    serialize_images,
    split_train_val,
)


def write_bytes(path, raw):
    with open(path, "wb") as fh:
        fh.write(raw)


def idx_pair(tmp_path, image_payload, label_payload, count=2, rows=2, cols=3,
             image_magic=0x803, label_magic=0x801, label_count=None):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    write_bytes(img, struct.pack(">IIII", image_magic, count, rows, cols)
                + image_payload)
    write_bytes(lab, struct.pack(">II", label_magic,
                                 count if label_count is None else label_count)
                + label_payload)
    return img, lab


class TestIDX:
    def test_synthetic_fixture_exact_pixels(self):
        # Hand-laid bytes; no writer involved.
        pixels = bytes([0, 128, 255, 1, 2, 3,
                        10, 20, 30, 40, 50, 60])
        labels = bytes([3, 9])
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as d:
            img, lab = idx_pair(pathlib.Path(d), pixels, labels)
            ds = read_idx(img, lab)
        assert len(ds) == 2
        np.testing.assert_allclose(
            ds.images[0],
            np.array([[0, 128, 255], [1, 2, 3]]) / 255.0)
        np.testing.assert_allclose(
            ds.images[1],
            np.array([[10, 20, 30], [40, 50, 60]]) / 255.0)
        np.testing.assert_array_equal(ds.labels, [3, 9])

    def test_zero_images_valid(self, tmp_path):
        img, lab = idx_pair(tmp_path, b"", b"", count=0)
        ds = read_idx(img, lab)
        assert len(ds) == 0

    def test_bad_magic(self, tmp_path):
        img, lab = idx_pair(tmp_path, bytes(12), bytes(2), image_magic=0x804)
        with pytest.raises(FormatError, match="offset 0"):
            read_idx(img, lab)
        img, lab = idx_pair(tmp_path, bytes(12), bytes(2), label_magic=0x802)
        with pytest.raises(FormatError, match="magic"):
            read_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = idx_pair(tmp_path, bytes(12), bytes(3), label_count=3)
        with pytest.raises(FormatError, match="does not match"):
            read_idx(img, lab)

    def test_truncated_reports_offset(self, tmp_path):
        img, lab = idx_pair(tmp_path, bytes(11), bytes(2))  # one pixel short
        with pytest.raises(FormatError, match="offset"):
            read_idx(img, lab)

    @pytest.mark.parametrize("count,rows,cols", [
        (2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1),
        (0, 2 ** 32 - 1, 2 ** 32 - 1),
    ], ids=["pixel-bytes", "no-images"])
    def test_oversized_header_is_format_error(self, tmp_path, count, rows, cols):
        # The first header's pixel count does not fit an index; the second
        # claims no pixels but dimensions numpy cannot index.
        img, lab = idx_pair(tmp_path, b"", b"", count=count, rows=rows, cols=cols)
        with pytest.raises(FormatError, match="4294967295x4294967295"):
            read_idx(img, lab)

    def test_label_out_of_range_names_file_and_offset(self, tmp_path):
        img, lab = idx_pair(tmp_path, bytes(12), bytes([3, 12]))
        with pytest.raises(DataError, match=r"lab\.idx: label 12 at offset 9 "):
            read_idx(img, lab)

    def test_trailing_bytes(self, tmp_path):
        img, lab = idx_pair(tmp_path, bytes(13), bytes(2))
        with pytest.raises(FormatError, match="trailing"):
            read_idx(img, lab)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = ImageDataset(rng.integers(0, 256, size=(5, 4, 4)) / 255.0,
                          rng.integers(0, 10, size=5))
        write_idx(tmp_path / "i.idx", tmp_path / "l.idx", ds)
        back = read_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_dataset_invariants(self):
        with pytest.raises(DataError):
            ImageDataset(np.zeros((2, 4, 4)), np.array([0, 11]))
        with pytest.raises(DataError):
            ImageDataset(np.zeros((2, 4, 4)), np.array([0]))
        with pytest.raises(DataError):
            ImageDataset(np.full((1, 2, 2), 1.5), np.array([0]))


class TestSerializeImage:
    def setup_method(self):
        self.image = np.arange(784).reshape(28, 28) / 784.0
        # The image, its reverse and its transpose: one stack, one call.
        self.images = np.stack([self.image, self.image[::-1], self.image.T])

    def test_row_mode(self):
        seqs = serialize_images(self.images, "row")
        assert seqs.shape == (3, 28, 28)
        np.testing.assert_array_equal(seqs[0, 3], self.image[3])
        np.testing.assert_array_equal(seqs[2, 3], self.image[:, 3])
        assert np.shares_memory(seqs, self.images)

    def test_pixel_concatenation_is_row_major_flattening(self):
        seqs = serialize_images(self.images, "pixel")
        assert seqs.shape == (3, 784, 1)
        for seq, image in zip(seqs, self.images):
            np.testing.assert_array_equal(seq.reshape(-1), image.reshape(-1))
        assert np.shares_memory(seqs, self.images)

    def test_identity_permutation_equals_pixel_mode(self):
        seqs = serialize_images(self.images, "permuted", np.arange(784))
        np.testing.assert_array_equal(seqs, serialize_images(self.images, "pixel"))
        assert not np.shares_memory(seqs, self.images)

    @pytest.mark.parametrize("mode", ["row", "pixel", "permuted"])
    def test_lossless_inverse(self, mode):
        # Each mode picks every pixel exactly once, so matching direct
        # indexing of each image means no pixel is lost or repeated.
        perm = make_permutation(seed=8888) if mode == "permuted" else None
        seqs = serialize_images(self.images, mode, perm)
        assert len(seqs) == len(self.images)
        for seq, image in zip(seqs, self.images):
            want = {"row": image,
                    "pixel": image.reshape(-1, 1),
                    "permuted": image.reshape(-1)[perm].reshape(-1, 1)}[mode]
            np.testing.assert_array_equal(seq, want)

    def test_permutation_is_shared_and_deterministic(self):
        p1 = make_permutation(seed=8888)
        p2 = make_permutation(seed=8888)
        np.testing.assert_array_equal(p1, p2)
        assert permutation_digest(p1) == permutation_digest(p2)
        assert permutation_digest(make_permutation(seed=1)) != permutation_digest(p1)

    def test_permutation_checked_once_per_stack(self, monkeypatch):
        real = D._check_permutation
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(D, "_check_permutation", counting)
        seqs = serialize_images(self.images, "permuted", make_permutation(seed=8888))
        assert seqs.shape == (3, 784, 1) and len(calls) == 1

    def test_invalid_permutation(self):
        with pytest.raises(DataError):
            serialize_images(self.images, "permuted", np.zeros(784, dtype=int))
        with pytest.raises(DataError):
            serialize_images(self.images, "permuted", np.arange(10))
        with pytest.raises(DataError):
            serialize_images(self.images, "pixel", np.arange(784))
        with pytest.raises(DataError):
            serialize_images(self.images, "permuted")

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            serialize_images(self.images, "column")

    def test_needs_a_stack(self):
        with pytest.raises(ShapeError):
            serialize_images(self.image, "row")


class TestPianoRoll:
    def test_note_mapping(self, tmp_path):
        p = tmp_path / "song.txt"
        p.write_text("60 64 67\n")
        ds = read_pianoroll(p)
        assert len(ds) == 1
        frame = ds.sequences[0][0]
        assert frame.shape == (88,)
        on = set(np.nonzero(frame)[0])
        assert on == {39, 43, 46}  # note - 21

    def test_empty_line_is_silence(self, tmp_path):
        p = tmp_path / "song.txt"
        p.write_text("60\n\n21 108\n")
        seq = read_pianoroll(p).sequences[0]
        assert seq.shape == (3, 88)
        np.testing.assert_array_equal(seq[1], np.zeros(88))
        assert seq[2, 0] == 1.0 and seq[2, 87] == 1.0

    def test_separator_splits_songs(self, tmp_path):
        p = tmp_path / "songs.txt"
        p.write_text("60\n61\n---\n62\n")
        ds = read_pianoroll(p)
        assert len(ds) == 2
        assert ds.sequences[0].shape == (2, 88)
        assert ds.sequences[1].shape == (1, 88)

    def test_out_of_range_note_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("60\n200\n")
        with pytest.raises(FormatError, match=":2"):
            read_pianoroll(p)
        p.write_text("20\n")
        with pytest.raises(FormatError):
            read_pianoroll(p)

    def test_non_integer_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("60 think\n")
        with pytest.raises(FormatError, match=":1"):
            read_pianoroll(p)

    def test_empty_song_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("---\n60\n")
        with pytest.raises(FormatError, match="empty song"):
            read_pianoroll(p)
        p.write_text("60\n---\n")
        with pytest.raises(FormatError, match="empty song"):
            read_pianoroll(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        songs = [(rng.random((t, 88)) < 0.1).astype(float) for t in (5, 3, 9)]
        ds = PianoRollDataset(songs)
        p = tmp_path / "out.txt"
        write_pianoroll(p, ds)
        back = read_pianoroll(p)
        assert len(back) == 3
        for a, b in zip(back.sequences, ds.sequences):
            np.testing.assert_array_equal(a, b)

    def test_dataset_invariants(self):
        with pytest.raises(DataError):
            PianoRollDataset([np.zeros((3, 87))])
        with pytest.raises(DataError):
            PianoRollDataset([np.full((3, 88), 0.5)])
        with pytest.raises(DataError):
            PianoRollDataset([np.zeros((0, 88))])


class TestBatching:
    def test_batch_sizes_4_4_2(self):
        seqs = [np.ones((3, 2))] * 10
        batches = make_batches(seqs, "classify", 4, labels=np.arange(10))
        assert [b.size for b in batches] == [4, 4, 2]

    def test_prediction_pairing_length3(self):
        seq = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        (batch,) = make_batches([seq], "predict", 1)
        # Two supervised steps: x1->x2, x2->x3.
        assert batch.inputs.shape == (1, 2, 2)
        np.testing.assert_array_equal(batch.inputs[0], seq[:-1])
        np.testing.assert_array_equal(batch.targets[0], seq[1:])
        np.testing.assert_array_equal(batch.mask, [[1.0, 1.0]])

    def test_supervised_step_total(self):
        rng = np.random.default_rng(2)
        lens = [4, 7, 2, 9]
        seqs = [(rng.random((t, 88)) < 0.2).astype(float) for t in lens]
        batches = make_batches(seqs, "predict", 3, shuffle_seed=0)
        total = sum(b.mask.sum() for b in batches)
        assert total == sum(t - 1 for t in lens)

    def test_padding_and_prefix_mask(self):
        seqs = [np.ones((5, 3)), np.ones((2, 3))]
        (batch,) = make_batches(seqs, "predict", 2)
        assert batch.inputs.shape == (2, 4, 3)
        np.testing.assert_array_equal(batch.mask, [[1, 1, 1, 1], [1, 0, 0, 0]])
        np.testing.assert_array_equal(batch.inputs[1, 1:], 0.0)

    def test_same_seed_same_order(self):
        seqs = [np.full((2, 1), i, dtype=float) for i in range(20)]
        labels = np.arange(20) % 10
        a = make_batches(seqs, "classify", 6, shuffle_seed=5, labels=labels)
        b = make_batches(seqs, "classify", 6, shuffle_seed=5, labels=labels)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)
            np.testing.assert_array_equal(x.targets, y.targets)
        c = make_batches(seqs, "classify", 6, shuffle_seed=6, labels=labels)
        assert any(not np.array_equal(x.inputs, y.inputs) for x, y in zip(a, c))

    def test_labels_travel_with_sequences(self):
        seqs = [np.full((2, 1), i, dtype=float) for i in range(10)]
        labels = np.arange(10) % 10
        for batch in make_batches(seqs, "classify", 3, shuffle_seed=9,
                                  labels=labels):
            np.testing.assert_array_equal(batch.inputs[:, 0, 0].astype(int),
                                          batch.targets)

    def test_errors(self):
        with pytest.raises(DataError):
            make_batches([], "classify", 4, labels=[])
        with pytest.raises(DataError):
            make_batches([np.ones((2, 1))], "classify", 4)
        with pytest.raises(DataError):
            make_batches([np.ones((2, 1))], "classify", 0, labels=[1])
        with pytest.raises(DataError):
            make_batches([np.ones((1, 1))], "predict", 1)
        with pytest.raises(DataError):
            make_batches([np.ones((2, 1))], "rank", 1)

    def test_mask_prefix_validated(self):
        with pytest.raises(DataError):
            SequenceBatch(np.ones((1, 3, 2)), np.array([[1.0, 0.0, 1.0]]),
                          np.array([0]))
        with pytest.raises(DataError):
            SequenceBatch(np.ones((1, 2, 2)), np.array([[0.0, 0.0]]),
                          np.array([0]))

    def test_time_major_views(self):
        (batch,) = make_batches([np.ones((3, 2)), np.ones((2, 2))], "predict", 2)
        x, m = batch.time_major()
        assert x.shape == (2, 2, 2)
        assert m.shape == (2, 2)
        np.testing.assert_array_equal(m, [[1, 1], [1, 0]])


def test_split_train_val():
    ds = ImageDataset(np.zeros((30, 2, 2)), np.arange(30) % 10)
    train, val = split_train_val(ds, val_count=10)
    assert len(train) == 20 and len(val) == 10
    np.testing.assert_array_equal(val.labels, ds.labels[20:])
    with pytest.raises(DataError):
        split_train_val(ds, val_count=30)
