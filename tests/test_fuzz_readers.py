"""Byte-level fuzz of every file reader.

Whatever bytes a TTM1, TTCP, IDX or piano-roll file holds, its reader
returns or raises ``FormatError`` or ``DataError``, the errors the CLI maps
to exit 2. Each fixture is cut at every byte and has every integer header
field overwritten with extreme values; a derandomized hypothesis search
then sets arbitrary bytes anywhere in it.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import periodic_songs, striped_images, write_idx, write_pianoroll
from ttrnn.checkpoint import (KIND_ARRAY, _map_payload, _parse_map,
                              read_checkpoint, save_checkpoint)
from ttrnn.data import read_idx, read_pianoroll
from ttrnn.errors import DataError, FormatError
from ttrnn.linear import TTLinear
from ttrnn.models import build_classifier
from ttrnn.ttmatrix import TTSpec

HEADER_VALUES = (-1, 0, 2 ** 31, 2 ** 40, 2 ** 62, 2 ** 63 - 1)


def _i64(raw: bytes, pos: int) -> int:
    return struct.unpack_from("<q", raw, pos)[0]


def ttm1_fields(raw: bytes, base: int = 0) -> list:
    """Offsets of the int64 header fields of the TTM1 blob at ``base``."""
    return [base + 4 + 8 * i for i in range(3 * _i64(raw, base + 4) + 3)]


def ttcp_fields(raw: bytes) -> list:
    """Offsets of the int64 header fields of a TTCP file, the array and
    TTM1 headers inside its records included."""
    pos = 20 + _i64(raw, 12)  # past magic, version and config text
    fields = [4, 12, pos]
    count = _i64(raw, pos)
    pos += 8
    for _ in range(count):
        fields.append(pos)  # name length
        pos += 8 + _i64(raw, pos)
        fields += [pos, pos + 8]  # kind, payload length
        kind, length = struct.unpack_from("<qq", raw, pos)
        pos += 16
        if kind == KIND_ARRAY:  # ndim, dims
            fields += [pos + 8 * i for i in range(1 + _i64(raw, pos))]
        else:
            fields += ttm1_fields(raw, pos)
        pos += length
    return fields


class Fixture:
    """One reader, the bytes of a valid file for it, and the offsets of
    the file's integer header fields."""

    def __init__(self, raw: bytes, parse, fields=(), width=8, byteorder="little"):
        self.raw = raw
        self.parse = parse
        self.fields = list(fields)
        self.width = width
        self.byteorder = byteorder

    def overwrites(self):
        for pos in self.fields:
            for value in HEADER_VALUES:
                # IDX fields are uint32: the values land modulo 2^32.
                value %= 1 << (8 * self.width)
                field = value.to_bytes(self.width, self.byteorder)
                yield self.raw[:pos] + field + self.raw[pos + self.width:]


def _fixtures(root) -> dict:
    ttm1 = _map_payload(TTLinear.glorot(TTSpec.with_rank((2, 3), (4, 2), 2),
                                        np.random.default_rng(0)))

    model = build_classifier(4, 3, "gru", 4, np.random.default_rng(1),
                             proj_dim=None, in_modes=(2, 2),
                             hidden_modes=(2, 2), rank=2)
    ckpt_path = root / "model.ttcp"
    save_checkpoint(ckpt_path, model, config_text="task = mnist-row\n",
                    meta={"epoch": 3})

    def parse_ttm1(path):
        _parse_map(path.read_bytes(), str(path))

    def parse_ttcp(path):
        ckpt = read_checkpoint(path)
        ckpt.meta()
        for name, (kind, _) in ckpt.records.items():
            ckpt.array(name) if kind == KIND_ARRAY else ckpt.ttmap(name)

    images, labels = root / "images.idx", root / "labels.idx"
    write_idx(images, labels, striped_images(2, seed=3))
    songs = root / "songs.txt"
    write_pianoroll(songs, periodic_songs(2, 5))
    ttcp = ckpt_path.read_bytes()
    images_raw = images.read_bytes()
    labels_raw = labels.read_bytes()
    return {
        "ttm1": Fixture(ttm1, parse_ttm1, ttm1_fields(ttm1)),
        "ttcp": Fixture(ttcp, parse_ttcp, ttcp_fields(ttcp)),
        "idx-images": Fixture(images_raw, lambda path: read_idx(path, labels),
                              (4, 8, 12), 4, "big"),
        "idx-labels": Fixture(labels_raw, lambda path: read_idx(images, path),
                              (4,), 4, "big"),
        "pianoroll": Fixture(songs.read_bytes(), read_pianoroll),
    }


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return _fixtures(tmp_path_factory.mktemp("fuzz"))


def _parse(fixture, raw, path):
    path.write_bytes(raw)
    try:
        fixture.parse(path)
    except (FormatError, DataError):
        pass


@pytest.mark.parametrize("fmt", ["ttm1", "ttcp", "idx-images", "idx-labels",
                                 "pianoroll"])
def test_every_truncation_and_header_overwrite(fixtures, tmp_path, fmt):
    fixture = fixtures[fmt]
    path = tmp_path / "input"
    path.write_bytes(fixture.raw)
    fixture.parse(path)  # the unmutated file is valid
    for cut in range(len(fixture.raw)):
        _parse(fixture, fixture.raw[:cut], path)
    for raw in fixture.overwrites():
        _parse(fixture, raw, path)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_arbitrary_bytes_anywhere(fixtures, tmp_path_factory, data):
    fmt = data.draw(st.sampled_from(sorted(fixtures)))
    raw = bytearray(fixtures[fmt].raw)
    for pos, byte in data.draw(st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
            min_size=1, max_size=4)):
        raw[pos] = byte
    _parse(fixtures[fmt], bytes(raw), tmp_path_factory.getbasetemp() / "mutant")
