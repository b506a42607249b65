"""Versioned binary container for model + optimizer state.

Layout (all integers little-endian int64):

    magic ``TTCP`` | version | config text (length-prefixed utf-8)
    | record count | records...

Each record is ``name`` (length-prefixed utf-8), ``kind``, payload length,
payload bytes. Kind 0 is a raw float64 array (ndim, dims..., data); kind 1
is a TT map's cores in the TTM1 layout (:func:`_map_payload`). The reader
rejects any other kind and a repeated name, and parses every record as it
reads it; a record's payload length bounds the parse of its contents.

A model is saved as, and loaded from, one record list
(:func:`_model_slots`), named after its ``params()`` keys: a TT map is one
kind-1 record ``map:<name>``, each ``params()`` entry of a dense map a
kind-0 record ``map:<name>.<key>``, each bare array a kind-0 record
``arr:<name>``. Optimizer tensors go under ``opt:`` and run metadata
scalars under ``meta:``, each one float64. Loading demands exactly the
model's list: a missing or spare ``map:``/``arr:`` record is rejected.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .linear import TTLinear
from .reader import Reader
from .ttmatrix import TTMatrix, TTSpec

MAGIC = b"TTCP"
_MAP_MAGIC = b"TTM1"
VERSION = 1
KIND_ARRAY = 0
KIND_TTMAP = 1


def _write_i64(fh, *values):
    fh.write(struct.pack(f"<{len(values)}q", *values))


def _write_str(fh, text: str):
    data = text.encode("utf-8")
    _write_i64(fh, len(data))
    fh.write(data)


def _read_str(r: Reader, what: str) -> str:
    (n,) = r.unpack("<q", f"{what} length")
    if not 0 <= n <= (1 << 32):
        raise FormatError(f"{r.source}: implausible {what} length {n}")
    return r.text(n, what)


def _array_payload(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    buf = io.BytesIO()
    _write_i64(buf, arr.ndim, *arr.shape)
    buf.write(arr.tobytes())
    return buf.getvalue()


def _parse_array(payload: bytes, source: str) -> np.ndarray:
    r = Reader(payload, source)
    (ndim,) = r.unpack("<q", "ndim")
    if not 0 <= ndim <= 32:
        raise FormatError(f"{source}: implausible ndim {ndim}")
    shape = r.unpack(f"<{ndim}q", "shape")
    if any(dim < 0 for dim in shape):
        raise FormatError(f"{source}: negative dimension in shape {shape}")
    arr = r.array("<f8", shape, f"data of shape {shape}")
    r.end()
    return arr


def _map_payload(lm: TTLinear) -> bytes:
    """``lm``'s cores in the TTM1 layout: magic ``TTM1``, then little-endian
    int64 fields ``d``, ``out_modes[0..d)``, ``in_modes[0..d)``,
    ``ranks[0..d]`` and a bias flag, always 0 (a TT map holds no bias; the
    cell owns it), then each core's float64 data in C order, first core
    first."""
    spec = lm.tt.spec
    buf = io.BytesIO()
    buf.write(_MAP_MAGIC)
    _write_i64(buf, spec.ndim, *spec.out_modes, *spec.in_modes, *spec.ranks, 0)
    for g in lm.tt.cores:
        buf.write(np.ascontiguousarray(g, dtype="<f8").tobytes())
    return buf.getvalue()


def _parse_map(payload, source: str) -> TTMatrix:
    """The TT map that :func:`_map_payload` wrote into ``payload``; errors
    name ``source``. A bias flag other than 0 is a format error."""
    r = Reader(payload, source)
    magic = bytes(r.take(4, "magic"))
    if magic != _MAP_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {_MAP_MAGIC!r}")
    (d,) = r.unpack("<q", "header: core count")
    if not 1 <= d <= 64:
        raise FormatError(f"{source}: implausible core count {d}")
    fields = r.unpack(f"<{3 * d + 2}q", "header: mode/rank/flag fields")
    if fields[-1] != 0:
        raise FormatError(f"{source}: bias flag must be 0, got {fields[-1]}")
    try:
        spec = TTSpec(fields[:d], fields[d:2 * d], fields[2 * d:3 * d + 1])
    except ShapeError as e:
        raise FormatError(f"{source}: invalid header: {e}") from e
    cores = [r.array("<f8", spec.core_shape(k),
                     f"core {k} of shape {spec.core_shape(k)}")
             for k in range(d)]
    r.end()
    return TTMatrix(spec, cores)


def _model_slots(model) -> list:
    """The model's records in file order, as ``(record name, kind, target)``;
    the target is the :class:`TTLinear` of a kind-1 record and the array of
    a kind-0 one."""
    slots = []
    for name, lm in model.named_maps().items():
        if isinstance(lm, TTLinear):
            slots.append((f"map:{name}", KIND_TTMAP, lm))
        else:
            slots += [(f"map:{name}.{key}", KIND_ARRAY, arr)
                      for key, arr in lm.params().items()]
    return slots + [(f"arr:{name}", KIND_ARRAY, arr)
                    for name, arr in model.named_arrays().items()]


def save_checkpoint(path, model, config_text: str = "", optimizer=None,
                    meta: dict | None = None):
    """Write model (and optionally optimizer) state to ``path``."""
    records = [(name, kind, _map_payload(target) if kind == KIND_TTMAP
                else _array_payload(target))
               for name, kind, target in _model_slots(model)]
    if optimizer is not None:
        for key, arr in optimizer.state().items():
            records.append((f"opt:{key}", KIND_ARRAY, _array_payload(arr)))
    for key, value in (meta or {}).items():
        records.append((f"meta:{key}", KIND_ARRAY,
                        _array_payload(np.asarray([float(value)]))))
    # Write a sibling temp file and rename it over ``path``, so a crash
    # mid-write leaves the previous checkpoint intact.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            _write_i64(fh, VERSION)
            _write_str(fh, config_text)
            _write_i64(fh, len(records))
            for name, kind, payload in records:
                _write_str(fh, name)
                _write_i64(fh, kind, len(payload))
                fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class Checkpoint:
    """Parsed container: config text plus named records, each checked."""

    source = "checkpoint"  # what record errors name; the path once read

    def __init__(self, version: int, config_text: str, records: dict):
        self.version = version
        self.config_text = config_text
        # name -> (kind, array for kind 0 or TTMatrix for kind 1)
        self.records = records

    def _value(self, name: str, kind: int, what: str):
        found, value = self.records[name]
        if found != kind:
            raise FormatError(f"{self.source}: record {name!r} is not {what}")
        return value

    def array(self, name: str) -> np.ndarray:
        return self._value(name, KIND_ARRAY, "an array")

    def ttmap(self, name: str) -> TTMatrix:
        return self._value(name, KIND_TTMAP, "a TT map")

    def meta(self) -> dict:
        """The ``meta:`` scalars by key."""
        return {name[5:]: self.array(name).item() for name in self.records
                if name.startswith("meta:")}


def _parse_record(name: str, kind: int, payload, where: str):
    """A record's value; a ``meta:`` record must be an array of one value."""
    if name.startswith("meta:") and kind != KIND_ARRAY:
        raise FormatError(f"{where} is not an array")
    if kind == KIND_TTMAP:
        return _parse_map(payload, where)
    value = _parse_array(payload, where)
    if name.startswith("meta:") and value.size != 1:
        raise FormatError(f"{where}: a meta scalar needs one value, got shape "
                          f"{value.shape}")
    return value


def read_checkpoint(path) -> Checkpoint:
    """Read and check every record of the checkpoint at ``path``."""
    r = Reader(Path(path).read_bytes(), path)
    magic = bytes(r.take(4, "magic"))
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = r.unpack("<q", "version")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    config_text = _read_str(r, "config text")
    (count,) = r.unpack("<q", "record count")
    if not 0 <= count <= (1 << 20):
        raise FormatError(f"{path}: implausible record count {count}")
    records = {}
    for i in range(count):
        name = _read_str(r, f"record {i} name")
        if name in records:
            raise FormatError(f"{path}: record {name!r}: name repeated")
        kind, length = r.unpack("<2q", f"record {name!r} header")
        if kind not in (KIND_ARRAY, KIND_TTMAP):
            raise FormatError(f"{path}: record {name!r}: unknown kind {kind}")
        if not 0 <= length <= (1 << 40):
            raise FormatError(f"{path}: record {name!r}: implausible length {length}")
        payload = r.take(length, f"record {name!r}")
        records[name] = (kind, _parse_record(name, kind, payload,
                                             f"{path}: record {name!r}"))
    r.end()
    ckpt = Checkpoint(version, config_text, records)
    ckpt.source = path
    return ckpt


def load_into_model(ckpt: Checkpoint, model):
    """Copy checkpoint values into ``model`` in place, walking the same
    record list :func:`save_checkpoint` writes.

    Structure must match exactly; a missing record, a shape difference or
    a spare ``map:``/``arr:`` record raises ShapeError naming the file and
    the offender. Every record is checked before any is copied, so a load
    that fails leaves the model as it was.
    """
    slots = _model_slots(model)
    copies = []  # (destination, source) array pairs
    incompatible = f"{ckpt.source}: checkpoint incompatible:"
    for name, kind, dst in slots:
        if name not in ckpt.records:
            raise ShapeError(f"{incompatible} missing record {name!r}")
        if kind == KIND_TTMAP:
            tt = ckpt.ttmap(name)
            if tt.spec != dst.tt.spec:
                raise ShapeError(f"{incompatible} {name} has spec {tt.spec}, "
                                 f"model expects {dst.tt.spec}")
            copies += zip(dst.tt.cores, tt.cores)
            continue
        src = ckpt.array(name)
        if src.shape != dst.shape:
            raise ShapeError(f"{incompatible} {name} has shape {src.shape}, "
                             f"model expects {dst.shape}")
        copies.append((dst, src))
    expected = {name for name, _, _ in slots}
    for name in ckpt.records:
        if name.startswith(("map:", "arr:")) and name not in expected:
            raise ShapeError(f"{incompatible} spare record {name!r}")
    for dst, src in copies:
        dst[...] = src


def load_optimizer(ckpt: Checkpoint, optimizer):
    """Restore optimizer state saved alongside the model."""
    state = {name[4:]: value for name, (kind, value) in ckpt.records.items()
             if name.startswith("opt:") and kind == KIND_ARRAY}
    if not state:
        raise ShapeError(f"{ckpt.source}: checkpoint incompatible: no "
                         f"optimizer state stored")
    optimizer.load_state(state)


def load_checkpoint(path, model, optimizer=None) -> dict:
    """One-call restore; returns the checkpoint's metadata dict."""
    ckpt = read_checkpoint(path)
    load_into_model(ckpt, model)
    if optimizer is not None:
        load_optimizer(ckpt, optimizer)
    return ckpt.meta()
