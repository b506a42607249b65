"""Versioned binary container for model + optimizer state.

Layout (all integers little-endian int64):

    magic ``TTCP`` | version | config text (length-prefixed utf-8)
    | record count | records...

Each record is ``name`` (length-prefixed utf-8), ``kind``, payload length,
payload bytes. Kind 0 is a raw float64 array (ndim, dims..., data); kind 1
is a complete TT map blob in the TTM1 layout, bias included. Length
prefixes make unknown kinds skippable by future readers.

Record names mirror the model's ``params()`` prefixes: TT and dense maps
under ``map:``, bare arrays under ``arr:``, optimizer tensors under
``opt:``, run metadata scalars under ``meta:``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct

import numpy as np

from .errors import FormatError, ShapeError
from .linear import DenseLinear, TTLinear
from .ttmatrix import read_ttmatrix, write_ttmatrix

MAGIC = b"TTCP"
VERSION = 1
KIND_ARRAY = 0
KIND_TTMAP = 1


def _write_i64(fh, *values):
    fh.write(struct.pack(f"<{len(values)}q", *values))


def _write_str(fh, text: str):
    data = text.encode("utf-8")
    _write_i64(fh, len(data))
    fh.write(data)


def _read_exact(fh, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise FormatError(f"truncated checkpoint: wanted {count} bytes for {what}, "
                          f"got {len(raw)}")
    return raw


def _read_i64(fh, count: int, what: str):
    return struct.unpack(f"<{count}q", _read_exact(fh, 8 * count, what))


def _read_str(fh, what: str) -> str:
    (n,) = _read_i64(fh, 1, f"{what} length")
    if not 0 <= n <= (1 << 32):
        raise FormatError(f"implausible {what} length {n}")
    return _read_exact(fh, n, what).decode("utf-8")


def _array_payload(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    buf = io.BytesIO()
    _write_i64(buf, arr.ndim, *arr.shape)
    buf.write(arr.tobytes())
    return buf.getvalue()


def _parse_array(payload: bytes, name: str) -> np.ndarray:
    buf = io.BytesIO(payload)
    (ndim,) = _read_i64(buf, 1, f"{name} ndim")
    if not 0 <= ndim <= 32:
        raise FormatError(f"implausible ndim {ndim} for record {name!r}")
    shape = _read_i64(buf, ndim, f"{name} shape") if ndim else ()
    if any(dim < 0 for dim in shape):
        raise FormatError(f"negative dimension in shape {shape} of record {name!r}")
    # math.prod is exact where an int64 product wraps (2^32 * 2^32 -> 0), and
    # the bound keeps the read below within the payload.
    count = math.prod(shape)
    if 8 * count > len(payload):
        raise FormatError(f"record {name!r}: shape {shape} needs {8 * count} "
                          f"data bytes, payload holds {len(payload)}")
    raw = _read_exact(buf, 8 * count, f"{name} data")
    if buf.read(1):
        raise FormatError(f"trailing bytes in record {name!r}")
    try:
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except ValueError as e:  # an empty array with a dimension numpy cannot index
        raise FormatError(f"record {name!r}: shape {shape}: {e}") from None


def _map_payload(lm: TTLinear) -> bytes:
    buf = io.BytesIO()
    write_ttmatrix(buf, lm.tt, bias=lm.bias)
    return buf.getvalue()


def _model_records(model) -> list:
    records = []
    for name, lm in model.named_maps().items():
        if isinstance(lm, TTLinear):
            records.append((f"map:{name}", KIND_TTMAP, _map_payload(lm)))
        elif isinstance(lm, DenseLinear):
            records.append((f"map:{name}.weight", KIND_ARRAY,
                            _array_payload(lm.weight)))
            if lm.bias is not None:
                records.append((f"map:{name}.bias", KIND_ARRAY,
                                _array_payload(lm.bias)))
        else:
            raise ShapeError(f"cannot serialize map {name!r} of type {type(lm)}")
    for name, arr in model.named_arrays().items():
        records.append((f"arr:{name}", KIND_ARRAY, _array_payload(arr)))
    return records


def save_checkpoint(path, model, config_text: str = "", optimizer=None,
                    meta: dict | None = None):
    """Write model (and optionally optimizer) state to ``path``."""
    records = _model_records(model)
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
    """Parsed container: config text plus named records."""

    def __init__(self, version: int, config_text: str, records: dict):
        self.version = version
        self.config_text = config_text
        self.records = records  # name -> (kind, payload bytes)

    def array(self, name: str) -> np.ndarray:
        kind, payload = self.records[name]
        if kind != KIND_ARRAY:
            raise FormatError(f"record {name!r} is not an array")
        return _parse_array(payload, name)

    def ttmap(self, name: str):
        kind, payload = self.records[name]
        if kind != KIND_TTMAP:
            raise FormatError(f"record {name!r} is not a TT map")
        return read_ttmatrix(io.BytesIO(payload))

    def meta(self) -> dict:
        out = {}
        for name, (kind, _) in self.records.items():
            if name.startswith("meta:") and kind == KIND_ARRAY:
                out[name[5:]] = float(self.array(name).reshape(-1)[0])
        return out


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = _read_i64(fh, 1, "version")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        config_text = _read_str(fh, "config text")
        (count,) = _read_i64(fh, 1, "record count")
        if not 0 <= count <= (1 << 20):
            raise FormatError(f"implausible record count {count}")
        records = {}
        for i in range(count):
            name = _read_str(fh, f"record {i} name")
            kind, length = _read_i64(fh, 2, f"record {name!r} header")
            if kind not in (KIND_ARRAY, KIND_TTMAP):
                raise FormatError(f"record {name!r}: unknown kind {kind}")
            if not 0 <= length <= (1 << 40):
                raise FormatError(f"record {name!r}: implausible length {length}")
            records[name] = (kind, _read_exact(fh, length, f"record {name!r}"))
        if fh.read(1):
            raise FormatError("trailing bytes after last record")
    return Checkpoint(version, config_text, records)


def _load_tt(lm: TTLinear, ckpt: Checkpoint, name: str):
    tt, bias = ckpt.ttmap(name)
    if tt.spec != lm.tt.spec:
        raise ShapeError(f"checkpoint incompatible: {name} has spec {tt.spec}, "
                         f"model expects {lm.tt.spec}")
    if (bias is None) != (lm.bias is None):
        raise ShapeError(f"checkpoint incompatible: {name} bias mismatch")
    for dst, src in zip(lm.tt.cores, tt.cores):
        dst[...] = src
    if bias is not None:
        lm.bias[...] = bias


def _load_array(dst: np.ndarray, ckpt: Checkpoint, name: str):
    if name not in ckpt.records:
        raise ShapeError(f"checkpoint incompatible: missing record {name!r}")
    src = ckpt.array(name)
    if src.shape != dst.shape:
        raise ShapeError(f"checkpoint incompatible: {name} has shape {src.shape}, "
                         f"model expects {dst.shape}")
    dst[...] = src


def load_into_model(ckpt: Checkpoint, model):
    """Copy checkpoint values into ``model`` in place.

    Structure must match exactly; any missing record, spare map, or shape
    difference raises ShapeError naming the offender.
    """
    for name, lm in model.named_maps().items():
        if isinstance(lm, TTLinear):
            if f"map:{name}" not in ckpt.records:
                raise ShapeError(f"checkpoint incompatible: missing record "
                                 f"'map:{name}'")
            _load_tt(lm, ckpt, f"map:{name}")
        else:
            _load_array(lm.weight, ckpt, f"map:{name}.weight")
            if lm.bias is not None:
                _load_array(lm.bias, ckpt, f"map:{name}.bias")
    for name, arr in model.named_arrays().items():
        _load_array(arr, ckpt, f"arr:{name}")


def load_optimizer(ckpt: Checkpoint, optimizer):
    """Restore optimizer state saved alongside the model."""
    state = {}
    for name, (kind, _) in ckpt.records.items():
        if name.startswith("opt:") and kind == KIND_ARRAY:
            state[name[4:]] = ckpt.array(name)
    if not state:
        raise ShapeError("checkpoint incompatible: no optimizer state stored")
    optimizer.load_state(state)


def load_checkpoint(path, model, optimizer=None) -> dict:
    """One-call restore; returns the checkpoint's metadata dict."""
    ckpt = read_checkpoint(path)
    load_into_model(ckpt, model)
    if optimizer is not None:
        load_optimizer(ckpt, optimizer)
    return ckpt.meta()
