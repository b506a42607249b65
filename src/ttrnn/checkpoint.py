"""Versioned binary container for model + optimizer state.

Layout (all integers little-endian int64):

    magic ``TTCP`` | version | config text (length-prefixed utf-8)
    | record count | records...

Each record is ``name`` (length-prefixed utf-8), ``kind``, payload length,
payload bytes. Kind 0 is a raw float64 array (ndim, dims..., data); kind 1
is a complete TT map blob in the TTM1 layout, bias included. The reader
rejects any other kind, and a record's payload length bounds the parse of
its contents.

Record names mirror the model's ``params()`` prefixes: TT and dense maps
under ``map:``, bare arrays under ``arr:``, optimizer tensors under
``opt:``, run metadata scalars under ``meta:``, each one float64.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .linear import DenseLinear, TTLinear
from .reader import Reader
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


def _read_str(r: Reader, what: str) -> str:
    (n,) = r.unpack("<q", f"{what} length")
    if not 0 <= n <= (1 << 32):
        raise FormatError(f"implausible {what} length {n}")
    return r.text(n, what)


def _array_payload(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    buf = io.BytesIO()
    _write_i64(buf, arr.ndim, *arr.shape)
    buf.write(arr.tobytes())
    return buf.getvalue()


def _parse_array(payload: bytes, name: str) -> np.ndarray:
    r = Reader(payload, f"record {name!r}")
    (ndim,) = r.unpack("<q", "ndim")
    if not 0 <= ndim <= 32:
        raise FormatError(f"implausible ndim {ndim} for record {name!r}")
    shape = r.unpack(f"<{ndim}q", "shape")
    if any(dim < 0 for dim in shape):
        raise FormatError(f"negative dimension in shape {shape} of record {name!r}")
    arr = r.array("<f8", shape, f"data of shape {shape}")
    r.end()
    return arr


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
        """The ``meta:`` scalars by key; each record must be one float64."""
        out = {}
        for name in self.records:
            if name.startswith("meta:"):
                value = self.array(name)
                if value.size != 1:
                    raise FormatError(f"record {name!r}: a meta scalar needs "
                                      f"one value, got shape {value.shape}")
                out[name[5:]] = value.item()
        return out


def read_checkpoint(path) -> Checkpoint:
    r = Reader(Path(path).read_bytes(), path)
    magic = bytes(r.take(4, "magic"))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = r.unpack("<q", "version")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    config_text = _read_str(r, "config text")
    (count,) = r.unpack("<q", "record count")
    if not 0 <= count <= (1 << 20):
        raise FormatError(f"implausible record count {count}")
    records = {}
    for i in range(count):
        name = _read_str(r, f"record {i} name")
        kind, length = r.unpack("<2q", f"record {name!r} header")
        if kind not in (KIND_ARRAY, KIND_TTMAP):
            raise FormatError(f"record {name!r}: unknown kind {kind}")
        if not 0 <= length <= (1 << 40):
            raise FormatError(f"record {name!r}: implausible length {length}")
        records[name] = (kind, bytes(r.take(length, f"record {name!r}")))
    r.end()
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
