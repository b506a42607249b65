"""One bounded cursor over the bytes of an input file.

The IDX and TTCP readers read a whole file once into one buffer and parse
it, the TTM1 blob of each TT map record included, through a :class:`Reader`.
A size a header states is compared with the bytes left before anything is
sliced, so no header value can make a reader index past what the file holds.
Each failure is a :class:`FormatError` naming the source, the field and its
byte offset. Text (piano-roll and config files, checkpoint strings) goes
through :func:`decode`, which names an undecodable byte the same way.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError


def decode(raw, encoding: str, where: str, offset: int = 0,
           error=FormatError) -> str:
    """``raw`` as text; an undecodable byte raises ``error`` naming it and
    its offset, counted from ``offset``, the position of ``raw`` in ``where``."""
    try:
        return str(raw, encoding)
    except UnicodeDecodeError as e:
        raise error(f"{where}: byte 0x{e.object[e.start]:02x} at offset "
                    f"{offset + e.start} is not {encoding}") from None


class Reader:
    """A cursor over ``data``, the whole content of ``source``."""

    def __init__(self, data, source):
        self.data = memoryview(data)
        self.source = source
        self.pos = 0

    @classmethod
    def of_file(cls, path) -> "Reader":
        """A reader over the file at ``path``, read once into a writable
        buffer whose views :meth:`array` returns."""
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            return cls(memoryview(data)[:fh.readinto(data)], path)

    def take(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes, for any ``n`` a header can state."""
        if not 0 <= n <= len(self.data) - self.pos:
            raise FormatError(f"{self.source}: truncated at offset "
                              f"{len(self.data)}: {what} needs {n} bytes from "
                              f"offset {self.pos}")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what: str) -> np.ndarray:
        """A view of ``data`` of ``shape``. ``math.prod`` is exact where an
        int64 element count wraps (2^32 * 2^32 -> 0)."""
        start = self.pos
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize, what)
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as e:  # no elements, but dims numpy cannot index
            raise FormatError(f"{self.source}: {what} at offset {start}: "
                              f"{e}") from None

    def text(self, n: int, what: str, encoding: str = "utf-8") -> str:
        raw = self.take(n, what)
        return decode(raw, encoding, f"{self.source}: {what}", self.pos - n)

    def end(self) -> None:
        """Reject bytes past the last field."""
        if self.pos != len(self.data):
            raise FormatError(f"{self.source}: trailing bytes after offset "
                              f"{self.pos}")
