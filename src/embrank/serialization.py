"""Versioned binary container for named arrays plus JSON metadata.

Layout: magic, format version, length-prefixed JSON metadata, then each
array as (name, dtype, shape, raw little-endian C-order bytes) in sorted
name order. The bytes written depend only on the content, never on wall
time, so identical states produce identical files (unlike zip-based
formats, whose embedded timestamps differ run to run). The UTF-8 text
reader that every line-oriented loader shares lives here too.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError, EmbrankError

MAGIC = b"EMBR"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8"}


def _canonical(arr: np.ndarray) -> np.ndarray:
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in _ALLOWED_DTYPES:
        raise DataFormatError(f"unsupported array dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=dtype)


def write_record_file(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = _canonical(np.asarray(arrays[name]))
            name_bytes = name.encode("utf-8")
            dtype_bytes = arr.dtype.str.encode("ascii")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", len(dtype_bytes)))
            fh.write(dtype_bytes)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            raw = arr.tobytes(order="C")
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)


def read_record_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by ``write_record_file``.

    Every length field is checked against the bytes left in the file before
    anything is read or allocated, so a truncated or damaged file raises
    ``DataFormatError`` naming the path and the byte offset of the bad field.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str, decode=bytes):
            offset = fh.tell()
            if n > size - offset:
                raise DataFormatError(f"{path}: truncated at byte {offset}: {what} needs "
                                      f"{n} bytes, {size - offset} left")
            try:
                return decode(fh.read(n))
            except (ValueError, TypeError) as exc:
                raise DataFormatError(f"{path}: bad {what} at byte {offset}: {exc}") from None

        def number(fmt: str, what: str) -> int:
            return read(struct.calcsize(fmt), what, lambda b: struct.unpack(fmt, b)[0])

        if fh.read(4) != MAGIC:
            raise DataFormatError(f"{path}: not a record file (bad magic)")
        version = number("<I", "format version")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        meta = read(number("<Q", "metadata length"), "metadata",
                    lambda b: json.loads(b.decode("utf-8")))
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: metadata is not a JSON object")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(number("<I", "array count")):
            name = read(number("<I", "name length"), "array name", lambda b: b.decode("utf-8"))
            dtype = read(number("<I", f"{name!r} dtype length"), f"{name!r} dtype", _dtype)
            shape = tuple(number("<Q", f"{name!r} shape")
                          for _ in range(number("<B", f"{name!r} ndim")))
            offset = fh.tell()
            nbytes = number("<Q", f"{name!r} byte count")
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise DataFormatError(f"{path}: bad {name!r} byte count at byte {offset}: "
                                      f"{nbytes} bytes cannot hold shape {shape} of {dtype.str}")
            raw = read(nbytes, f"{name!r} data")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return meta, arrays


def read_text(path, error: type[EmbrankError] = DataFormatError) -> str:
    """The UTF-8 text of the file ``path``; a byte that is not UTF-8 raises
    ``error`` naming the file, the line and the byte offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def text_lines(path):
    """(line number from 1, line) for each line of the UTF-8 text file ``path``,
    split as reading it in text mode splits it (at \\n, \\r\\n and \\r)."""
    return enumerate(io.StringIO(read_text(path), newline=None), start=1)


def require_keys(path, meta: dict, arrays: dict, meta_keys=(), array_keys=()) -> None:
    """Raise ``DataFormatError`` naming the file and the first listed key that
    the record file's header or arrays lack."""
    for what, found, keys in (("header", meta, meta_keys), ("array", arrays, array_keys)):
        for key in keys:
            if key not in found:
                raise DataFormatError(f"{path}: record file has no {what} entry {key!r}")


def _dtype(raw: bytes) -> np.dtype:
    name = raw.decode("ascii")
    if name not in _ALLOWED_DTYPES:
        raise ValueError(f"unsupported dtype {name!r}")
    return np.dtype(name)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_arrays(arrays: dict[str, np.ndarray]) -> str:
    """Content checksum over named arrays, order-independent (names sorted)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = _canonical(np.asarray(arrays[name]))
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.shape).encode("ascii"))
        digest.update(arr.tobytes(order="C"))
    return digest.hexdigest()
