"""Versioned binary container for named arrays plus JSON metadata.

Layout: magic, format version, length-prefixed JSON metadata, then each
array as (name, dtype, shape, raw little-endian C-order bytes) in sorted
name order. The bytes written depend only on the content, never on wall
time, so identical states produce identical files (unlike zip-based
formats, whose embedded timestamps differ run to run). The UTF-8 text
reader that every line-oriented loader shares lives here too, with the one
JSON-lines reader and writer.
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
# The header's integer fields, written and read through these alone.
_U8, _U32, _U64 = struct.Struct("<B"), struct.Struct("<I"), struct.Struct("<Q")


def _canonical(arr: np.ndarray) -> np.ndarray:
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in _ALLOWED_DTYPES:
        raise DataFormatError(f"unsupported array dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=dtype)


def write_record_file(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(FORMAT_VERSION))
        fh.write(_U64.pack(len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(_U32.pack(len(arrays)))
        for name in sorted(arrays):
            arr = _canonical(np.asarray(arrays[name]))
            name_bytes = name.encode("utf-8")
            dtype_bytes = arr.dtype.str.encode("ascii")
            fh.write(_U32.pack(len(name_bytes)))
            fh.write(name_bytes)
            fh.write(_U32.pack(len(dtype_bytes)))
            fh.write(dtype_bytes)
            fh.write(_U8.pack(arr.ndim))
            for dim in arr.shape:
                fh.write(_U64.pack(dim))
            fh.write(_U64.pack(arr.nbytes))
            fh.write(arr)  # its C-ordered buffer, not a copy of it


def read_record_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by ``write_record_file``.

    Every length field is checked against the bytes left in the file before
    anything is read or allocated, so a truncated or damaged file raises
    ``DataFormatError`` naming the path and the byte offset of the bad field.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        # A field's label ``what`` holds ``{!r}`` where its array's name goes;
        # it is formatted only for an error.
        def room(n: int, what: str, name: str = "") -> int:
            """The field's offset, once ``n`` bytes are known to be left there."""
            nonlocal pos
            if n > size - pos:
                raise DataFormatError(f"{path}: truncated at byte {pos}: {what.format(name)} "
                                      f"needs {n} bytes, {size - pos} left")
            pos += n
            return pos - n

        def read(n: int, what: str, decode, name: str = ""):
            offset = room(n, what, name)
            try:
                return decode(fh.read(n))
            except (ValueError, TypeError) as exc:
                raise DataFormatError(f"{path}: bad {what.format(name)} at byte {offset}: "
                                      f"{exc}") from None

        def number(field: struct.Struct, what: str, name: str = "") -> int:
            room(field.size, what, name)
            return field.unpack(fh.read(field.size))[0]

        if fh.read(4) != MAGIC:
            raise DataFormatError(f"{path}: not a record file (bad magic)")
        pos = len(MAGIC)  # the offset of the next byte to read
        version = number(_U32, "format version")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        meta = read(number(_U64, "metadata length"), "metadata",
                    lambda b: json.loads(b.decode("utf-8")))
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: metadata is not a JSON object")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(number(_U32, "array count")):
            name = read(number(_U32, "name length"), "array name", lambda b: b.decode("utf-8"))
            dtype = read(number(_U32, "{!r} dtype length", name), "{!r} dtype", _dtype, name)
            shape = tuple(number(_U64, "{!r} shape", name)
                          for _ in range(number(_U8, "{!r} ndim", name)))
            offset = pos
            nbytes = number(_U64, "{!r} byte count", name)
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise DataFormatError(f"{path}: bad {name!r} byte count at byte {offset}: "
                                      f"{nbytes} bytes cannot hold shape {shape} of {dtype.str}")
            offset = room(nbytes, "{!r} data", name)
            arrays[name] = np.empty(shape, dtype)  # read once, into an array that owns it
            if fh.readinto(arrays[name]) != nbytes:
                raise DataFormatError(f"{path}: {name!r} data at byte {offset} was cut short "
                                      f"while reading")
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


def jsonl_records(path):
    """(line number, decoded value) for each nonblank line of the JSON-lines file
    ``path``; a line that is not JSON raises ``DataFormatError`` naming the line."""
    for lineno, line in text_lines(path):
        line = line.strip()
        if line:
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            yield lineno, value


def write_jsonl(path, records) -> None:
    """One sorted-key ``json.dumps`` line per record."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def field_checker(path, kind: str):
    """``check(ok, name, what)``, which raises ``DataFormatError`` naming the
    file ``path`` (unless None), the ``kind`` of record and its field ``name``
    unless ``ok``."""
    where = "" if path is None else f"{path}: "

    def check(ok, name: str, what: str) -> None:
        if not ok:
            raise DataFormatError(f"{where}{kind} {name!r} {what}")
    return check


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
        digest.update(arr)  # its C-ordered buffer, not a copy of it
    return digest.hexdigest()
