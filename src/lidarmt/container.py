"""Shared little-endian binary container primitives.

Dataset files and checkpoints use the same family: an 8-byte magic, a u32
version, then length-prefixed records. Numeric payloads are little-endian;
scalars are 32-bit unless a record's dtype header says otherwise.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np


class ContainerError(Exception):
    """Base class for container file problems."""


class VersionError(ContainerError):
    """Magic or version header does not match (corrupted or wrong format)."""


class TruncatedError(ContainerError):
    """File ended in the middle of a record."""


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write through a sibling temp file that `os.replace` moves onto `path` on
    success; on an exception it is removed and an old `path` stays untouched.
    No fsync: atomic against a killed process, not against power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4"), 3: np.dtype("<i8")}
DTYPE_TO_CODE = {v: k for k, v in DTYPE_CODES.items()}


def read_exact(f: BinaryIO, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedError(f"expected {n} bytes, got {len(buf)}")
    return buf


def write_header(f: BinaryIO, magic: bytes, version: int) -> None:
    f.write(magic)
    f.write(struct.pack("<I", version))


def check_header(f: BinaryIO, magic: bytes, version: int) -> None:
    got = read_exact(f, 8)
    if got != magic:
        raise VersionError(f"bad magic {got!r}, expected {magic!r}")
    (ver,) = struct.unpack("<I", read_exact(f, 4))
    if ver != version:
        raise VersionError(f"unsupported version {ver}, expected {version}")


def write_u32(f: BinaryIO, x: int) -> None:
    f.write(struct.pack("<I", x))


def read_u32(f: BinaryIO) -> int:
    return struct.unpack("<I", read_exact(f, 4))[0]


def write_i32(f: BinaryIO, x: int) -> None:
    f.write(struct.pack("<i", x))


def read_i32(f: BinaryIO) -> int:
    return struct.unpack("<i", read_exact(f, 4))[0]


def write_u64(f: BinaryIO, x: int) -> None:
    f.write(struct.pack("<Q", x))


def read_u64(f: BinaryIO) -> int:
    return struct.unpack("<Q", read_exact(f, 8))[0]


def write_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def read_str(f: BinaryIO) -> str:
    (n,) = struct.unpack("<H", read_exact(f, 2))
    return read_exact(f, n).decode("utf-8")


def write_array(f: BinaryIO, a: np.ndarray) -> None:
    """dtype code u8, ndim u8, dims u32 each, then raw little-endian data."""
    a = np.ascontiguousarray(a)
    code = DTYPE_TO_CODE[a.dtype.newbyteorder("<")]
    f.write(struct.pack("<BB", code, a.ndim))
    for d in a.shape:
        write_u32(f, d)
    f.write(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())


def read_array(f: BinaryIO) -> np.ndarray:
    code, ndim = struct.unpack("<BB", read_exact(f, 2))
    if code not in DTYPE_CODES:
        raise ContainerError(f"unknown dtype code {code}")
    shape = tuple(read_u32(f) for _ in range(ndim))
    dtype = DTYPE_CODES[code]
    raw = read_exact(f, dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
