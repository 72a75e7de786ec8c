"""Shared little-endian binary container primitives (format version 2).

Dataset files and checkpoints use the same family: an 8-byte magic, a u32
version, then records. A record is a head of fixed-width fields and
length-prefixed strings, the raw little-endian bytes of zero or more arrays,
and a u32 CRC32 of all of it. A reader checks every length against the bytes
left in the file before it reads or allocates, and every record against its
CRC, so a truncated or corrupted file raises a `ContainerError`.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np


class ContainerError(Exception):
    """Base class for container file problems."""


class VersionError(ContainerError):
    """Magic or version header does not match (corrupted or wrong format)."""


class TruncatedError(ContainerError):
    """File ended in the middle of a record."""


class ChecksumError(ContainerError):
    """A record's bytes do not match its CRC32."""


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


def write_header(f: BinaryIO, magic: bytes, version: int) -> None:
    f.write(magic)
    f.write(struct.pack("<I", version))


def pack_str(s: str, fmt: str = "<H") -> bytes:
    """UTF-8 bytes of `s` after their length, packed as `fmt`."""
    raw = s.encode("utf-8")
    return struct.pack(fmt, len(raw)) + raw


def write_record(f: BinaryIO, head: bytes, *arrays: np.ndarray) -> None:
    """`head`, then each C-contiguous little-endian array straight from its
    buffer, then the u32 CRC32 of all of them."""
    f.write(head)
    crc = zlib.crc32(head)
    for a in arrays:
        f.write(a)
        crc = zlib.crc32(a, crc)
    f.write(struct.pack("<I", crc))


class RecordReader:
    """Reads the records `write_record` wrote after `write_header`."""

    def __init__(self, f: BinaryIO, magic: bytes, version: int):
        self.f, self.crc = f, 0
        self.left = os.fstat(f.fileno()).st_size - f.tell()
        got = self.read(len(magic))
        if got != magic:
            raise VersionError(f"bad magic {got!r}, expected {magic!r}")
        (ver,) = self.unpack("<I")
        if ver != version:
            raise VersionError(f"unsupported version {ver}, expected {version}")
        self.crc = 0

    def read(self, n: int) -> bytes:
        return self.read_array((n,), np.uint8).tobytes()

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def read_str(self, fmt: str = "<H") -> str:
        (n,) = self.unpack(fmt)
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContainerError(f"string is not UTF-8: {e}") from None

    def read_array(self, shape: tuple, dtype) -> np.ndarray:
        """Read into a new array of `shape`, never allocating more than the
        bytes left in the file."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        if n > self.left:
            raise TruncatedError(f"record needs {n} more bytes, {self.left} left")
        self.left -= n
        try:
            a = np.empty(shape, dtype)
        except ValueError as e:
            raise ContainerError(f"impossible array shape {shape}: {e}") from None
        if self.f.readinto(a) != a.nbytes:
            raise TruncatedError(f"file ended inside a {shape} array")
        self.crc = zlib.crc32(a, self.crc)
        return a

    def end_record(self) -> None:
        want = self.crc
        (got,) = self.unpack("<I")
        self.crc = 0
        if got != want:
            raise ChecksumError(f"record CRC32 {got:#010x}, bytes give {want:#010x}")

    def end(self) -> None:
        if self.left:
            raise ContainerError(f"{self.left} bytes after the last record")
