"""Checksummed binary container shared by dataset and checkpoint files.

A file is `magic`, a little-endian u32 `version`, a body, and the SHA-256 of
everything before it. Readers verify the digest before parsing, bound every
read by the body, and reject bytes left over after the last field.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

_DIGEST_SIZE = 32


def u32(n: int) -> bytes:
    return struct.pack("<I", n)


def blob(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return u32(len(data)) + data


def f8(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def write(path, magic: bytes, version: int, chunks) -> None:
    """Write magic, version and the body chunks, then their SHA-256."""
    body = b"".join([magic, u32(version), *chunks])
    with open(path, "wb") as f:
        f.write(body)
        f.write(hashlib.sha256(body).digest())


class Reader:
    """Verified, bounds-checked reader over one container file.

    Every fault raises `error` with a message naming the file kind and path.
    """

    def __init__(self, path, magic: bytes, version: int, error: type, kind: str):
        self.error = error
        self.where = f"{kind} {path}"
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < len(magic) + 4 + _DIGEST_SIZE:
            self.fail("truncated")
        self.data, digest = raw[:-_DIGEST_SIZE], raw[-_DIGEST_SIZE:]
        if hashlib.sha256(self.data).digest() != digest:
            self.fail("checksum mismatch")
        self.pos = 0
        if self.take(len(magic)) != magic:
            self.fail("bad magic")
        found = self.u32()
        if found != version:
            self.fail(f"unsupported version {found}")

    def fail(self, what: str):
        raise self.error(f"{self.where}: {what}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail("truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def f8(self, shape) -> np.ndarray:
        n = 8 * math.prod(shape)
        return np.frombuffer(self.take(n), dtype="<f8").reshape(shape).copy()

    def done(self) -> None:
        if self.pos != len(self.data):
            self.fail("trailing bytes")
