"""The binary container that datasets and checkpoints share: a magic string,
a little-endian payload and the payload's CRC32 (u32)."""

import contextlib
import math
import os
import struct
import zlib

import numpy as np

from .errors import DataFormatError


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Yield a file opened with `open(tmp, mode, **kwargs)` on a temporary
    beside `path`, then `os.replace` it into place: a write that fails or is
    killed partway leaves any earlier file at `path` intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic: bytes, parts) -> None:
    """Stream the payload `parts`, an iterable of bytes or contiguous
    little-endian arrays, atomically to `path`, after `magic` and before the
    CRC32 trailer."""
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        crc = 0
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


class Payload:
    """Reads a container's payload front to back straight from the file,
    keeping its running CRC32; `pos` is the file offset that errors name."""

    def __init__(self, fh, start: int, end: int):
        self.fh, self.pos, self.end, self.crc = fh, start, end, 0

    def _claim(self, n: int, what: str) -> None:
        if self.pos + n > self.end:
            raise DataFormatError(f"truncated while reading {what} "
                                  f"({n} bytes needed)", offset=self.pos)

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        chunk = self.fh.read(n)
        self.pos += n
        self.crc = zlib.crc32(chunk, self.crc)
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape: tuple, what: str, at) -> np.ndarray:
        """The next float64 array of `shape`, read into place. A non-finite value
        is refused as "non-finite value in {what}{at(i)}", i its flat index."""
        self._claim(8 * math.prod(shape), what)
        out = np.empty(shape, dtype="<f8")
        self.fh.readinto(out.reshape(-1).view(np.uint8))
        start, self.pos = self.pos, self.pos + out.nbytes
        self.crc = zlib.crc32(out, self.crc)
        if not np.isfinite(out).all():
            i = int(np.flatnonzero(~np.isfinite(out))[0])
            raise DataFormatError(f"non-finite value in {what}{at(i)}", offset=start + 8 * i)
        return out


@contextlib.contextmanager
def read_container(path, magic: bytes, what: str):
    """Yield a `Payload` over a container's payload, then check its CRC32, also
    when the caller fails: a corrupt payload reports the checksum mismatch
    rather than whatever error its damage caused."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(magic)) != magic:
            raise DataFormatError(f"bad magic, not a {what} file", offset=0)
        if size < len(magic) + 4:
            raise DataFormatError("file too short for checksum trailer", offset=size)
        payload = Payload(fh, len(magic), size - 4)
        try:
            yield payload
        finally:
            payload.take(payload.end - payload.pos, "payload")
            if payload.crc != struct.unpack("<I", fh.read(4))[0]:
                raise DataFormatError("checksum mismatch, file corrupt", offset=payload.end)
