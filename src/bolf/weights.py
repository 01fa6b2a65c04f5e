"""Bit-exact binary serialization for named parameter tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"BOLF"
    version u32      currently 1
    count   u32      number of tensors
    per tensor:
        name_len u32, name UTF-8 bytes
        rank     u32
        dims     rank x u64
        payload  prod(dims) x f32, row-major
    crc32   u32      checksum of every preceding byte

Floats are stored as f32, so saving float64 parameters quantizes them.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"BOLF"
VERSION = 1

_U32 = struct.Struct("<I")


class WeightsError(ValueError):
    """Corrupt, truncated, or unsupported weights file."""


def save_weights(path, named: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(named))
    for name, arr in named.items():
        # asarray (not ascontiguousarray) so rank-0 arrays keep their shape
        arr = np.asarray(arr, dtype="<f4", order="C")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        blob += arr.tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def load_weights(path) -> dict[str, np.ndarray]:
    """Returns name -> float32 array in file order; verifies the checksum."""
    path = Path(path)
    if not path.exists():
        raise WeightsError(f"weights file not found: {path}")
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 12:
        raise WeightsError(f"file too short to be a weights file ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise WeightsError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    end = len(data) - 4
    # Every read below goes through this view, so a field that runs past
    # the checksum raises struct.error instead of reading the checksum.
    body = memoryview(data)[:end]
    (stored_crc,) = _U32.unpack_from(data, end)
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise WeightsError(f"checksum mismatch: stored {stored_crc:#010x}, "
                           f"computed {actual_crc:#010x}")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise WeightsError(f"unsupported format version {version}")

    out: dict[str, np.ndarray] = {}
    pos = 12
    try:
        for _ in range(count):
            (name_len,) = _U32.unpack_from(body, pos)
            raw_name = body[pos + 4:pos + 4 + name_len]
            pos += 4 + name_len
            (rank,) = _U32.unpack_from(body, pos)
            dims = struct.unpack_from(f"<{rank}Q", body, pos + 4)
            pos += 4 + 8 * rank
            n_vals = math.prod(dims)
            if pos + 4 * n_vals > end:
                raise WeightsError("truncated weights file")
            try:
                name = str(raw_name, "utf-8")
                arr = np.frombuffer(body, "<f4", n_vals, pos).reshape(dims)
            except ValueError as exc:  # undecodable name, unrepresentable shape
                raise WeightsError(f"bad tensor entry: {exc}") from None
            if name in out:
                raise WeightsError(f"duplicate tensor name {name!r}")
            out[name] = arr.copy()
            pos += 4 * n_vals
    except struct.error:
        raise WeightsError("truncated weights file") from None
    if pos != end:
        raise WeightsError(f"{end - pos} unexpected trailing bytes before checksum")
    return out
