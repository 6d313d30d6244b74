"""Binary tensor checkpoint format.

Layout (all little-endian):

    magic   4 bytes  b"VIMU"
    version u16
    records until end of file, each:
        name_len u32, name bytes (UTF-8)
        rank     u32
        dims     rank x u32
        payload  prod(dims) float32 values, row-major

Round trips are bit-exact: loading a file and saving the result reproduces
the original bytes. Truncation anywhere inside a record is rejected. A save
writes a temporary file and renames it into place, so a failed or killed
save never leaves a half-written checkpoint at the path.
"""
from __future__ import annotations

import struct

import numpy as np

from ..codec import replacing
from ..errors import FormatError

MAGIC = b"VIMU"
VERSION = 1


def save_tensors(path, tensors: dict):
    """Write named arrays as float32 records in dict order."""
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, arr in tensors.items():
            a = np.asarray(arr, dtype="<f4")  # keeps rank 0, which ascontiguousarray lifts to 1
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", a.ndim))
            if a.ndim:
                fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated checkpoint while reading {what}")
    return buf


def load_tensors(path) -> dict:
    """Read a checkpoint back into an ordered name -> float32 array dict."""
    out = {}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError("truncated checkpoint while reading name length")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims")) if rank else ()
            count = int(np.prod(dims)) if rank else 1
            payload = _read_exact(fh, 4 * count, f"payload of {name!r}")
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return out
