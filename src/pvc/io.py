"""PVCT tensor files and flat key/value manifests.

PVCT layout (all little-endian):
    magic  4 bytes  b"PVCT"
    u32    version (1)
    u32    ndim
    u64[]  extents, ndim of them
    f64[]  row-major payload

The byte layout is normative; read(write(t)) round-trips bitwise.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PVCT"
VERSION = 1


class PvctError(IOError):
    """Malformed or truncated PVCT file."""


def write_tensor(path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        f.write(x.astype("<f8", copy=False).tobytes(order="C"))


def _read_header(f, path) -> tuple[tuple[int, ...], int]:
    """Check a PVCT header against the file size; returns (extents, element
    count), with f at the payload."""
    head = f.read(12)
    if head[:4] != MAGIC:
        raise PvctError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < 12:
        raise PvctError(f"{path}: truncated header")
    version, ndim = struct.unpack("<II", head[4:])
    if version != VERSION:
        raise PvctError(f"{path}: unsupported version {version}")
    size = os.fstat(f.fileno()).st_size
    off = 12 + 8 * ndim
    if size < off:  # checked before reading: ndim may claim gigabytes
        raise PvctError(f"{path}: truncated header")
    shape = struct.unpack(f"<{ndim}Q", f.read(8 * ndim))
    n = math.prod(shape)  # Python ints: extents like 2**40 must not wrap
    if size - off != 8 * n:
        raise PvctError(f"{path}: payload is {size - off} bytes, expected {8 * n}")
    return shape, n


def read_tensor_shape(path) -> tuple[int, ...]:
    """The extents of a PVCT file, from its header; the payload is not read."""
    with open(path, "rb") as f:
        return _read_header(f, path)[0]


def read_tensor(path) -> np.ndarray:
    """Read a PVCT file; the payload is read once, straight into the array."""
    with open(path, "rb") as f:
        shape, n = _read_header(f, path)
        data = np.fromfile(f, dtype="<f8", count=n).astype(np.float64, copy=False)
    try:
        return data.reshape(shape)
    except ValueError as e:  # an empty payload with an extent too large to hold
        raise PvctError(f"{path}: extents {shape}: {e}") from e


def write_manifest(path, entries: dict) -> None:
    """Write `key = value` lines; values are stringified."""
    lines = [f"{k} = {v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    """Parse `key = value` lines, each key once; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:  # a ValueError, which would read as a usage error
        raise PvctError(f"{path}: not UTF-8 text: {e}") from e
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PvctError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in entries:
            raise PvctError(f"{path}:{lineno}: repeated key {k!r}")
        entries[k] = v
    return entries
