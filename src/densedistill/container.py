"""Bit-exact tensor container (DTEN) and the P5 grey-map writer.

File layout, little-endian throughout, payloads row-major:

    magic   4 bytes  "DTEN"
    u32     version (=1)
    u32     section count
    per section:
        u16  name length
        ...  name bytes (ASCII, <= 64)
        u8   dtype (0=f32, 1=f64, 2=i32)
        u8   rank
        u64  dims[rank]
        u64  payload offset (absolute file offset)
    payloads, contiguous after the table

All writes are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import (
    DimensionError,
    DuplicateNameError,
    MagicError,
    OffsetError,
    ParameterError,
    SectionNameError,
    ShapeError,
    TruncationError,
    VersionError,
)

MAGIC = b"DTEN"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4")}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("i", 4): 2}
MAX_NAME_BYTES = 64
_MAX_DIM = int(np.iinfo(np.intp).max)


def atomic_write_bytes(path, payload):
    """Write bytes to ``path`` via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dten-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _dtype_code(arr):
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _KIND_TO_CODE:
        raise ParameterError(f"unsupported dtype {arr.dtype}; use f32, f64, or i32")
    return _KIND_TO_CODE[key]


def _check_name(name):
    try:
        raw = name.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParameterError(f"section name {name!r} is not ASCII") from exc
    if not 0 < len(raw) <= MAX_NAME_BYTES:
        raise ParameterError(f"section name {name!r} must be 1..{MAX_NAME_BYTES} bytes")
    return raw


def write_tensor(path, sections):
    """Serialize named arrays to ``path``. ``sections`` is a dict or an
    iterable of (name, array) pairs; order is preserved in the file."""
    pairs = list(sections.items()) if isinstance(sections, dict) else list(sections)
    seen = set()
    encoded = []
    for name, arr in pairs:
        raw = _check_name(name)
        if name in seen:
            raise DuplicateNameError(f"duplicate section name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps rank-0 as rank-0 when already contiguous
        code = _dtype_code(arr)
        encoded.append((raw, code, arr.astype(_CODE_TO_DTYPE[code], copy=False)))

    table_size = sum(2 + len(raw) + 1 + 1 + 8 * arr.ndim + 8 for raw, _, arr in encoded)
    offset = 12 + table_size
    table = bytearray()
    payload = bytearray()
    for raw, code, arr in encoded:
        table += struct.pack("<H", len(raw)) + raw
        table += struct.pack("<BB", code, arr.ndim)
        for dim in arr.shape:
            table += struct.pack("<Q", dim)
        table += struct.pack("<Q", offset)
        blob = arr.tobytes()
        payload += blob
        offset += len(blob)
    header = MAGIC + struct.pack("<II", VERSION, len(encoded))
    atomic_write_bytes(path, bytes(header) + bytes(table) + bytes(payload))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise TruncationError(f"file ends inside {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def read_tensor(path):
    """Parse a container; the whole table is validated before any payload is
    materialized, so corrupt files never yield partial results."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4, "magic") != MAGIC:
        raise MagicError(f"{path}: bad magic bytes")
    version = r.u32("version")
    if version != VERSION:
        raise VersionError(f"{path}: unsupported version {version}")
    count = r.u32("section count")
    entries = []
    for index in range(count):
        name_len = r.u16("section name length")
        if name_len > MAX_NAME_BYTES:
            raise OffsetError(f"{path}: section name length {name_len} exceeds {MAX_NAME_BYTES}")
        try:
            name = r.take(name_len, "section name").decode("ascii")
        except UnicodeDecodeError:
            raise SectionNameError(f"{path}: name of section entry {index} is not ASCII") from None
        code = r.take(1, "dtype")[0]
        if code not in _CODE_TO_DTYPE:
            raise OffsetError(f"{path}: unknown dtype code {code} in section {name!r}")
        rank = r.take(1, "rank")[0]
        shape = tuple(r.u64(f"dims of {name!r}") for _ in range(rank))
        if any(dim > _MAX_DIM for dim in shape):
            raise DimensionError(f"{path}: section {name!r} has dims {shape}, above the "
                                 f"largest index {_MAX_DIM} of this platform")
        offset = r.u64(f"offset of {name!r}")
        entries.append((name, code, shape, offset))
    payload_start = r.pos
    out = {}
    for name, code, shape, offset in entries:
        if name in out:
            raise DuplicateNameError(f"{path}: duplicate section {name!r}")
        dtype = _CODE_TO_DTYPE[code]
        n_items = 1
        for dim in shape:
            n_items *= dim
        nbytes = n_items * dtype.itemsize
        if offset < payload_start or offset > len(blob):
            raise OffsetError(f"{path}: section {name!r} offset {offset} outside payload area")
        if offset + nbytes > len(blob):
            raise TruncationError(f"{path}: section {name!r} payload truncated")
        out[name] = np.frombuffer(blob, dtype=dtype, count=n_items, offset=offset).reshape(shape).copy()
    return out


def write_pgm(path, values):
    """8-bit binary P5 grey map; values are min-max normalized per map."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ShapeError(f"grey map must be 2-D, got {v.shape}")
    lo, hi = float(v.min()), float(v.max())
    scaled = np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)
    data = np.round(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data.tobytes())
