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
Each payload moves straight between its array and the file.
"""

from __future__ import annotations

import math
import os
import struct

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


def atomic_write_bytes(path, *chunks):
    """Write byte chunks to ``path`` via a same-directory temp file and
    rename; the file gets mode 0o666 less the umask, as ``open`` would."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".tmp-dten-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    iterable of (name, array) pairs; order is preserved in the file. Each
    payload is written from its own C-contiguous little-endian array."""
    pairs = list(sections.items()) if isinstance(sections, dict) else list(sections)
    seen = set()
    encoded = []
    for name, arr in pairs:
        raw = _check_name(name)
        if name in seen:
            raise DuplicateNameError(f"duplicate section name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        code = _dtype_code(arr)
        encoded.append((raw, code, np.asarray(arr, dtype=_CODE_TO_DTYPE[code], order="C")))

    offset = 12 + sum(2 + len(raw) + 1 + 1 + 8 * arr.ndim + 8 for raw, _, arr in encoded)
    head = bytearray(MAGIC + struct.pack("<II", VERSION, len(encoded)))
    for raw, code, arr in encoded:
        head += struct.pack(f"<H{len(raw)}sBB{arr.ndim + 1}Q",
                            len(raw), raw, code, arr.ndim, *arr.shape, offset)
        offset += arr.nbytes
    atomic_write_bytes(path, head, *(arr for _, _, arr in encoded))


def read_tensor(path):
    """Parse a container; the whole table is validated before any payload is
    read, so corrupt files never yield partial results. Each payload is read
    straight into its own new array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            raw = fh.read(n)
            if len(raw) < n:
                raise TruncationError(f"file ends inside {what}")
            return raw

        def unpack(fmt, what):
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))

        if take(4, "magic") != MAGIC:
            raise MagicError(f"{path}: bad magic bytes")
        version, = unpack("<I", "version")
        if version != VERSION:
            raise VersionError(f"{path}: unsupported version {version}")
        count, = unpack("<I", "section count")
        entries = []
        for index in range(count):
            name_len, = unpack("<H", "section name length")
            if name_len > MAX_NAME_BYTES:
                raise OffsetError(f"{path}: section name length {name_len} exceeds {MAX_NAME_BYTES}")
            try:
                name = take(name_len, "section name").decode("ascii")
            except UnicodeDecodeError:
                raise SectionNameError(f"{path}: name of section entry {index} is not ASCII") from None
            code, = take(1, "dtype")
            if code not in _CODE_TO_DTYPE:
                raise OffsetError(f"{path}: unknown dtype code {code} in section {name!r}")
            rank, = take(1, "rank")
            shape = unpack(f"<{rank}Q", f"dims of {name!r}")
            if any(dim > _MAX_DIM for dim in shape):
                raise DimensionError(f"{path}: section {name!r} has dims {shape}, above the "
                                     f"largest index {_MAX_DIM} of this platform")
            offset, = unpack("<Q", f"offset of {name!r}")
            entries.append((name, _CODE_TO_DTYPE[code], shape, offset))
        payload_start = fh.tell()
        names = set()
        for name, dtype, shape, offset in entries:
            if name in names:
                raise DuplicateNameError(f"{path}: duplicate section {name!r}")
            names.add(name)
            if offset < payload_start or offset > size:
                raise OffsetError(f"{path}: section {name!r} offset {offset} outside payload area")
            if offset + math.prod(shape) * dtype.itemsize > size:
                raise TruncationError(f"{path}: section {name!r} payload truncated")
        out = {}
        for name, dtype, shape, offset in entries:
            out[name] = np.empty(shape, dtype)
            fh.seek(offset)
            if fh.readinto(out[name]) != out[name].nbytes:
                raise TruncationError(f"{path}: section {name!r} payload truncated")
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
    atomic_write_bytes(path, header, data)
