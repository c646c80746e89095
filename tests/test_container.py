"""Container format: byte-exact layout, round-trips, corruption handling."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedistill.container import (atomic_write_bytes, atomic_write_text, read_tensor,
                                    write_pgm, write_tensor)
from densedistill.errors import (
    DimensionError,
    DuplicateNameError,
    MagicError,
    OffsetError,
    ParameterError,
    SectionNameError,
    TruncationError,
    VersionError,
)


def test_empty_file_is_12_byte_header(tmp_path):
    path = str(tmp_path / "empty.dten")
    write_tensor(path, {})
    blob = open(path, "rb").read()
    assert len(blob) == 12
    assert blob[:4] == b"DTEN"
    assert struct.unpack("<II", blob[4:]) == (1, 0)
    assert read_tensor(path) == {}


def test_roundtrip_f64_bitwise(tmp_path):
    path = str(tmp_path / "m.dten")
    arr = np.random.default_rng(0).standard_normal((3, 3))
    write_tensor(path, {"m": arr})
    out = read_tensor(path)["m"]
    assert out.tobytes() == arr.tobytes()
    assert out.dtype == np.float64 and out.shape == (3, 3)


def test_file_size_accounting(tmp_path):
    path = str(tmp_path / "two.dten")
    a = np.zeros((2, 3), dtype=np.float32)
    b = np.arange(4, dtype=np.int32)
    write_tensor(path, {"a": a, "b": b})
    table = (2 + 1 + 1 + 1 + 16 + 8) + (2 + 1 + 1 + 1 + 8 + 8)
    assert os.path.getsize(path) == 12 + table + a.nbytes + b.nbytes


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["f32", "f64", "i32"]),
       st.lists(st.integers(1, 5), min_size=0, max_size=3))
def test_roundtrip_random_dtype_shape(seed, kind, shape):
    rng = np.random.default_rng(seed)
    if kind == "i32":
        arr = rng.integers(-1000, 1000, size=shape, dtype=np.int32)
    else:
        arr = rng.standard_normal(shape).astype(np.float32 if kind == "f32" else np.float64)
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.dten")
        write_tensor(path, {"x": arr})
        out = read_tensor(path)["x"]
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()


def test_write_then_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    sections = {"a": rng.standard_normal((4, 2)), "b": rng.integers(0, 9, (3,), dtype=np.int32)}
    p1, p2 = str(tmp_path / "1.dten"), str(tmp_path / "2.dten")
    write_tensor(p1, sections)
    write_tensor(p2, read_tensor(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_golden_bytes_of_mixed_inputs(tmp_path):
    # a 0-d f32, an empty f64, a transposed view, a big-endian input and an
    # i32 vector, against the layout assembled by hand
    sections = [("s", np.array(1.5, dtype=np.float32)), ("e", np.zeros((0, 3))),
                ("t", np.arange(12.0).reshape(3, 4).T), ("b", np.array([1.0, -2.5], dtype=">f8")),
                ("i", np.array([7, -1, 2**31 - 1], dtype=np.int32))]
    path = str(tmp_path / "g.dten")
    write_tensor(path, sections)
    entries = [(b"s", 0, ()), (b"e", 1, (0, 3)), (b"t", 1, (4, 3)), (b"b", 1, (2,)), (b"i", 2, (3,))]
    payloads = [struct.pack("<f", 1.5), b"", struct.pack("<12d", 0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11),
                struct.pack("<2d", 1.0, -2.5), struct.pack("<3i", 7, -1, 2**31 - 1)]
    offset = 12 + sum(2 + len(name) + 1 + 1 + 8 * len(dims) + 8 for name, _, dims in entries)
    expected = b"DTEN" + struct.pack("<II", 1, len(entries))
    for (name, code, dims), payload in zip(entries, payloads):
        expected += struct.pack(f"<H{len(name)}sBB", len(name), name, code, len(dims))
        expected += struct.pack(f"<{len(dims) + 1}Q", *dims, offset)
        offset += len(payload)
    assert (tmp_path / "g.dten").read_bytes() == expected + b"".join(payloads)
    out = read_tensor(path)
    assert list(out) == [name for name, _ in sections]
    for name, arr in sections:
        got = out[name]
        assert got.dtype == arr.dtype.newbyteorder("<") and got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)
        assert got.flags.owndata and got.flags.writeable and got.flags.aligned


def _peak_above_start(fn):
    """fn's result, and its traced allocation peak above what was live."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_large_section_is_written_without_a_copy(tmp_path):
    path = str(tmp_path / "big.dten")
    arr = np.random.default_rng(0).standard_normal((1024, 1025))  # just over 8 MiB
    _, peak = _peak_above_start(lambda: write_tensor(path, {"x": arr}))
    assert peak <= 2**20, peak
    assert os.path.getsize(path) == 12 + (2 + 1 + 1 + 1 + 16 + 8) + arr.nbytes


def test_a_large_section_is_read_into_its_one_array(tmp_path):
    path = str(tmp_path / "big.dten")
    arr = np.random.default_rng(0).standard_normal((1024, 1025))
    write_tensor(path, {"x": arr})
    out, peak = _peak_above_start(lambda: read_tensor(path))
    assert peak <= arr.nbytes + 2**20, peak
    assert out["x"].tobytes() == arr.tobytes()


@pytest.mark.parametrize("write", [
    lambda path: write_tensor(path, {"x": np.ones(2)}),
    lambda path: write_pgm(path, np.eye(2)),
    lambda path: atomic_write_text(path, "text\n"),
], ids=["dten", "pgm", "text"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, write):
    path = str(tmp_path / "out")
    old = os.umask(0o022)
    try:
        write(path)
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644


def test_corrupted_magic(tmp_path):
    path = str(tmp_path / "bad.dten")
    write_tensor(path, {"x": np.ones(3)})
    blob = bytearray(open(path, "rb").read())
    blob[0] = ord("X")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(MagicError):
        read_tensor(path)


def test_version_mismatch(tmp_path):
    path = str(tmp_path / "v.dten")
    write_tensor(path, {"x": np.ones(3)})
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 9)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(VersionError):
        read_tensor(path)


def test_truncation_fuzz_every_prefix(tmp_path):
    path = str(tmp_path / "full.dten")
    write_tensor(path, {"first": np.arange(6, dtype=np.float64).reshape(2, 3),
                        "second": np.ones(2, dtype=np.float32)})
    blob = open(path, "rb").read()
    for cut in range(len(blob)):
        chopped = str(tmp_path / "cut.dten")
        open(chopped, "wb").write(blob[:cut])
        with pytest.raises((TruncationError, MagicError)):
            read_tensor(chopped)
    # chopping the tail payload names the section
    open(str(tmp_path / "cut.dten"), "wb").write(blob[:-1])
    with pytest.raises(TruncationError, match="second"):
        read_tensor(str(tmp_path / "cut.dten"))


def test_offset_corruption(tmp_path):
    path = str(tmp_path / "o.dten")
    write_tensor(path, {"x": np.ones(3)})
    blob = bytearray(open(path, "rb").read())
    # offset field sits just before the payload: last 8 bytes of the table
    table_end = 12 + (2 + 1 + 1 + 1 + 8 + 8)
    blob[table_end - 8:table_end] = struct.pack("<Q", 2**63)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(OffsetError):
        read_tensor(path)


def test_dim_beyond_the_index_range_names_the_file_and_section(tmp_path):
    path = str(tmp_path / "d.dten")
    write_tensor(path, {"x": np.zeros((0, 4))})
    blob = bytearray(open(path, "rb").read())
    second_dim = 12 + (2 + 1 + 1 + 1 + 8)
    blob[second_dim:second_dim + 8] = struct.pack("<Q", 2**63)  # an empty payload still
    open(path, "wb").write(bytes(blob))
    with pytest.raises(DimensionError, match=rf"^{re.escape(path)}: section 'x' has dims "):
        read_tensor(path)


def test_non_ascii_section_name_names_the_file_and_entry(tmp_path):
    path = str(tmp_path / "n.dten")
    write_tensor(path, {"a": np.ones(1), "b": np.ones(1)})
    blob = bytearray(open(path, "rb").read())
    second_name = 12 + (2 + 1 + 1 + 1 + 8 + 8) + 2
    blob[second_name] = 0xE9
    open(path, "wb").write(bytes(blob))
    with pytest.raises(SectionNameError, match=rf"^{re.escape(path)}: name of section entry 1 "):
        read_tensor(path)


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(DuplicateNameError):
        write_tensor(str(tmp_path / "d.dten"), [("x", np.ones(1)), ("x", np.ones(1))])


def test_name_rules(tmp_path):
    with pytest.raises(ParameterError):
        write_tensor(str(tmp_path / "n.dten"), {"x" * 65: np.ones(1)})
    with pytest.raises(ParameterError):
        write_tensor(str(tmp_path / "n.dten"), {"émoji": np.ones(1)})
    with pytest.raises(ParameterError):
        write_tensor(str(tmp_path / "n.dten"), {"x": np.ones(1, dtype=np.int64)})


def test_no_temp_files_linger(tmp_path):
    path = str(tmp_path / "t.dten")
    write_tensor(path, {"x": np.ones(4)})
    write_tensor(path, {"x": np.zeros(4)})  # overwrite via rename
    assert sorted(os.listdir(tmp_path)) == ["t.dten"]
    np.testing.assert_array_equal(read_tensor(path)["x"], np.zeros(4))


def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = str(tmp_path / "t.dten")
    write_tensor(path, {"x": np.ones(4)})
    with pytest.raises(TypeError):
        atomic_write_bytes(path, None)  # the write itself raises
    assert sorted(os.listdir(tmp_path)) == ["t.dten"]
    np.testing.assert_array_equal(read_tensor(path)["x"], np.ones(4))


def test_pgm_format(tmp_path):
    path = str(tmp_path / "m.pgm")
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    blob = open(path, "rb").read()
    assert blob.startswith(b"P5\n2 2\n255\n")
    pix = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(pix, [0, 128, 255, 64])
    write_pgm(path, np.zeros((2, 2)))  # constant map stays black
    pix = np.frombuffer(open(path, "rb").read()[-4:], dtype=np.uint8)
    np.testing.assert_array_equal(pix, 0)
