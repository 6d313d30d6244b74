import struct

import numpy as np
import pytest

from vimu.codec import write_json
from vimu.errors import FormatError
from vimu.nn.checkpoint import MAGIC, VERSION, load_tensors, save_tensors


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "stream.conv1.w": rng.standard_normal((4, 1, 3, 3)).astype(np.float32),
        "stream.conv1.b": np.zeros(4, dtype=np.float32),
        "stream.bn.mean": rng.standard_normal(4).astype(np.float32),
        "head.w": rng.standard_normal((36, 7)).astype(np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], tensors[name])
    # re-serialization reproduces the exact bytes
    path2 = tmp_path / "again.ckpt"
    save_tensors(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_tensors(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + (9).to_bytes(2, "little"))
    with pytest.raises(FormatError, match="version"):
        load_tensors(path)


@pytest.mark.parametrize("cut", [5, 7, 12, -3, -1])
def test_truncation_rejected_anywhere(tmp_path, cut):
    path = tmp_path / "full.ckpt"
    save_tensors(path, sample_tensors())
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[:cut])
    with pytest.raises(FormatError, match="truncated"):
        load_tensors(trunc)


def _record(name_len, name, dims, payload=b""):
    return (struct.pack("<I", name_len) + name + struct.pack("<I", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


@pytest.mark.parametrize("record", [
    _record(0xFFFFFFFF, b"w", ()),                                # name longer than the file
    _record(1, b"w", (0xFFFFFFFF,), b"\x00" * 8),                 # 16 GiB payload declared
    _record(1, b"w", (0xFFFFFFFF,) * 3, b"\x00" * 8),             # product overflows int64
    struct.pack("<I", 1) + b"w" + struct.pack("<I", 0xFFFFFFFF),  # rank past the end
], ids=["name", "payload", "int64 overflow", "rank"])
def test_declared_length_past_the_file_rejected_unread(tmp_path, record):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(MAGIC + struct.pack("<H", VERSION) + record)
    with pytest.raises(FormatError, match="truncated.*declared"):
        load_tensors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_record_rejected_by_name(tmp_path, bad):
    tensors = sample_tensors()
    tensors["head.w"][3, 2] = bad
    path = tmp_path / "nan.ckpt"
    save_tensors(path, tensors)
    with pytest.raises(FormatError, match="'head.w' holds a non-finite value"):
        load_tensors(path)


def test_name_not_utf8_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(MAGIC + struct.pack("<H", VERSION) + _record(1, b"\xff", (), b"\x00" * 4))
    with pytest.raises(FormatError, match="UTF-8"):
        load_tensors(path)


def test_float64_input_stored_as_float32(tmp_path):
    path = tmp_path / "f64.ckpt"
    save_tensors(path, {"w": np.array([1.0, 2.0], dtype=np.float64)})
    loaded = load_tensors(path)
    assert loaded["w"].dtype == np.float32


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_tensors(path, {})
    assert load_tensors(path) == {}


def test_failed_save_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_tensors(path, sample_tensors())
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_tensors(path, {"head.w": np.ones(3), "head.b": "not a number"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_failed_json_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "classifier.json"
    write_json(path, {"seed": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"seed": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["classifier.json"]
