"""Checkpoint and dataset files (container version 2) fail closed: every
truncation, corrupted byte and malformed record raises a ContainerError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lidarmt import checkpoint as ck
from lidarmt import config as cf
from lidarmt import container as cx
from lidarmt import data
from lidarmt import train as tr
from lidarmt.model import Model


def _small_checkpoint(path):
    ck.save_checkpoint(path, ck.CheckpointData(
        config_text="a = 1\n", config_hash="c0ffee", step=7,
        params={"w": np.arange(6.0).reshape(2, 3) - 2.5, "b": np.array([0.5, -1.0])}))


def _small_dataset(path):
    box = data.Box(center=(1.0, 2.0, 0.5), size=(0.6, 0.5, 1.7), yaw=0.25, class_id=2)
    pts = np.array([[1.0, 2.0, 0.5, 0.3, 0.0], [4.0, -1.0, 0.1, 0.9, -0.1]], np.float32)
    data.write_dataset([data.SceneSample(points=pts, labels=[4, 1], boxes=[box], frame_id=3),
                        data.SceneSample(points=pts[:0], labels=[], boxes=[])], path)


FORMATS = {"checkpoint": (_small_checkpoint, ck.load_checkpoint),
           "dataset": (_small_dataset, data.read_dataset)}


@pytest.fixture(scope="module", params=sorted(FORMATS))
def small_file(request, tmp_path_factory):
    """(bytes of a small valid file, its loader, a scratch path)."""
    write, load = FORMATS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "f.bin"
    write(path)
    raw = path.read_bytes()
    load(path)
    return raw, load, path.with_name("bad.bin")


def _assert_refused(raw, load, path):
    path.write_bytes(raw)
    with pytest.raises(cx.ContainerError):
        load(path)


def test_every_truncation_is_refused(small_file):
    raw, load, path = small_file
    for n in range(len(raw)):
        _assert_refused(raw[:n], load, path)


def test_trailing_bytes_are_refused(small_file):
    raw, load, path = small_file
    path.write_bytes(raw + b"\x00")
    with pytest.raises(cx.ContainerError, match="1 bytes after the last record"):
        load(path)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(where=st.floats(0.0, 1.0, exclude_max=True), xor=st.integers(1, 255))
def test_every_corrupted_byte_is_refused(small_file, where, xor):
    raw, load, path = small_file
    bad = bytearray(raw)
    bad[int(where * len(raw))] ^= xor
    _assert_refused(bytes(bad), load, path)


def test_small_files_round_trip(tmp_path):
    _small_checkpoint(tmp_path / "m.ckpt")
    got = ck.load_checkpoint(tmp_path / "m.ckpt")
    assert (got.config_text, got.config_hash, got.step) == ("a = 1\n", "c0ffee", 7)
    np.testing.assert_array_equal(got.params["w"], np.arange(6.0).reshape(2, 3) - 2.5)
    np.testing.assert_array_equal(got.params["b"], [0.5, -1.0])
    _small_dataset(tmp_path / "d.bin")
    first, empty = data.read_dataset(tmp_path / "d.bin")
    assert (first.frame_id, len(first.points), first.labels.tolist()) == (3, 2, [4, 1])
    assert (first.boxes[0].class_id, first.boxes[0].yaw) == (2, 0.25)
    assert len(empty.points) == 0 and empty.boxes == []


@pytest.mark.parametrize("write,load", FORMATS.values(), ids=FORMATS)
def test_version_1_files_are_refused(tmp_path, write, load):
    write(tmp_path / "f.bin")
    raw = bytearray((tmp_path / "f.bin").read_bytes())
    raw[8:12] = struct.pack("<I", 1)
    (tmp_path / "f.bin").write_bytes(bytes(raw))
    with pytest.raises(cx.VersionError, match="unsupported version 1, expected 2"):
        load(tmp_path / "f.bin")


def _checkpoint_with(path, head, *arrays):
    """A checkpoint whose one parameter record is `head` and `arrays`, with a
    correct CRC."""
    with open(path, "wb") as f:
        cx.write_header(f, ck._MAGIC, ck._VERSION)
        cx.write_record(f, cx.pack_str("h") + cx.pack_str("t", "<I") + struct.pack("<QI", 0, 1))
        cx.write_record(f, head, *arrays)


@pytest.mark.parametrize("head,arrays,error,match", [
    (struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BI", 1, 1), (np.zeros(1),),
     cx.ContainerError, "not UTF-8"),
    (cx.pack_str("w") + struct.pack("<B65I", 65, *[0] * 65), (),
     cx.ContainerError, "impossible array shape"),
    (cx.pack_str("w") + struct.pack("<B4I", 4, 0, *[2**32 - 1] * 3), (),
     cx.ContainerError, "impossible array shape"),
    (cx.pack_str("w") + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1), (),
     cx.TruncatedError, "record needs"),
], ids=["bad-utf8-name", "65-dims", "zero-times-huge-dims", "dims-beyond-file"])
def test_malformed_checkpoint_records_raise_container_errors(tmp_path, head, arrays,
                                                             error, match):
    _checkpoint_with(tmp_path / "m.ckpt", head, *arrays)
    with pytest.raises(error, match=match):
        ck.load_checkpoint(tmp_path / "m.ckpt")


def test_dataset_box_that_fails_validation_raises_container_error(tmp_path):
    box = np.array([((0, 0, 0, 1, 1, 1, 0), 9)], data._BOX)   # class 9 does not exist
    with open(tmp_path / "d.bin", "wb") as f:
        cx.write_header(f, data._DATASET_MAGIC, data._DATASET_VERSION)
        cx.write_record(f, struct.pack("<I", 1))
        cx.write_record(f, struct.pack("<iII", 0, 0, 1), np.zeros((0, 5), "<f4"),
                        np.zeros(0, "<i4"), box)
    with pytest.raises(cx.ContainerError, match="invalid box: class_id 9"):
        data.read_dataset(tmp_path / "d.bin")


def test_default_checkpoint_holds_parameters_only(tmp_path):
    cfg = cf.load_config()
    model = Model(cfg)
    tr.save_model(tmp_path / "m.ckpt", model, tr.AdamW(model.parameters()), cfg, 3)
    assert (tmp_path / "m.ckpt").stat().st_size <= 18_000_000
    loaded, _cfg, saved = tr.load_model(tmp_path / "m.ckpt", cfg)
    assert saved.step == 3 and sorted(saved.params) == sorted(model.parameters())
    for name, tensor in loaded.parameters().items():
        assert tensor.data is saved.params[name]
        np.testing.assert_array_equal(tensor.data, model.parameters()[name].data)
