import math
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lidarmt import cli
from lidarmt import config as cf
from lidarmt import data
from lidarmt.container import ContainerError, TruncatedError, VersionError


def small_spec(**kw):
    base = dict(extent_min=(0, 0, 0), extent_max=(16, 16, 4),
                objects_per_class=(1, 1, 0, 1), ground_density=1.0,
                wall_density=0.5, object_density=4.0)
    base.update(kw)
    return data.SceneSpec(**base)


def oracle_point_in_box(p, box):
    """Independent membership test: rotate into the box frame, compare."""
    d = np.asarray(p, dtype=np.float64) - box.center.astype(np.float64)
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * d[0] - s * d[1]
    ly = s * d[0] + c * d[1]
    half = box.size.astype(np.float64) / 2
    return (abs(lx) <= half[0] + 1e-9 and abs(ly) <= half[1] + 1e-9
            and abs(d[2]) <= half[2] + 1e-9)


def test_zero_objects_gives_background_only():
    sample = data.generate_scene(1, small_spec(objects_per_class=(0, 0, 0, 0)))
    assert len(sample.boxes) == 0
    assert set(np.unique(sample.labels)) <= {1, 2}


def test_labels_match_point_in_box_oracle():
    sample = data.generate_scene(7, small_spec(objects_per_class=(2, 1, 0, 0)))
    assert len(sample.boxes) == 3
    xyz = sample.xyz.astype(np.float64)
    for i in range(len(xyz)):
        owners = [b.semantic_label for b in sample.boxes if oracle_point_in_box(xyz[i], b)]
        if owners:
            assert sample.labels[i] in owners
        else:
            assert sample.labels[i] in (1, 2)


def test_generation_is_deterministic():
    a = data.generate_scene(42, small_spec())
    b = data.generate_scene(42, small_spec())
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a.boxes) == len(b.boxes)
    for ba, bb in zip(a.boxes, b.boxes):
        np.testing.assert_array_equal(ba.center, bb.center)
        assert ba.yaw == bb.yaw


def test_placement_error_when_scene_too_crowded():
    spec = small_spec(extent_min=(0, 0, 0), extent_max=(6.0, 6.0, 4),
                      objects_per_class=(8, 0, 0, 0), max_retries=5)
    with pytest.raises(data.PlacementError):
        data.generate_scene(0, spec)


def test_placement_error_when_extent_is_narrower_than_the_box():
    spec = data.SceneSpec(extent_max=(3, 3, 4), objects_per_class=(1, 0, 0, 0))
    with pytest.raises(data.PlacementError, match=r"class-1 box needs .* extent is "
                                                  r"\(0\.0, 0\.0, 0\.0\)\.\.\(3, 3, 4\)"):
        data.generate_scene(0, spec)


# CRC32s of (points, labels, packed boxes) of scenes of the default spec, of a
# 32 x 32 m spec with 18 objects, and of a crowded spec with no centre gap (where
# the separating-axis test decides most placements), recorded before placement
# and labelling were vectorised. Re-record with `crc_of_scene` only when scenes
# are meant to change.
GOLDEN_SPECS = {
    "default": cli.scene_spec_from_config(cf.load_config()),
    "large": cli.scene_spec_from_config(cf.load_config(overrides={
        "scene.extent_min": (-16.0, -16.0, 0.0), "scene.extent_max": (16.0, 16.0, 4.0),
        "scene.objects_per_class": (6, 4, 4, 4)})),
    "crowded": data.SceneSpec(extent_max=(11, 11, 4), objects_per_class=(2, 2, 2, 2),
                              max_retries=30),
}
GOLDEN_SCENES = {
    "default": {
        0: (4260812547, 1667534531, 2424024782),
        1: (552888607, 882518029, 4234941422),
        2: (2149452250, 1399387047, 1001942838),
        3: (1435390663, 3681378568, 3705098528),
        4: (3152961308, 1685186464, 365922501),
        5: (755036939, 576950223, 1539751304),
        1000003: (3723710435, 3482422473, 795363621),
        1500003: (3848269132, 822845743, 2319837539),
    },
    "large": {
        0: (263417430, 939633716, 2095103484),
        1: (233958641, 1146185279, 4294247324),
        2: (3340216429, 2041317917, 4205358664),
        3: (3572398248, 413767116, 2703563845),
        4: (1135752829, 1270650309, 2941896468),
        5: (4018514874, 2087899293, 2961912558),
        1000003: (1516540378, 3800121624, 3302546505),
        1500003: (1492376356, 878125344, 4196231135),
    },
    "crowded": {
        0: (3830200146, 32519736, 2190920302),
        1: (3810249235, 3286226831, 167522190),
        2: (3166532660, 819607982, 1448066548),
        3: (1688997228, 478388842, 4200994808),
        4: (4046544528, 991873758, 552250323),
        5: (2049992077, 78187239, 2108632571),
        1000003: (2024844223, 1356262996, 1443975251),
        1500003: (1161486606, 1543635738, 1893677462),
    },
}


def crc_of_scene(s: data.SceneSample) -> tuple:
    boxes = b"".join(struct.pack("<7fi", *b.center, *b.size, b.yaw, b.class_id)
                     for b in s.boxes)
    return (zlib.crc32(s.points.tobytes()), zlib.crc32(s.labels.tobytes()),
            zlib.crc32(boxes))


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENES))
def test_generated_scenes_match_recorded_bytes(name):
    got = {seed: crc_of_scene(data.generate_scene(seed, GOLDEN_SPECS[name]))
           for seed in GOLDEN_SCENES[name]}
    assert got == GOLDEN_SCENES[name]


def test_concat_empty_history_is_identity():
    cur = data.generate_scene(3, small_spec())
    out = data.concat_frames(cur, [], [])
    np.testing.assert_array_equal(out.points, cur.points)
    assert (out.points[:, 4] == 0).all()


def test_concat_one_frame_identity_pose():
    cur = data.generate_scene(3, small_spec())
    hist = data.generate_scene(4, small_spec())
    out = data.concat_frames(cur, [hist], [np.eye(4)], dt=0.1)
    assert len(out.points) == len(cur.points) + len(hist.points)
    hist_part = out.points[len(cur.points):]
    np.testing.assert_allclose(hist_part[:, 4], -0.1, atol=1e-7)
    np.testing.assert_array_equal(hist_part[:, :3], hist.points[:, :3])


def test_concat_translation_pose_applies_pointwise():
    cur = data.generate_scene(3, small_spec())
    hist = data.generate_scene(5, small_spec())
    pose = np.eye(4)
    pose[:3, 3] = [1.0, 0.0, 0.0]
    out = data.concat_frames(cur, [hist], [pose])
    moved = out.points[len(cur.points):, :3]
    want = hist.points[:, :3].astype(np.float64) + [1.0, 0.0, 0.0]
    np.testing.assert_allclose(moved, want.astype(np.float32), atol=1e-6)


def test_concat_associative_in_point_content():
    a = data.generate_scene(1, small_spec())
    b = data.generate_scene(2, small_spec())
    c = data.generate_scene(3, small_spec())
    eye = np.eye(4)
    flat = data.concat_frames(a, [b, c], [eye, eye])
    nested = data.concat_frames(data.concat_frames(a, [b], [eye]), [c], [eye])

    def content(sample):
        # multiset of rows ignoring timestamps (they depend on nesting depth)
        rows = sample.points[:, :4]
        return rows[np.lexsort(rows.T)]

    np.testing.assert_array_equal(content(flat), content(nested))


def test_concat_missing_pose_raises():
    cur = data.generate_scene(3, small_spec())
    hist = data.generate_scene(5, small_spec())
    with pytest.raises(data.PoseError):
        data.concat_frames(cur, [hist], [])
    with pytest.raises(data.PoseError):
        data.concat_frames(cur, [hist], [None])


def test_augment_identity_is_noop():
    s = data.generate_scene(6, small_spec())
    out = data.augment(s, data.AugmentParams())
    np.testing.assert_array_equal(out.points, s.points)
    np.testing.assert_array_equal(out.labels, s.labels)


def test_augment_flip_x_negates_y_and_yaw_membership_holds():
    s = data.generate_scene(6, small_spec(objects_per_class=(1, 0, 0, 0)))
    out = data.augment(s, data.AugmentParams(flip_x=True))
    np.testing.assert_allclose(out.points[:, 1], -s.points[:, 1])
    assert out.boxes[0].yaw == pytest.approx(data._wrap_angle(-s.boxes[0].yaw))
    xyz = out.xyz.astype(np.float64)
    inside = data.points_in_box(xyz, out.boxes[0])
    want = out.labels == out.boxes[0].semantic_label
    # every point labeled as the box must still fall inside the flipped box
    assert (inside[want]).all()


@pytest.mark.parametrize("yaw", [0.0, 0.7])
def test_points_in_box_never_holds_a_non_finite_point_and_warns_nothing(yaw):
    box = data.Box(center=(1.0, 2.0, 1.0), size=(2.0, 3.0, 2.0), yaw=yaw, class_id=1)
    finite = np.random.default_rng(3).uniform(-1.0, 3.0, size=(40, 3))
    bad = np.array([[np.nan, 2.0, 1.0], [np.inf, 2.0, 1.0], [1.0, -np.inf, 1.0],
                    [1.0, 2.0, np.inf], [-np.inf, np.inf, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = data.points_in_box(finite, box)
        got = data.points_in_box(np.concatenate([finite[:20], bad, finite[20:]]), box)
    assert want.any() and not want.all()
    np.testing.assert_array_equal(got, np.concatenate([want[:20], np.zeros(5, bool), want[20:]]))


def test_augment_rotation_quarter_turn():
    pts = np.zeros((1, 5), dtype=np.float32)
    pts[0, :3] = [1.0, 0.0, 0.5]
    s = data.SceneSample(points=pts, labels=[1], boxes=[])
    out = data.augment(s, data.AugmentParams(rotation=math.pi / 2))
    np.testing.assert_allclose(out.points[0, :3], [0.0, 1.0, 0.5], atol=1e-6)


def inverse_augment_params(params: data.AugmentParams) -> list[data.AugmentParams]:
    """Parameter sequence undoing augment() (scale, rotation, then flips)."""
    return [
        data.AugmentParams(scale=1.0 / params.scale),
        data.AugmentParams(rotation=-params.rotation),
        data.AugmentParams(flip_y=params.flip_y),
        data.AugmentParams(flip_x=params.flip_x),
    ]


def test_augment_inverse_restores_coordinates():
    s = data.generate_scene(8, small_spec())
    params = data.AugmentParams(flip_x=True, flip_y=True, rotation=0.3, scale=1.04)
    out = data.augment(s, params)
    for inv in inverse_augment_params(params):
        out = data.augment(out, inv)
    np.testing.assert_allclose(out.points[:, :3], s.points[:, :3], atol=1e-5)


def test_augment_rejects_extreme_scale():
    s = data.generate_scene(8, small_spec())
    with pytest.raises(ValueError):
        data.augment(s, data.AugmentParams(scale=1.2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_labels_agree_with_membership_oracle(seed):
    sample = data.generate_scene(seed, small_spec(objects_per_class=(1, 1, 0, 0),
                                                  ground_density=0.4, wall_density=0.2))
    xyz = sample.xyz.astype(np.float64)
    owned = np.zeros(len(xyz), dtype=bool)
    for b in sample.boxes:
        inside = data.points_in_box(xyz, b)
        assert (sample.labels[inside] == b.semantic_label).all()
        owned |= inside
    assert np.isin(sample.labels[~owned], (1, 2)).all()


def test_dataset_roundtrip_exact(tmp_path):
    samples = [data.generate_scene(s, small_spec(), frame_id=s) for s in range(3)]
    path = tmp_path / "scenes.bin"
    data.write_dataset(samples, path)
    back = data.read_dataset(path)
    assert len(back) == 3
    for a, b in zip(samples, back):
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.frame_id == b.frame_id
        assert len(a.boxes) == len(b.boxes)
        for ba, bb in zip(a.boxes, b.boxes):
            np.testing.assert_array_equal(ba.center, bb.center)
            np.testing.assert_array_equal(ba.size, bb.size)
            assert ba.yaw == bb.yaw and ba.class_id == bb.class_id


def test_dataset_empty_list_roundtrip(tmp_path):
    path = tmp_path / "empty.bin"
    data.write_dataset([], path)
    assert data.read_dataset(path) == []


@pytest.mark.parametrize("bad", [0, -1, 7])
def test_dataset_label_outside_classes_names_the_frame(tmp_path, bad):
    good = data.generate_scene(0, small_spec(), frame_id=4)
    labels = good.labels.copy()
    labels[len(labels) // 2:] = bad
    path = tmp_path / "labels.bin"
    data.write_dataset([good, data.SceneSample(points=good.points, labels=labels,
                                               boxes=good.boxes, frame_id=9)], path)
    with pytest.raises(ContainerError, match="frame 9: label outside 1..6"):
        data.read_dataset(path)


def test_dataset_corrupted_magic_raises_version_error(tmp_path):
    path = tmp_path / "bad.bin"
    data.write_dataset([data.generate_scene(0, small_spec())], path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        data.read_dataset(path)


def test_dataset_truncated_raises(tmp_path):
    path = tmp_path / "trunc.bin"
    data.write_dataset([data.generate_scene(0, small_spec())], path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(TruncatedError):
        data.read_dataset(path)
