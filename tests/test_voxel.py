import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lidarmt import autodiff as ad
from lidarmt import voxel

from conftest import check_grads, rng


def test_paper_voxel_size_example():
    spec = voxel.VoxelGridSpec(voxel_size=(0.1, 0.1, 0.2), range_min=(0, 0, 0),
                               range_max=(10, 10, 8))
    idx = voxel.compute_voxel_index(np.array([[0.05, 0.15, 0.25]]), spec)
    np.testing.assert_array_equal(idx[0], [0, 1, 1])


def test_index_at_range_min_is_origin():
    spec = voxel.VoxelGridSpec()
    idx = voxel.compute_voxel_index(np.array([[0.0, 0.0, 0.0]]), spec)
    np.testing.assert_array_equal(idx[0], [0, 0, 0])


def test_indices_match_bruteforce_floor():
    r = rng(0)
    spec = voxel.VoxelGridSpec(voxel_size=(0.5, 0.25, 0.4), range_min=(-2, 0, 1),
                               range_max=(6, 4, 5))
    pts = np.column_stack([r.uniform(-2, 6, 1000), r.uniform(0, 4, 1000),
                           r.uniform(1, 5, 1000)])
    got = voxel.compute_voxel_index(pts, spec)
    for i in range(1000):
        for a, (lo, s) in enumerate(zip((-2, 0, 1), (0.5, 0.25, 0.4))):
            assert got[i, a] == int(np.floor((pts[i, a] - lo) / s))
    assert (got >= 0).all() and (got < np.array(spec.dims)).all()


def test_dims_are_exact_ceil():
    spec = voxel.VoxelGridSpec(voxel_size=(0.3, 0.5, 0.5), range_min=(0, 0, 0),
                               range_max=(1.0, 2.0, 1.5))
    assert spec.dims == (4, 4, 3)


def test_majority_vote_strict_and_tie():
    spec = voxel.VoxelGridSpec()
    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3],  # voxel A
                    [1.1, 0.1, 0.1], [1.2, 0.2, 0.2]])                  # voxel B
    frame = voxel.group_and_vote(pts, [2, 2, 5, 1, 2], spec)
    assert frame.num_voxels == 2
    assert frame.voxel_labels[0] == 2   # strict majority
    assert frame.voxel_labels[1] == 1   # tie -> lowest id


def test_vote_matches_histogram_oracle():
    r = rng(1)
    spec = voxel.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                               range_max=(4, 4, 4))
    pts = r.uniform(0, 4, size=(300, 3))
    labels = r.integers(1, 7, size=300)
    frame = voxel.group_and_vote(pts, labels, spec)
    assert frame.dropped == 0
    for row in range(frame.num_voxels):
        members = labels[frame.kept][frame.point_to_voxel == row]
        hist = np.bincount(members, minlength=7)
        assert frame.voxel_labels[row] == np.argmax(hist[1:]) + 1


def test_out_of_range_points_are_dropped_and_counted():
    spec = voxel.VoxelGridSpec(range_max=(4, 4, 4))
    pts = np.array([[1, 1, 1], [9, 9, 9], [-1, 0, 0]], dtype=float)
    frame = voxel.group_and_vote(pts, [1, 2, 3], spec)
    assert frame.dropped == 2 and frame.non_finite == 0
    assert frame.num_voxels == 1
    # non-finite coordinates are counted apart, and dropped like out-of-range ones
    pts = np.vstack([pts, [[np.nan, 1, 1], [1, np.inf, 1], [1, 1, -np.inf]]])
    frame = voxel.group_and_vote(pts, [1, 2, 3, 4, 5, 6], spec)
    assert frame.dropped == 5 and frame.non_finite == 3
    assert frame.kept.tolist() == [True] + [False] * 5


@pytest.mark.parametrize("bad", [0, -1, 7])
def test_label_outside_classes_is_a_value_error(bad):
    pts = np.array([[1, 1, 1], [1.1, 1, 1], [9, 9, 9]], dtype=float)
    with pytest.raises(ValueError, match=r"label outside 1\.\.6"):
        voxel.group_and_vote(pts, [1, bad, 2], voxel.VoxelGridSpec())


def test_every_voxel_nonempty_and_unique():
    r = rng(2)
    spec = voxel.VoxelGridSpec()
    pts = r.uniform(0, 16, size=(500, 3)) * [1, 1, 0.25]
    frame = voxel.group_and_vote(pts, np.ones(500, dtype=int), spec)
    keys = frame.indices @ np.array([1, 10**4, 10**8])
    assert len(np.unique(keys)) == frame.num_voxels
    assert len(np.unique(frame.point_to_voxel)) == frame.num_voxels


def _tiny_frame(n_pts=12, seed=3, n_feat=5):
    r = rng(seed)
    spec = voxel.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                               range_max=(3, 3, 3))
    pts = r.uniform(0, 3, size=(n_pts, 3))
    feats = np.column_stack([pts, r.uniform(0, 1, (n_pts, n_feat - 3))])
    frame = voxel.group_and_vote(pts, np.ones(n_pts, dtype=int), spec)
    return frame, feats, r


def test_vfe_singleton_voxel_equals_point_encoding():
    spec = voxel.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                               range_max=(3, 3, 3))
    pts = np.array([[0.3, 0.4, 0.5]])
    feats = np.column_stack([pts, [[0.7, 0.0]]])
    frame = voxel.group_and_vote(pts, [1], spec)
    params = voxel.init_vfe_params(11, [8, 8], rng(4))
    out = voxel.voxel_feature_encode(frame, feats, params)
    aug = voxel.augment_point_features(frame, feats)
    x = ad.constant(aug)
    for w, b in params.weights:
        x = ad.relu(ad.layer_norm(x @ w + b))
    np.testing.assert_array_equal(out.data, x.data)


def test_vfe_matches_encode_then_columnwise_max_oracle():
    frame, feats, r = _tiny_frame()
    params = voxel.init_vfe_params(11, [8, 6], rng(5))
    out = voxel.voxel_feature_encode(frame, feats, params)
    aug = voxel.augment_point_features(frame, feats)
    # brute force: encode every point, then per-voxel columnwise max
    x = aug
    for w, b in params.weights:
        z = x @ w.data + b.data
        mu = z.mean(axis=1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
        z = (z - mu) / np.sqrt(var + 1e-6)
        x = np.maximum(z, 0)
    for row in range(frame.num_voxels):
        members = x[frame.point_to_voxel == row]
        np.testing.assert_allclose(out.data[row], members.max(axis=0), atol=1e-12)


def test_vfe_permutation_invariance_within_voxel():
    frame, feats, r = _tiny_frame()
    params = voxel.init_vfe_params(11, [8], rng(6))
    out1 = voxel.voxel_feature_encode(frame, feats, params)
    perm = r.permutation(len(feats))
    import dataclasses
    frame2 = dataclasses.replace(frame, point_to_voxel=frame.point_to_voxel[perm])
    out2 = voxel.voxel_feature_encode(frame2, feats[perm], params)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_vfe_gradient_matches_finite_differences():
    frame, feats, _ = _tiny_frame(n_pts=9, seed=7)
    params = voxel.init_vfe_params(11, [6, 5], rng(8), out_dim=4)
    tensors = [t for pair in params.weights for t in pair] + list(params.out_proj)
    w = ad.constant(rng(9).normal(size=(frame.num_voxels, 4)))

    def f():
        return ad.mul(voxel.voxel_feature_encode(frame, feats, params), w).sum()

    check_grads(f, tensors, rtol=1e-4)


def test_vfe_reference_widths_build_and_encode():
    # the reference configuration: 4 stacked layers of [64, 128, 256, 256]
    frame, feats, _ = _tiny_frame(n_pts=6, seed=20)
    params = voxel.init_vfe_params(11, [64, 128, 256, 256], rng(21))
    shapes = [(w.data.shape, b.data.shape) for w, b in params.weights]
    assert shapes == [((11, 64), (64,)), ((64, 128), (128,)),
                      ((128, 256), (256,)), ((256, 256), (256,))]
    out = voxel.voxel_feature_encode(frame, feats, params)
    assert out.shape == (frame.num_voxels, 256)


def test_vfe_shape_mismatch_raises():
    frame, feats, _ = _tiny_frame()
    params = voxel.init_vfe_params(9, [4], rng(10))
    with pytest.raises(ValueError):
        voxel.voxel_feature_encode(frame, feats, params)


def test_devoxelize_broadcast_and_identity():
    vals = np.array([10, 20, 30])
    np.testing.assert_array_equal(voxel.devoxelize(vals, [0, 0, 0]), [10, 10, 10])
    np.testing.assert_array_equal(voxel.devoxelize(vals, [0, 1, 2]), vals)


def test_devoxelize_matches_lookup_oracle():
    r = rng(11)
    vals = r.normal(size=(7, 3))
    p2v = r.integers(0, 7, size=40)
    out = voxel.devoxelize(vals, p2v)
    for i in range(40):
        np.testing.assert_array_equal(out[i], vals[p2v[i]])


def test_devoxelize_dangling_row_raises():
    with pytest.raises(voxel.DevoxelizeError):
        voxel.devoxelize(np.zeros(3), [0, 3])


def test_label_roundtrip_recovers_majority_label():
    r = rng(12)
    spec = voxel.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                               range_max=(4, 4, 4))
    pts = r.uniform(0, 4, size=(200, 3))
    labels = r.integers(1, 7, size=200)
    frame = voxel.group_and_vote(pts, labels, spec)
    recovered = voxel.devoxelize(frame.voxel_labels, frame.point_to_voxel)
    for i, row in enumerate(frame.point_to_voxel):
        assert recovered[i] == frame.voxel_labels[row]
        members = labels[frame.kept][frame.point_to_voxel == row]
        hist = np.bincount(members, minlength=7)[1:]
        own = labels[frame.kept][i]
        # unique-majority points recover their own label exactly
        if hist[own - 1] > np.delete(hist, own - 1).max(initial=0):
            assert recovered[i] == own


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_vote_agrees_with_oracle(seed):
    r = np.random.default_rng(seed)
    spec = voxel.VoxelGridSpec(voxel_size=(2, 2, 2), range_min=(0, 0, 0),
                               range_max=(4, 4, 4))
    n = int(r.integers(1, 60))
    pts = r.uniform(0, 4, size=(n, 3))
    labels = r.integers(1, 7, size=n)
    frame = voxel.group_and_vote(pts, labels, spec)
    for row in range(frame.num_voxels):
        members = labels[frame.point_to_voxel == row]
        hist = np.bincount(members, minlength=7)[1:]
        assert frame.voxel_labels[row] == np.argmax(hist) + 1
