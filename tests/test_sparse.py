from unittest import mock

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import sparse

from conftest import check_grads, rng


def random_sparse(r, shape=(5, 5, 5), n=10, cin=3):
    w, h, d = shape
    cells = r.choice(w * h * d, size=min(n, w * h * d), replace=False)
    coords = np.column_stack([cells % w, (cells // w) % h, cells // (w * h)])
    feats = ad.parameter(r.normal(size=(len(coords), cin)))
    return sparse.SparseVoxelTensor(coords, feats, shape)


def rows_of(t, coords):
    """(row ids, found mask) of query coordinates in t, by a dict over its
    pack_coords keys; out-of-grid queries are not found (row -1)."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    index = dict(zip(sparse.pack_coords(t.coords, t.spatial_shape).tolist(), range(len(t))))
    in_grid = ((coords >= 0) & (coords < t.spatial_shape)).all(axis=1)
    keys = sparse.pack_coords(np.where(in_grid[:, None], coords, 0), t.spatial_shape)
    rows = np.array([index.get(k, -1) if ok else -1 for k, ok in zip(keys.tolist(), in_grid)],
                    dtype=np.int64)
    return rows, rows >= 0


def sites(coords, shape):
    """A zero-channel tensor on coords: the fine sites of an upsample."""
    return sparse.SparseVoxelTensor(coords, np.zeros((len(coords), 0)), shape)


def strided_sites(fine):
    """The zero-channel coarse tensor strided_conv3d makes from `fine`: the one
    coarse set an upsample onto fine's sites takes."""
    taps = sparse.live_taps(fine.spatial_shape, tuple(s // 2 for s in fine.spatial_shape), 2)
    return sparse.strided_conv3d(fine, ad.Tensor(np.zeros((len(taps), fine.num_channels, 0))),
                                 ad.Tensor(np.zeros(0)))


def lookup_order(pairs, out):
    """`pairs` as a lookup lists them, by output row. Mirrored and transposed
    taps keep the order of the tap they are read off; on key-ordered output
    sites (every set the model builds) that is already the lookup's order, so
    only other site orders are reordered."""
    if (np.diff(out._keys) > 0).all():
        return pairs
    return [p and tuple(a[np.argsort(p[1], kind="stable")] for a in p) for p in pairs]


def rulebook_of(conv, *tensors):
    """The per-tap pairs conv(*tensors, kernel, bias) hands to tap_matmul_scatter."""
    with mock.patch.object(ad, "tap_matmul_scatter",
                           side_effect=lambda f, k, pairs, n, b: ad.Tensor(np.zeros((n, 0)))) as spy:
        conv(*tensors, None, None)
    return spy.call_args.args[2]


def dense_conv_oracle(t, kernel, bias, stride=1):
    """Zero-padded dense 3D correlation with a full (27, Cin, Cout) kernel,
    evaluated on the full grid."""
    kernel = kernel.reshape(3, 3, 3, *kernel.shape[1:])
    w, h, d = t.spatial_shape
    cin = t.num_channels
    cout = kernel.shape[-1]
    dense = np.zeros((w, h, d, cin))
    for row, (x, y, z) in enumerate(t.coords):
        dense[x, y, z] = t.features.data[row]
    padded = np.pad(dense, ((1, 1), (1, 1), (1, 1), (0, 0)))
    wo, ho, do = w // stride, h // stride, d // stride
    out = np.zeros((wo, ho, do, cout))
    for x in range(wo):
        for y in range(ho):
            for z in range(do):
                acc = np.zeros(cout)
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            v = padded[x * stride + dx + 1, y * stride + dy + 1,
                                       z * stride + dz + 1]
                            acc += v @ kernel[dx + 1, dy + 1, dz + 1]
                out[x, y, z] = acc + bias
    return out


def test_identity_kernel_is_identity():
    r = rng(0)
    t = random_sparse(r, n=8, cin=4)
    k = np.zeros((27, 4, 4))
    k[13] = np.eye(4)
    out = sparse.submanifold_conv3d(t, ad.Tensor(k), ad.Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.coords, t.coords)
    np.testing.assert_allclose(out.features.data, t.features.data, atol=1e-15)


def test_single_voxel_sees_only_center_tap():
    r = rng(1)
    k = ad.Tensor(r.normal(size=(27, 3, 2)))
    b = ad.Tensor(r.normal(size=2))
    t = sparse.SparseVoxelTensor(np.array([[2, 2, 2]]), r.normal(size=(1, 3)), (5, 5, 5))
    out = sparse.submanifold_conv3d(t, k, b)
    want = t.features.data[0] @ k.data[13] + b.data
    np.testing.assert_allclose(out.features.data[0], want, atol=1e-12)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_submanifold_matches_dense_oracle(seed):
    r = rng(seed)
    t = random_sparse(r, shape=(5, 5, 5), n=14, cin=3)
    k = ad.Tensor(r.normal(size=(27, 3, 4)))
    b = ad.Tensor(r.normal(size=4))
    out = sparse.submanifold_conv3d(t, k, b)
    dense = dense_conv_oracle(t, k.data, b.data)
    for row, (x, y, z) in enumerate(out.coords):
        np.testing.assert_allclose(out.features.data[row], dense[x, y, z], atol=1e-12)


def test_strided_single_voxel_coordinate_arithmetic():
    r = rng(5)
    t = sparse.SparseVoxelTensor(np.array([[4, 4, 2]]), r.normal(size=(1, 2)), (8, 8, 4))
    k = ad.Tensor(r.normal(size=(27, 2, 2)))
    out = sparse.strided_conv3d(t, k, ad.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.coords, [[2, 2, 1]])
    assert out.spatial_shape == (4, 4, 2)


def test_strided_merging_matches_dense_oracle():
    r = rng(6)
    coords = np.array([[2, 2, 2], [3, 3, 3], [0, 0, 0], [3, 2, 2]])
    t = sparse.SparseVoxelTensor(coords, r.normal(size=(4, 3)), (6, 6, 6))
    k = ad.Tensor(r.normal(size=(27, 3, 2)))
    b = ad.Tensor(r.normal(size=2))
    out = sparse.strided_conv3d(t, k, b)
    assert out.spatial_shape == (3, 3, 3)
    want_coords = {(1, 1, 1), (0, 0, 0)}
    assert set(map(tuple, out.coords)) == want_coords
    dense = dense_conv_oracle(t, k.data, b.data, stride=2)
    for row, (x, y, z) in enumerate(out.coords):
        np.testing.assert_allclose(out.features.data[row], dense[x, y, z], atol=1e-12)


def test_strided_empty_tensor_halves_shape():
    t = sparse.SparseVoxelTensor(np.empty((0, 3)), np.empty((0, 3)), (4, 4, 4))
    out = sparse.strided_conv3d(t, ad.Tensor(np.zeros((27, 3, 2))),
                                ad.Tensor(np.zeros(2)))
    assert len(out) == 0
    assert out.spatial_shape == (2, 2, 2)


def test_strided_rejects_odd_shape():
    t = sparse.SparseVoxelTensor(np.array([[0, 0, 0]]), np.ones((1, 1)), (3, 4, 4))
    with pytest.raises(ValueError):
        sparse.strided_conv3d(t, ad.Tensor(np.zeros((27, 1, 1))),
                              ad.Tensor(np.zeros(1)))


def test_conv_gradients_match_finite_differences():
    r = rng(7)
    t = random_sparse(r, shape=(4, 4, 4), n=6, cin=2)
    k = ad.parameter(r.normal(size=(27, 2, 3)))
    b = ad.parameter(r.normal(size=3))
    w = ad.constant(r.normal(size=(len(t), 3)))

    def f_sub():
        return ad.mul(sparse.submanifold_conv3d(t, k, b).features, w).sum()

    check_grads(f_sub, [t.features, k, b])

    w2 = ad.constant(r.normal(size=(len(sparse.strided_conv3d(t, k, b)), 3)))

    def f_str():
        return ad.mul(sparse.strided_conv3d(t, k, b).features, w2).sum()

    check_grads(f_str, [t.features, k, b])


def test_upsample_conv_routes_and_grads():
    r = rng(8)
    fine_coords = np.array([[0, 0, 0], [1, 0, 0], [2, 2, 2], [3, 3, 3]])
    fine = sites(fine_coords, (4, 4, 4))
    coarse = strided_sites(fine)
    coarse = coarse.with_features(ad.parameter(r.normal(size=(len(coarse), 2))))
    k = ad.parameter(r.normal(size=(27, 2, 2)))
    b = ad.parameter(r.normal(size=2))
    out = sparse.upsample_conv3d(coarse, fine, k, b)
    np.testing.assert_array_equal(out.coords, fine_coords)
    # every fine site f receives coarse[o] iff 2o + t = f for some tap t
    for fi, f in enumerate(fine_coords):
        acc = b.data.copy()
        for tap, off in enumerate(sparse.KERNEL_OFFSETS):
            cand = f - off
            if (cand % 2 == 0).all():
                rows, found = rows_of(coarse, cand // 2)
                if found[0]:
                    acc = acc + coarse.features.data[rows[0]] @ k.data[tap]
        np.testing.assert_allclose(out.features.data[fi], acc, atol=1e-12)
    w = ad.constant(r.normal(size=(4, 2)))

    def f():
        return ad.mul(sparse.upsample_conv3d(coarse, fine, k, b).features, w).sum()

    check_grads(f, [coarse.features, k, b])


def test_scatter_gather_roundtrip_identity():
    r = rng(9)
    t = random_sparse(r, shape=(3, 4, 2), n=5, cin=3)
    dense = sparse.scatter_to_dense(t)
    assert dense.shape == (3, 2, 4, 3)  # (C, D, H, W)
    back = sparse.gather_from_dense(dense, t.coords, t.spatial_shape)
    np.testing.assert_array_equal(back.data, t.features.data)


def test_scatter_empty_is_all_zero():
    t = sparse.SparseVoxelTensor(np.empty((0, 3)), np.empty((0, 2)), (2, 2, 2))
    np.testing.assert_array_equal(sparse.scatter_to_dense(t).data,
                                  np.zeros((2, 2, 2, 2)))


def test_gather_at_absent_coordinate_is_zero():
    r = rng(10)
    t = sparse.SparseVoxelTensor(np.array([[1, 1, 1]]), r.normal(size=(1, 2)), (3, 3, 3))
    dense = sparse.scatter_to_dense(t)
    out = sparse.gather_from_dense(dense, np.array([[0, 0, 0]]), t.spatial_shape)
    np.testing.assert_array_equal(out.data, np.zeros((1, 2)))


def test_gather_out_of_range_raises():
    dense = ad.Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(sparse.CoordinateError):
        sparse.gather_from_dense(dense, np.array([[5, 0, 0]]), (2, 2, 2))


def test_scatter_gather_gradients():
    r = rng(11)
    t = random_sparse(r, shape=(3, 3, 2), n=4, cin=2)
    w = ad.constant(r.normal(size=(2, 2, 3, 3)))

    def f():
        return ad.mul(sparse.scatter_to_dense(t), w).sum()

    check_grads(f, [t.features])


def test_height_collapse_expand_inverse():
    r = rng(12)
    x = ad.parameter(r.normal(size=(3, 2, 4, 5)))  # (C, D, H, W)
    bev = sparse.height_collapse(x)
    assert bev.shape == (6, 4, 5)
    back = sparse.height_expand(bev, 2)
    np.testing.assert_array_equal(back.data, x.data)
    w = ad.constant(r.normal(size=(6, 4, 5)))
    check_grads(lambda: ad.mul(sparse.height_collapse(x), w).sum(), [x])


def test_height_collapse_order_is_height_major():
    x = np.zeros((1, 2, 2, 2))
    x[0, 0] = 1.0
    x[0, 1] = 2.0
    bev = sparse.height_collapse(ad.Tensor(x))
    np.testing.assert_array_equal(bev.data[0], np.ones((2, 2)))
    np.testing.assert_array_equal(bev.data[1], 2 * np.ones((2, 2)))


def test_height_slices_match_channel_blocks():
    r = rng(13)
    x = ad.Tensor(r.normal(size=(4, 3, 2, 2)))
    bev = sparse.height_collapse(x)
    for j in range(3):
        np.testing.assert_array_equal(bev.data[4 * j:4 * (j + 1)], x.data[:, j])
    back = sparse.height_expand(bev, 3)
    for j in range(3):
        np.testing.assert_array_equal(back.data[:, j], bev.data[4 * j:4 * (j + 1)])


def test_height_expand_rejects_indivisible():
    with pytest.raises(ValueError):
        sparse.height_expand(ad.Tensor(np.zeros((5, 2, 2))), 2)


def test_rows_of_exact_lookup():
    """The reference lookup the rulebook tests compare against."""
    r = rng(14)
    t = random_sparse(r, shape=(6, 6, 6), n=20, cin=1)
    rows, found = rows_of(t, t.coords)
    assert found.all()
    np.testing.assert_array_equal(rows, np.arange(len(t)))
    absent = np.array([c for c in np.ndindex(6, 6, 6) if c not in set(map(tuple, t.coords))])
    outside = [[-1, 0, 0], [0, 6, 0], [5, 5, 6]]
    assert not rows_of(t, np.concatenate([absent, outside]))[1].any()


def test_duplicate_coords_rejected():
    with pytest.raises(sparse.CoordinateError):
        sparse.SparseVoxelTensor(np.array([[1, 1, 1], [1, 1, 1]]),
                                 np.zeros((2, 1)), (3, 3, 3))


def test_out_of_shape_coords_rejected():
    with pytest.raises(sparse.CoordinateError):
        sparse.SparseVoxelTensor(np.array([[3, 0, 0]]), np.zeros((1, 1)), (3, 3, 3))


# -- rulebooks -------------------------------------------------------------------


def rows_of_conv_pairs(t, out_coords, stride):
    """Reference conv rulebook: one rows_of binary search per tap."""
    pairs = []
    for off in sparse.KERNEL_OFFSETS:
        rows, found = rows_of(t, out_coords * stride + off)
        pairs.append((rows[found], np.nonzero(found)[0]))
    return pairs


def rows_of_up_pairs(coarse, fine_coords):
    """Reference transposed-conv rulebook: fine f takes coarse o where 2o + off = f."""
    pairs = []
    for off in sparse.KERNEL_OFFSETS:
        cand = fine_coords - off
        rows, found = rows_of(coarse, cand // 2)
        ok = (cand % 2 == 0).all(axis=1) & found
        pairs.append((rows[ok], np.nonzero(ok)[0]))
    return pairs


def face_sparse(r, shape, n, cin=2):
    """Random voxels plus at least one on each of the six grid faces."""
    t = random_sparse(r, shape=shape, n=n)
    coords = [tuple(c) for c in t.coords]
    hi = np.array(shape) - 1
    for axis in range(3):
        for side in (0, hi[axis]):
            c = np.array([r.integers(0, s) for s in shape])
            c[axis] = side
            coords.append(tuple(c))
    coords = np.array(sorted(set(coords)), dtype=np.int64)
    return sparse.SparseVoxelTensor(coords, r.normal(size=(len(coords), cin)), shape)


def rulebook_cases():
    r = rng(20)
    shape = (6, 8, 4)
    yield face_sparse(r, shape, 40), face_sparse(r, shape, 30).coords
    yield face_sparse(r, (8, 4, 6), 5), face_sparse(r, (8, 4, 6), 60).coords
    for corner in ([0, 0, 0], [5, 7, 3]):
        single = sparse.SparseVoxelTensor(np.array([corner]), np.ones((1, 2)), shape)
        yield single, single.coords
    empty = sparse.SparseVoxelTensor(np.empty((0, 3)), np.empty((0, 2)), shape)
    yield empty, empty.coords
    # two voxels high: the strided conv, its upsample twin and the coarse
    # submanifold conv drop the taps that can never pair
    yield face_sparse(r, (8, 4, 2), 20), face_sparse(r, (8, 4, 2), 12).coords


def expand_marker(pairs, n):
    """A rulebook with its identity-tap marker (None) written out as rows."""
    return [(np.arange(n), np.arange(n)) if p is None else p for p in pairs]


def identity_taps(pairs, n_src, n_q):
    """Taps whose reference rows are arange(n) on both sides, n = n_src = n_q > 0."""
    return [t for t, (rin, rout) in enumerate(pairs)
            if 0 < n_src == n_q == len(rin) and np.array_equal(rin, np.arange(n_src))
            and np.array_equal(rout, np.arange(n_q))]


def marked_taps(pairs):
    return [t for t, p in enumerate(pairs) if p is None]


def live_part(want, taps):
    """The reference rulebook at the live taps; every other tap has no pair."""
    assert all(len(want[t][0]) == 0 for t in np.setdiff1d(np.arange(27), taps))
    return [want[t] for t in taps]


def assert_same_unique_pairs(got, want, n):
    assert len(got) == len(want)
    for (gin, gout), (win, wout) in zip(expand_marker(got, n), want):
        assert gin.dtype == win.dtype and gout.dtype == wout.dtype
        np.testing.assert_array_equal(gin, win)
        np.testing.assert_array_equal(gout, wout)
        assert len(np.unique(gin)) == len(gin)
        assert len(np.unique(gout)) == len(gout)


def test_rulebooks_match_rows_of_reference():
    b = ad.Tensor(np.zeros(2))
    for t, other in rulebook_cases():
        shape = t.spatial_shape
        coarse_shape = tuple(s // 2 for s in shape)
        down_taps = sparse.live_taps(shape, coarse_shape, 2)
        coarse = sparse.strided_conv3d(t, ad.Tensor(np.zeros((len(down_taps), 2, 2))), b)
        for src in (t, coarse):
            taps = sparse.live_taps(src.spatial_shape, src.spatial_shape, 1)
            sub = lookup_order(rulebook_of(sparse.submanifold_conv3d, src), src)
            want = live_part(rows_of_conv_pairs(src, src.coords, 1), taps)
            assert_same_unique_pairs(sub, want, len(src))
            # the centre offset's tap of a non-empty submanifold rulebook is the marker
            assert marked_taps(sub) == ([list(taps).index(13)] if len(src) else [])
        down = rulebook_of(sparse.strided_conv3d, t)
        want = live_part(rows_of_conv_pairs(t, coarse.coords, 2), down_taps)
        assert_same_unique_pairs(down, want, len(t))
        # elsewhere the marker stands exactly where the reference rows are the identity
        assert marked_taps(down) == identity_taps(want, len(t), len(coarse))
        # transposed conv back onto the fine sites of each strided conv
        other = sites(other, shape)
        for fine, child in ((t, coarse), (other, strided_sites(other))):
            up = lookup_order(rulebook_of(sparse.upsample_conv3d, child, fine), fine)
            want = live_part(rows_of_up_pairs(child, fine.coords), down_taps)
            assert_same_unique_pairs(up, want, len(child))
            assert marked_taps(up) == identity_taps(want, len(child), len(fine))


def assert_same_rulebook(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        for ga, wa in zip(g or (), w or ()):
            assert ga.dtype == wa.dtype
            np.testing.assert_array_equal(ga, wa)


def direct_up_rulebook(coarse, fine):
    """fine = 2 * coarse + offset, built from the coarse side by _rulebook."""
    taps = sparse.live_taps(fine.spatial_shape, coarse.spatial_shape, 2)
    return sparse._rulebook(2 * coarse.coords, fine.coords, -sparse.KERNEL_OFFSETS[taps],
                            np.maximum(fine.spatial_shape, 2 * np.array(coarse.spatial_shape)))


def test_derived_upsample_rulebook_equals_a_direct_build(monkeypatch):
    """The upsample pairs read off the stride-2 relation in the fine memo equal a
    direct build array for array and dtype for dtype (in lookup order where the
    fine sites are not key-ordered); any other coarse set, even
    one on the same sites, is a CoordinateError before any rulebook is built."""
    calls = []
    build = sparse._rulebook
    monkeypatch.setattr(sparse, "_rulebook", lambda *a: calls.append(a) or build(*a))
    r = rng(29)
    children, strangers = [], []
    for t, other in rulebook_cases():
        coarse = strided_sites(t)
        # the child set itself; the same sites on a set of their own, another
        # set, and the child set over fine sites it was not strided from
        alike = sparse.SparseVoxelTensor(coarse.coords, np.ones((len(coarse), 2)),
                                         coarse.spatial_shape)
        shifted = face_sparse(r, coarse.spatial_shape, 6)
        children.append((coarse.with_features(np.ones((len(coarse), 2))), t))
        strangers += [(alike, t), (shifted, t), (coarse, sites(other, t.spatial_shape))]
    # even fine sites in key order, one per coarse site: tap (0, 0, 0) is the marker
    even = face_sparse(r, (4, 4, 4), 20)
    fine = sites(sparse.unpack_coords(np.sort(sparse.pack_coords(2 * even.coords, (8, 8, 8))),
                                      (8, 8, 8)), (8, 8, 8))
    children.append((strided_sites(fine), fine))
    strangers.append((even, sites(2 * even.coords, (8, 8, 8))))
    # a fine grid one voxel high under a coarse one: no strided conv makes this pair
    strangers.append((sparse.SparseVoxelTensor(np.array([[0, 0, 0], [1, 1, 0]]),
                                               r.normal(size=(2, 2)), (2, 2, 1)),
                      sites(np.array([[0, 0, 0], [1, 1, 0], [3, 2, 0], [2, 3, 0]]), (4, 4, 1))))
    for coarse, fine in children:
        got = rulebook_of(sparse.upsample_conv3d, coarse, fine)
        assert got is fine._memo[-2]
        assert len(got) == len(sparse.live_taps(fine.spatial_shape, coarse.spatial_shape, 2))
        assert_same_rulebook(lookup_order(got, fine), direct_up_rulebook(coarse, fine))
    assert marked_taps(got) == [list(sparse.live_taps((8, 8, 8), (4, 4, 4), 2)).index(13)]
    for coarse, fine in strangers:
        before, entries = len(calls), set(fine._memo)
        with pytest.raises(sparse.CoordinateError, match="not strided from"):
            rulebook_of(sparse.upsample_conv3d, coarse, fine)
        assert len(calls) == before and set(fine._memo) == entries


def test_mirrored_submanifold_rulebook_equals_a_full_lookup():
    """Taps past the centre, read off their mirror taps, equal a lookup at every
    live offset array for array: as built on sorted sites, in lookup order on
    shuffled ones; size-1 axes and empty sets included."""
    r = rng(31)
    for case in range(300):
        shape = tuple(int(s) for s in r.choice([1, 1, 2, 3, 5, 8], size=3))
        cells = int(np.prod(shape))
        keys = r.choice(cells, size=int(r.integers(0, min(cells, 40) + 1)), replace=False)
        if case % 2:
            keys = np.sort(keys)
        t = sites(sparse.unpack_coords(keys, shape), shape)
        taps = sparse.live_taps(shape, shape, 1)
        got = lookup_order(rulebook_of(sparse.submanifold_conv3d, t), t)
        assert got is t._memo[1] or not case % 2
        assert_same_rulebook(got, sparse._rulebook(t.coords, t.coords,
                                                   sparse.KERNEL_OFFSETS[taps], shape))


def test_strided_conv_and_its_upsample_build_the_stride_2_relation_once(monkeypatch):
    calls = []
    build = sparse._rulebook
    monkeypatch.setattr(sparse, "_rulebook", lambda *a: calls.append(a) or build(*a))
    r = rng(30)
    t = face_sparse(r, (6, 8, 4), 40)
    taps = sparse.live_taps(t.spatial_shape, (3, 4, 2), 2)
    coarse = sparse.strided_conv3d(t, ad.Tensor(r.normal(size=(len(taps), 2, 3))),
                                   ad.Tensor(np.zeros(3)))
    assert len(calls) == 1
    again = sparse.strided_conv3d(t.with_features(np.ones((len(t), 2))),
                                  ad.Tensor(r.normal(size=(len(taps), 2, 3))),
                                  ad.Tensor(np.zeros(3)))
    assert again.coords is coarse.coords and again._memo is coarse._memo
    for _ in range(2):
        up = sparse.upsample_conv3d(coarse, t, ad.Tensor(r.normal(size=(len(taps), 3, 2))),
                                    ad.Tensor(np.zeros(2)))
    assert len(calls) == 1 and set(t._memo) == {2, -2} and coarse._memo == {}
    assert len(up) == len(t) and up._memo is t._memo


def test_upsample_rejects_bad_fine_sites_before_lookup():
    """Fine sites are a tensor of their own: bad ones fail as it is built."""
    for fine_coords in ([[0, 0, 9]], [[-1, 0, 0]], [[2, 2, 2], [2, 2, 2]]):
        with pytest.raises(sparse.CoordinateError):
            sites(np.array(fine_coords), (4, 4, 4))


def add_at_reference(feats, kernel, bias, pairs, n_out, g):
    """tap_matmul_scatter forward and vjp written with np.add.at."""
    out = np.zeros((n_out, kernel.shape[2]))
    gf = np.zeros_like(feats)
    gk = np.zeros_like(kernel)
    for t, (rin, rout) in enumerate(expand_marker(pairs, len(feats))):
        if len(rin):
            np.add.at(out, rout, feats[rin] @ kernel[t])
            np.add.at(gf, rin, g[rout] @ kernel[t].T)
            gk[t] += feats[rin].T @ g[rout]
    return out + bias, gf, gk, g.sum(axis=0)


def test_tap_matmul_scatter_bit_exact_on_real_rulebooks():
    r = rng(21)
    t = face_sparse(r, (6, 8, 4), 60, cin=3)
    k = ad.Tensor(r.normal(size=(27, 3, 3)))
    coarse = sparse.strided_conv3d(t, k, ad.Tensor(np.zeros(3)))
    cases = [(t, rulebook_of(sparse.submanifold_conv3d, t), len(t)),
             (t, rulebook_of(sparse.strided_conv3d, t), len(coarse)),
             (coarse, rulebook_of(sparse.upsample_conv3d, coarse, t), len(t))]
    # relu-style features: negatives become -0.0, one channel entirely
    relu = t.features.data * (t.features.data > 0)
    relu[:, 1] = -0.0
    cases.append((sparse.SparseVoxelTensor(t.coords, relu, t.spatial_shape),
                  rulebook_of(sparse.submanifold_conv3d, t), len(t)))
    for src, pairs, n_out in cases:
        feats = ad.parameter(src.features.data.copy())
        kern = ad.parameter(r.normal(size=(27, 3, 4)))
        bias = ad.parameter(r.normal(size=4))
        g = r.normal(size=(n_out, 4))
        out = ad.tap_matmul_scatter(feats, kern, pairs, n_out, bias)
        ad.mul(out, ad.constant(g)).sum().backward()
        want = add_at_reference(feats.data, kern.data, bias.data, pairs, n_out, g)
        for got, ref in zip((out.data, feats.grad, kern.grad, bias.grad), want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))   # tells -0.0 from 0.0


# widths where BLAS takes a layout-dependent path (gemv for a width of 1)
@pytest.mark.parametrize("cin,cout", [(3, 4), (1, 128), (48, 1)])
def test_identity_tap_marker_matches_its_expanded_rows_byte_for_byte(cin, cout):
    r = rng(23)
    t = face_sparse(r, (16, 16, 8), 900, cin=cin)
    pairs = rulebook_of(sparse.submanifold_conv3d, t)
    assert pairs[13] is None
    relu = t.features.data * (t.features.data > 0)    # -0.0 where negative
    relu[:5] = -0.0
    kernel, bias = r.normal(size=(27, cin, cout)), r.normal(size=cout)
    g = r.normal(size=(len(t), cout))
    # C-ordered inputs, then column-major ones (a transposed view's layout)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        results = []
        for rulebook in (pairs, expand_marker(pairs, len(t))):
            feats, kern, b = (ad.parameter(a.copy(order="K"))
                              for a in (layout(relu), kernel, bias))
            out = ad.tap_matmul_scatter(feats, kern, rulebook, len(t), b)
            out.backward(layout(g))
            results.append((out.data, feats.grad, kern.grad, b.grad))
        for got, ref in zip(*results):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    with pytest.raises(ValueError, match="identity tap"):
        ad.tap_matmul_scatter(ad.Tensor(relu), ad.Tensor(kernel), pairs, len(t) + 1,
                              ad.Tensor(bias))


@pytest.mark.parametrize("conv", ["strided", "upsample"])
def test_strided_and_upsample_reject_wrong_kernel_shapes(conv):
    r = rng(24)
    t = random_sparse(r, shape=(4, 4, 4), n=12, cin=2)
    coarse = sparse.strided_conv3d(t, ad.Tensor(np.zeros((27, 2, 2))),
                                   ad.Tensor(np.zeros(2)))
    # (3, 3, 3, 2, 2) is the full block, no longer a kernel layout
    for shape in ((27, 3, 2), (26, 2, 2), (3, 3, 3, 2, 2), (27, 2), ()):
        kernel, bias = ad.Tensor(np.zeros(shape)), ad.Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="does not fit input"):
            if conv == "strided":
                sparse.strided_conv3d(t, kernel, bias)
            else:
                sparse.upsample_conv3d(coarse, t, kernel, bias)


def test_rulebook_cache_stays_within_its_byte_budget(monkeypatch):
    """Frame memos leave least recently used first while the key bytes held pass
    the budget, checked after every lookup; a held frame builds nothing, and one
    built again gives the same pairs."""
    budget = 1_000
    monkeypatch.setattr(sparse, "_FRAME_KEY_BYTES", budget)
    frames = sparse._FRAMES
    calls = []
    build = sparse._rulebook
    monkeypatch.setattr(sparse, "_rulebook", lambda *a: calls.append(a) or build(*a))
    r = rng(5)
    shape = (8, 8, 4)
    sets = [face_sparse(r, shape, int(n)).coords for n in r.integers(1, 40, size=10)]
    keys = [(shape, sparse.pack_coords(c, shape).tobytes()) for c in sets]
    first, order, rebuilt = {}, [], 0
    for i in r.integers(0, len(sets), size=80):
        held = keys[i] in frames
        t = sparse.frame_tensor(sets[i], np.ones((len(sets[i]), 2)), shape)
        order = [j for j in order if j != i] + [i]
        assert list(frames) == [keys[j] for j in order[-len(frames):]]   # the stalest go
        assert frames[keys[i]] is t._memo
        held_bytes = sum(len(key[1]) for key in frames)
        assert held_bytes <= budget
        # the stalest frame left goes only when the next older one would not fit
        older = [keys[j] for j in order[:-len(frames)]]
        assert not older or held_bytes + len(older[-1][1]) > budget
        before = len(calls)
        pairs = [rulebook_of(sparse.submanifold_conv3d, t), rulebook_of(sparse.strided_conv3d, t)]
        assert len(calls) - before == (0 if held else 2)
        rebuilt += not held and i in first
        for got, want in zip(pairs, first.setdefault(i, pairs)):
            assert_same_rulebook(got, want)
    assert rebuilt > 5 and len(frames) < len(sets)


# -- live taps -------------------------------------------------------------------


def test_live_taps_match_a_brute_force_pairing_search():
    r = rng(25)
    for _ in range(60):
        stride = int(r.integers(1, 3))
        out_shape = tuple(int(n) for n in r.integers(1, 4, size=3))
        in_shape = out_shape if stride == 1 else tuple(2 * n for n in out_shape)
        want = [t for t, off in enumerate(sparse.KERNEL_OFFSETS)
                if all(any(0 <= stride * o + d < n_in for o in range(n_out))
                       for d, n_in, n_out in zip(off, in_shape, out_shape))]
        assert sparse.live_taps(in_shape, out_shape, stride).tolist() == want
    assert len(sparse.live_taps((4, 4, 1), (4, 4, 1), 1)) == 9
    assert len(sparse.live_taps((8, 8, 2), (4, 4, 1), 2)) == 18
    assert len(sparse.live_taps((8, 8, 8), (4, 4, 4), 2)) == 27


@pytest.mark.parametrize("seed", [26, 27])
def test_convs_with_dropped_taps_equal_the_full_kernel_reference(seed):
    """Only the live taps of a full random kernel reach any output."""
    r = rng(seed)
    t = face_sparse(r, (6, 4, 2), 16, cin=3)
    full, full_c = r.normal(size=(27, 3, 2)), r.normal(size=(27, 2, 2))
    b = ad.Tensor(r.normal(size=2))
    coarse = sparse.strided_conv3d(
        t, ad.Tensor(full[sparse.live_taps((6, 4, 2), (3, 2, 1), 2)]), b)
    dense = dense_conv_oracle(t, full, b.data, stride=2)
    for row, (x, y, z) in enumerate(coarse.coords):
        np.testing.assert_allclose(coarse.features.data[row], dense[x, y, z], atol=1e-12)
    # the coarse grid is one voxel high: a submanifold conv keeps 9 taps
    sub = sparse.submanifold_conv3d(
        coarse, ad.Tensor(full_c[sparse.live_taps((3, 2, 1), (3, 2, 1), 1)]), b)
    dense = dense_conv_oracle(coarse, full_c, b.data)
    for row, (x, y, z) in enumerate(sub.coords):
        np.testing.assert_allclose(sub.features.data[row], dense[x, y, z], atol=1e-12)
    up = sparse.upsample_conv3d(coarse, t,
                                ad.Tensor(full_c[sparse.live_taps((6, 4, 2), (3, 2, 1), 2)]), b)
    np.testing.assert_allclose(up.features.data, upsample_reference(coarse, t.coords, full_c, b.data),
                               atol=1e-12)


def upsample_reference(coarse, fine_coords, full, bias):
    """fine[f] = bias + sum of coarse[o] @ full[t] over all 27 taps with 2o + off_t = f."""
    out = np.tile(bias, (len(fine_coords), 1))
    for fi, f in enumerate(fine_coords):
        for tap, off in enumerate(sparse.KERNEL_OFFSETS):
            cand = f - off
            rows, found = rows_of(coarse, cand // 2)
            if (cand % 2 == 0).all() and found[0]:
                out[fi] += coarse.features.data[rows[0]] @ full[tap]
    return out


def test_upsample_rulebook_cache_tells_fine_grid_heights_apart():
    """The same sites on grids of two heights pack to the same key bytes; the
    frame cache still gives each grid its own memo."""
    r = rng(28)
    fine_coords = np.array([[0, 0, 0], [1, 1, 0], [3, 2, 0], [2, 3, 0]])
    full, bias = r.normal(size=(27, 2, 3)), np.zeros(3)
    for fine_shape in ((4, 4, 4), (4, 4, 2)):   # 27 live taps, then 18
        fine = sparse.frame_tensor(fine_coords, r.normal(size=(4, 2)), fine_shape)
        coarse = strided_sites(fine)
        coarse = coarse.with_features(r.normal(size=(len(coarse), 2)))
        sub = sparse.submanifold_conv3d(
            fine, ad.Tensor(full[sparse.live_taps(fine_shape, fine_shape, 1)]), ad.Tensor(bias))
        dense = dense_conv_oracle(fine, full, bias)
        for row, (x, y, z) in enumerate(fine_coords):
            np.testing.assert_allclose(sub.features.data[row], dense[x, y, z], atol=1e-12)
        taps = sparse.live_taps(fine_shape, coarse.spatial_shape, 2)
        out = sparse.upsample_conv3d(coarse, fine, ad.Tensor(full[taps]), ad.Tensor(bias))
        np.testing.assert_allclose(out.features.data,
                                   upsample_reference(coarse, fine_coords, full, bias),
                                   atol=1e-12)
    assert len(sparse._FRAMES) == 2
