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


def dense_conv_oracle(t, kernel, bias, stride=1):
    """Zero-padded dense 3D correlation, evaluated on the full grid."""
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
    k = np.zeros((3, 3, 3, 4, 4))
    k[1, 1, 1] = np.eye(4)
    out = sparse.submanifold_conv3d(t, ad.Tensor(k), ad.Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.coords, t.coords)
    np.testing.assert_allclose(out.features.data, t.features.data, atol=1e-15)


def test_single_voxel_sees_only_center_tap():
    r = rng(1)
    k = ad.Tensor(r.normal(size=(3, 3, 3, 3, 2)))
    b = ad.Tensor(r.normal(size=2))
    t = sparse.SparseVoxelTensor(np.array([[2, 2, 2]]), r.normal(size=(1, 3)), (5, 5, 5))
    out = sparse.submanifold_conv3d(t, k, b)
    want = t.features.data[0] @ k.data[1, 1, 1] + b.data
    np.testing.assert_allclose(out.features.data[0], want, atol=1e-12)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_submanifold_matches_dense_oracle(seed):
    r = rng(seed)
    t = random_sparse(r, shape=(5, 5, 5), n=14, cin=3)
    k = ad.Tensor(r.normal(size=(3, 3, 3, 3, 4)))
    b = ad.Tensor(r.normal(size=4))
    out = sparse.submanifold_conv3d(t, k, b)
    dense = dense_conv_oracle(t, k.data, b.data)
    for row, (x, y, z) in enumerate(out.coords):
        np.testing.assert_allclose(out.features.data[row], dense[x, y, z], atol=1e-12)


def test_strided_single_voxel_coordinate_arithmetic():
    r = rng(5)
    t = sparse.SparseVoxelTensor(np.array([[4, 4, 2]]), r.normal(size=(1, 2)), (8, 8, 4))
    k = ad.Tensor(r.normal(size=(3, 3, 3, 2, 2)))
    out = sparse.strided_conv3d(t, k, ad.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.coords, [[2, 2, 1]])
    assert out.spatial_shape == (4, 4, 2)


def test_strided_merging_matches_dense_oracle():
    r = rng(6)
    coords = np.array([[2, 2, 2], [3, 3, 3], [0, 0, 0], [3, 2, 2]])
    t = sparse.SparseVoxelTensor(coords, r.normal(size=(4, 3)), (6, 6, 6))
    k = ad.Tensor(r.normal(size=(3, 3, 3, 3, 2)))
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
    out = sparse.strided_conv3d(t, ad.Tensor(np.zeros((3, 3, 3, 3, 2))),
                                ad.Tensor(np.zeros(2)))
    assert len(out) == 0
    assert out.spatial_shape == (2, 2, 2)


def test_strided_rejects_odd_shape():
    t = sparse.SparseVoxelTensor(np.array([[0, 0, 0]]), np.ones((1, 1)), (3, 4, 4))
    with pytest.raises(ValueError):
        sparse.strided_conv3d(t, ad.Tensor(np.zeros((3, 3, 3, 1, 1))),
                              ad.Tensor(np.zeros(1)))


def test_conv_gradients_match_finite_differences():
    r = rng(7)
    t = random_sparse(r, shape=(4, 4, 4), n=6, cin=2)
    k = ad.parameter(r.normal(size=(3, 3, 3, 2, 3)))
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
    coarse = random_sparse(r, shape=(2, 2, 2), n=3, cin=2)
    fine_coords = np.array([[0, 0, 0], [1, 0, 0], [2, 2, 2], [3, 3, 3]])
    k = ad.parameter(r.normal(size=(3, 3, 3, 2, 2)))
    b = ad.parameter(r.normal(size=2))
    out = sparse.upsample_conv3d(coarse, fine_coords, (4, 4, 4), k, b)
    np.testing.assert_array_equal(out.coords, fine_coords)
    # every fine site f receives coarse[o] iff 2o + t = f for some tap t
    for fi, f in enumerate(fine_coords):
        acc = b.data.copy()
        for off in sparse.KERNEL_OFFSETS:
            cand = f - off
            if (cand % 2 == 0).all():
                rows, found = coarse.rows_of(cand // 2)
                if found[0]:
                    tap = tuple(off + 1)
                    acc = acc + coarse.features.data[rows[0]] @ k.data[tap]
        np.testing.assert_allclose(out.features.data[fi], acc, atol=1e-12)
    w = ad.constant(r.normal(size=(4, 2)))

    def f():
        return ad.mul(sparse.upsample_conv3d(coarse, fine_coords, (4, 4, 4), k, b).features,
                      w).sum()

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


def test_coord_index_exact_lookup():
    r = rng(14)
    t = random_sparse(r, shape=(6, 6, 6), n=20, cin=1)
    index = t.coord_index
    for row in range(len(t)):
        assert index[tuple(t.coords[row])] == row
    rows, found = t.rows_of(t.coords)
    assert found.all()
    np.testing.assert_array_equal(rows, np.arange(len(t)))


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
        rows, found = t.rows_of(out_coords * stride + off)
        pairs.append((rows[found], np.nonzero(found)[0]))
    return pairs


def rows_of_up_pairs(coarse, fine_coords):
    """Reference transposed-conv rulebook: fine f takes coarse o where 2o + off = f."""
    pairs = []
    for off in sparse.KERNEL_OFFSETS:
        cand = fine_coords - off
        rows, found = coarse.rows_of(cand // 2)
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


def assert_same_unique_pairs(got, want):
    assert len(got) == len(want) == 27
    for (gin, gout), (win, wout) in zip(got, want):
        assert gin.dtype == win.dtype and gout.dtype == wout.dtype
        np.testing.assert_array_equal(gin, win)
        np.testing.assert_array_equal(gout, wout)
        assert len(np.unique(gin)) == len(gin)
        assert len(np.unique(gout)) == len(gout)


def up_rulebook(coarse, fine_coords, fine_shape):
    """The rulebook upsample_conv3d builds and caches for these sites."""
    sparse._RULEBOOK_CACHE.clear()
    cin = coarse.num_channels
    sparse.upsample_conv3d(coarse, fine_coords, fine_shape,
                           ad.Tensor(np.zeros((3, 3, 3, cin, 1))), ad.Tensor(np.zeros(1)))
    (key, (pairs, _size)), = sparse._RULEBOOK_CACHE.items()
    assert key[0] == "up"
    return pairs


def test_rulebooks_match_rows_of_reference():
    k = ad.Tensor(np.zeros((3, 3, 3, 2, 2)))
    b = ad.Tensor(np.zeros(2))
    for t, other in rulebook_cases():
        sparse._RULEBOOK_CACHE.clear()
        assert_same_unique_pairs(sparse._conv_pairs(t, t.coords, 1),
                                 rows_of_conv_pairs(t, t.coords, 1))
        coarse = sparse.strided_conv3d(t, k, b)
        assert_same_unique_pairs(sparse._conv_pairs(t, coarse.coords, 2),
                                 rows_of_conv_pairs(t, coarse.coords, 2))
        # transposed conv onto the encoder's own fine sites, and onto an
        # unrelated fine coordinate set (coarse sites with no fine child)
        for fine_coords in (t.coords, other):
            assert_same_unique_pairs(up_rulebook(coarse, fine_coords, t.spatial_shape),
                                     rows_of_up_pairs(coarse, fine_coords))


def test_upsample_rejects_bad_fine_sites_before_lookup():
    coarse = sparse.SparseVoxelTensor(np.array([[1, 1, 1]]), np.ones((1, 2)), (2, 2, 2))
    k = ad.Tensor(np.zeros((3, 3, 3, 2, 2)))
    b = ad.Tensor(np.zeros(2))
    for fine_coords in ([[0, 0, 9]], [[-1, 0, 0]], [[2, 2, 2], [2, 2, 2]]):
        with pytest.raises(sparse.CoordinateError):
            sparse.upsample_conv3d(coarse, np.array(fine_coords), (4, 4, 4), k, b)


def add_at_reference(feats, kernel, bias, pairs, n_out, g):
    """tap_matmul_scatter forward and vjp written with np.add.at."""
    out = np.zeros((n_out, kernel.shape[2]))
    gf = np.zeros_like(feats)
    gk = np.zeros_like(kernel)
    for t, (rin, rout) in enumerate(pairs):
        if len(rin):
            np.add.at(out, rout, feats[rin] @ kernel[t])
            np.add.at(gf, rin, g[rout] @ kernel[t].T)
            gk[t] += feats[rin].T @ g[rout]
    return out + bias, gf, gk, g.sum(axis=0)


def test_tap_matmul_scatter_bit_exact_on_real_rulebooks():
    r = rng(21)
    t = face_sparse(r, (6, 8, 4), 60, cin=3)
    k = ad.Tensor(r.normal(size=(3, 3, 3, 3, 3)))
    coarse = sparse.strided_conv3d(t, k, ad.Tensor(np.zeros(3)))
    cases = [(t, sparse._conv_pairs(t, t.coords, 1), len(t)),
             (t, sparse._conv_pairs(t, coarse.coords, 2), len(coarse)),
             (coarse, up_rulebook(coarse, t.coords, t.spatial_shape), len(t))]
    for src, pairs, n_out in cases:
        feats = ad.parameter(src.features.data.copy())
        kern = ad.parameter(r.normal(size=(27, 3, 4)))
        bias = ad.parameter(r.normal(size=4))
        g = r.normal(size=(n_out, 4))
        out = ad.tap_matmul_scatter(feats, kern, pairs, n_out, bias)
        ad.mul(out, ad.constant(g)).sum().backward()
        want = add_at_reference(feats.data, kern.data, bias.data, pairs, n_out, g)
        for got, ref in zip((out.data, feats.grad, kern.grad, bias.grad), want):
            assert np.array_equal(got, ref)


def test_rulebook_cache_stays_within_its_byte_budget(monkeypatch):
    budget = 20_000
    monkeypatch.setattr(sparse, "_RULEBOOK_CACHE", {})
    monkeypatch.setattr(sparse, "_RULEBOOK_CACHE_BYTES", budget)
    cache = sparse._RULEBOOK_CACHE

    def rebuild():
        raise AssertionError("a hit must not rebuild")

    r = rng(5)
    order = []                                      # least recently used first
    for i in range(60):
        n = int(r.integers(0, 150))
        order.append(key := ("conv", (8, 8, 8), 1, np.arange(n).tobytes(), bytes([i])))
        pairs = [(np.arange(n), np.arange(n))] * 2
        before = len(cache)
        assert sparse._cached(key, lambda: pairs) is pairs
        assert cache[key][1] == 8 * n + 1 + 4 * 8 * n   # key bytes plus index arrays
        assert len(cache) != before                 # the bench counts misses by this
        assert list(cache) == order[-len(cache):]   # the newest stays, the stalest go
        assert sum(size for _, size in cache.values()) <= budget
        stalest = next(iter(cache))
        want = cache[stalest][0]
        assert sparse._cached(stalest, rebuild) is want
        order.remove(stalest)
        order.append(stalest)
    assert len(cache) < 60
