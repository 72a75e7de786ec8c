import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import cross_space as xs
from lidarmt import params as pp
from lidarmt import sparse

from conftest import check_grads, check_grads_sampled, rng


def _sample_slice(m, locs):
    """Sample one (H, W, C) slice at fractional (u, v) rows."""
    return ad.bilinear_sample(ad.Tensor(m[None]), ad.Tensor(locs),
                              np.zeros(len(locs), dtype=np.int64))


def test_bilinear_integer_loc_returns_stored_value():
    r = rng(0)
    m = r.normal(size=(3, 4, 2))
    out = _sample_slice(m, np.array([[2.0, 1.0]]))
    np.testing.assert_array_equal(out.data[0], m[1, 2])


def test_bilinear_midpoint_of_2x2_is_mean():
    m = np.arange(4.0).reshape(2, 2, 1)
    out = _sample_slice(m, np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(out.data[0, 0], m.mean())


def test_bilinear_matches_independent_formula():
    r = rng(1)
    m = r.normal(size=(5, 6, 3))
    locs = np.column_stack([r.uniform(0, 5, 20), r.uniform(0, 4, 20)])
    out = _sample_slice(m, locs)
    for (u, v), got in zip(locs, out.data):
        u0, v0 = int(np.floor(u)), int(np.floor(v))
        du, dv = u - u0, v - v0
        want = ((1 - du) * (1 - dv) * m[v0, u0]
                + du * (1 - dv) * m[v0, u0 + 1]
                + (1 - du) * dv * m[v0 + 1, u0]
                + du * dv * m[v0 + 1, u0 + 1])
        np.testing.assert_allclose(got, want, atol=1e-12)


def _attn_params(r, c=6, heads=2, dh=5, points=3, heights=2):
    return xs.init_deform_attn(c, heads, dh, points, heights, r)


def test_degenerate_attention_is_projected_height_mean():
    r = rng(2)
    p = _attn_params(r)
    p.offset_b.data[:] = 0.0  # zero offsets, weights already uniform at init
    maps = ad.Tensor(r.normal(size=(2, 4, 4, 6)))
    refs = np.array([[1.0, 2.0], [3.0, 0.0]])
    q = ad.Tensor(r.normal(size=(2, 6)))
    out = xs.mh_deform_attn(q, refs, maps, p)
    for k, (u, v) in enumerate(refs.astype(int)):
        height_mean = maps.data[:, v, u].mean(axis=0)  # mean over heights at ref
        want = (height_mean @ p.value_w.data) @ p.out_w.data
        np.testing.assert_allclose(out.data[k], want, atol=1e-10)


def test_scalar_case_matches_hand_expansion():
    r = rng(3)
    p = xs.init_deform_attn(4, 1, 3, 1, 1, r)
    p.offset_w.data[:] = r.normal(size=p.offset_w.data.shape) * 0.3
    p.offset_b.data[:] = [0.37, -0.21]
    maps = ad.Tensor(r.normal(size=(1, 5, 5, 4)))
    refs = np.array([[2.2, 1.7]])
    q = ad.Tensor(r.normal(size=(1, 4)))
    out = xs.mh_deform_attn(q, refs, maps, p)
    # single (head, height, point): softmax weight is exactly 1
    off = q.data[0] @ p.offset_w.data + p.offset_b.data
    loc = refs[0] + off
    u0, v0 = int(np.floor(loc[0])), int(np.floor(loc[1]))
    du, dv = loc[0] - u0, loc[1] - v0
    x = ((1 - du) * (1 - dv) * maps.data[0, v0, u0]
         + du * (1 - dv) * maps.data[0, v0, u0 + 1]
         + (1 - du) * dv * maps.data[0, v0 + 1, u0]
         + du * dv * maps.data[0, v0 + 1, u0 + 1])
    want = (x @ p.value_w.data) @ p.out_w.data
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_equal_logits_give_uniform_weights():
    r = rng(4)
    p = _attn_params(r)
    q = ad.Tensor(r.normal(size=(3, 6)))
    logits = q @ p.logit_w + p.logit_b  # zero generator -> all equal
    w = ad.softmax(ad.reshape(logits, (3, 2, 6)), axis=-1)
    np.testing.assert_allclose(w.data, 1.0 / 6.0, atol=1e-6)


def test_attention_weight_rows_sum_to_one_nontrivial():
    r = rng(5)
    p = _attn_params(r)
    p.logit_w.data[:] = r.normal(size=p.logit_w.data.shape)
    maps = ad.Tensor(r.normal(size=(2, 4, 4, 6)))
    q = ad.Tensor(r.normal(size=(4, 6)))
    refs = np.column_stack([r.uniform(0.2, 3.0, 4), r.uniform(0.2, 3.0, 4)])
    col = xs.OffsetCollector()
    xs.mh_deform_attn(q, refs, maps, p, col)
    weights = col.stacked()[:, 8].reshape(4, 2, 6)  # (query, head, height * point)
    assert np.ptp(weights) > 0.1  # far from the uniform weights of init
    np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-12)


def test_mh_deform_attn_gradients():
    r = rng(6)
    p = xs.init_deform_attn(4, 2, 3, 2, 2, r)
    p.offset_w.data[:] = 0.1 * r.normal(size=p.offset_w.data.shape)
    p.logit_w.data[:] = 0.5 * r.normal(size=p.logit_w.data.shape)
    maps = ad.parameter(r.normal(size=(2, 4, 4, 4)))
    q = ad.parameter(r.normal(size=(2, 4)))
    refs = np.array([[1.3, 1.6], [2.4, 0.7]])  # fractional: away from kinks
    w = ad.constant(r.normal(size=(2, 4)))
    tensors = [q, maps, p.offset_w, p.offset_b, p.logit_w, p.logit_b,
               p.value_w, p.out_w]

    def f():
        return ad.mul(xs.mh_deform_attn(q, refs, maps, p), w).sum()

    check_grads(f, tensors, rtol=1e-4)


def _per_head_deform_attn(queries, refs, maps, p):
    """mh_deform_attn with one bilinear_sample call per head, then a concat."""
    q_count = queries.data.shape[0]
    nh, dh, j, r = p.n_heads, p.head_dim, p.n_heights, p.n_points
    off = ad.reshape(queries @ p.offset_w + p.offset_b, (q_count, nh, j, r, 2))
    off = ad.transpose(off, (1, 0, 2, 3, 4))
    logits = ad.reshape(queries @ p.logit_w + p.logit_b, (q_count, nh, j * r))
    weights = ad.reshape(ad.softmax(logits, axis=-1), (q_count, nh, j, r))
    weights = ad.transpose(weights, (1, 0, 2, 3))
    locs = ad.add(ad.constant(refs.reshape(1, q_count, 1, 1, 2)), off)
    hgt, wid = maps.data.shape[1:3]
    vmaps = ad.reshape(maps, (j * hgt * wid, maps.data.shape[3])) @ p.value_w
    vmaps = ad.transpose(ad.reshape(vmaps, (j, hgt, wid, nh, dh)), (3, 0, 1, 2, 4))
    slice_id = np.tile(np.repeat(np.arange(j), r), q_count)
    head_outs = []
    for i in range(nh):
        samples = ad.bilinear_sample(vmaps[i], ad.reshape(locs[i], (q_count * j * r, 2)),
                                     slice_id)
        samples = ad.reshape(samples, (q_count, j * r, dh))
        w_i = ad.reshape(weights[i], (q_count, j * r, 1))
        head_outs.append(ad.reduce_sum(ad.mul(samples, w_i), axis=1))
    return ad.concat(head_outs, axis=1) @ p.out_w


def test_folded_heads_match_per_head_loop_bit_exact():
    r = rng(15)
    p = xs.init_deform_attn(5, 3, 4, 3, 2, r)
    p.offset_w.data[:] = 0.5 * r.normal(size=p.offset_w.data.shape)
    p.offset_b.data[:] = r.uniform(-3.0, 3.0, p.offset_b.data.shape)
    p.logit_w.data[:] = r.normal(size=p.logit_w.data.shape)
    p.logit_b.data[:] = r.normal(size=p.logit_b.data.shape)
    maps = ad.parameter(r.normal(size=(2, 4, 6, 5)))
    q = ad.parameter(r.normal(size=(7, 5)))
    refs = np.column_stack([r.uniform(0, 5, 7), r.uniform(0, 3, 7)])
    w = ad.constant(r.normal(size=(7, 5)))
    tensors = [q, maps, p.offset_w, p.offset_b, p.logit_w, p.logit_b, p.value_w, p.out_w]

    col = xs.OffsetCollector()
    runs = []
    for fn in (lambda: xs.mh_deform_attn(q, refs, maps, p, col),
               lambda: _per_head_deform_attn(q, refs, maps, p)):
        for t in tensors:
            t.grad = None
        out = fn()
        ad.mul(out, w).sum().backward()
        runs.append([out.data] + [t.grad for t in tensors])
    rows = col.stacked()
    locs = rows[:, 0:2] + rows[:, 6:8]
    outside = (locs < 0).any(axis=1) | (locs[:, 0] > 5) | (locs[:, 1] > 3)
    assert 0 < outside.sum() < len(locs)  # some samples fall past the map edge
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)


def _small_stack(r, channels=6, grid=(4, 4), heights=2):
    return xs.init_cross_space(channels, grid, heights, r, n_heads=2,
                               head_dim_d2s=4, head_dim_s2d=4, n_points=2,
                               ffn_hidden=8)


def test_dense_to_sparse_identity_when_residual_branches_zeroed():
    r = rng(7)
    p = _small_stack(r)
    for blk in p.d2s_blocks:
        blk.attn.out_w.data[:] = 0.0
        blk.ffn.w2.data[:] = 0.0
        blk.ffn.b2.data[:] = 0.0
    bev = ad.Tensor(r.normal(size=(12, 4, 4)))
    coords = np.array([[0, 1, 0], [3, 2, 1], [1, 1, 1]])
    out = xs.dense_to_sparse(bev, coords, p)
    dense3d = bev.data.reshape(2, 6, 4, 4)
    for k, (u, v, h) in enumerate(coords):
        np.testing.assert_allclose(out.data[k], dense3d[h, :, v, u], atol=1e-12)


def test_dense_to_sparse_row_count_contract():
    r = rng(8)
    p = _small_stack(r)
    bev = ad.Tensor(r.normal(size=(12, 4, 4)))
    coords = np.array([[0, 0, 0], [1, 2, 1], [2, 3, 0], [3, 3, 1], [2, 2, 0]])
    out = xs.dense_to_sparse(bev, coords, p)
    assert out.data.shape == (5, 6)


def test_dense_to_sparse_locality_at_zero_offsets():
    r = rng(9)
    p = _small_stack(r, grid=(8, 8))
    feats = r.normal(size=(12, 8, 8))
    coords = np.array([[4, 4, 0]])
    out1 = xs.dense_to_sparse(ad.Tensor(feats), coords, p)
    far = feats.copy()
    for v in range(8):
        for u in range(8):
            if max(abs(u - 4), abs(v - 4)) > 2:
                far[:, v, u] = 0.0
    out2 = xs.dense_to_sparse(ad.Tensor(far), coords, p)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_dense_to_sparse_rejects_out_of_range_coordinate():
    r = rng(10)
    p = _small_stack(r)
    bev = ad.Tensor(r.normal(size=(12, 4, 4)))
    for coord in ([4, 0, 0], [0, 4, 0], [0, 0, 2], [-1, 0, 0], [0, -1, 0], [0, 0, -1]):
        with pytest.raises(ValueError, match="outside the dense BEV extent"):
            xs.dense_to_sparse(bev, np.array([[0, 0, 0], coord]), p)


def test_sparse_to_dense_empty_input_zero_biases_gives_zero_map():
    r = rng(11)
    p = _small_stack(r)
    p.pos_emb.data[:] = 0.0
    t = sparse.SparseVoxelTensor(np.empty((0, 3)), np.empty((0, 6)), (4, 4, 2))
    out = xs.sparse_to_dense(t, p)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)
    assert out.data.shape == (12, 4, 4)


def test_sparse_to_dense_shape_contract():
    r = rng(12)
    p = _small_stack(r)
    t = sparse.SparseVoxelTensor(np.array([[1, 2, 0], [3, 0, 1]]),
                                 r.normal(size=(2, 6)), (4, 4, 2))
    out = xs.sparse_to_dense(t, p)
    assert out.data.shape == (2 * 6, 4, 4)
    assert p.n_heights == 2


def test_cross_space_block_gradients():
    r = rng(13)
    p = xs.init_cross_space(3, (4, 4), 2, r, n_heads=2, head_dim_d2s=2,
                            head_dim_s2d=2, n_points=2, ffn_hidden=4, n_blocks=1)
    for blk in p.s2d_blocks:
        # push sample locations off the integer lattice (bilinear kinks)
        blk.attn.offset_b.data[:] = r.uniform(0.15, 0.45, blk.attn.offset_b.data.shape) \
            * r.choice([-1.0, 1.0], blk.attn.offset_b.data.shape)
        blk.attn.logit_w.data[:] = 0.3 * r.normal(size=blk.attn.logit_w.data.shape)
    t = sparse.SparseVoxelTensor(np.array([[1, 2, 0], [3, 0, 1], [2, 2, 1]]),
                                 ad.parameter(r.normal(size=(3, 3))), (4, 4, 2))
    w = ad.constant(r.normal(size=(6, 4, 4)))
    tensors = [t.features] + [x for _, x in pp.named_tensors(p.s2d_blocks)] + [p.pos_emb]

    def f():
        return ad.mul(xs.sparse_to_dense(t, p), w).sum()

    check_grads_sampled(f, tensors, n_per_tensor=3, rtol=1e-4, seed=3)


def test_offset_collector_counts_and_finiteness():
    r = rng(14)
    p = _small_stack(r)
    bev = ad.Tensor(r.normal(size=(12, 4, 4)))
    coords = np.array([[0, 0, 0], [1, 2, 1], [3, 3, 1]])
    col = xs.OffsetCollector()
    xs.dense_to_sparse(bev, coords, p, collector=col)
    rows = col.stacked()
    # per block: queries * heads * heights * points
    per_block = 3 * 2 * 2 * 2
    assert len(rows) == per_block * len(p.d2s_blocks)
    assert np.isfinite(rows).all()
    assert rows.shape[1] == 9
