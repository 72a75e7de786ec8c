import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import cross_task as xt
from lidarmt import params as pp
from lidarmt.backbone import LinearUnit

from conftest import check_grads, check_grads_sampled, rng


def test_class_embedding_one_hot_is_classwise_mean():
    r = rng(0)
    feats = ad.Tensor(r.normal(size=(6, 4)))
    labels = np.array([0, 1, 1, 2, 0, 2])
    pred = np.eye(3)[labels]
    emb = xt.init_class_embedding(ad.Tensor(pred), feats)
    for k in range(3):
        np.testing.assert_allclose(emb.data[k], feats.data[labels == k].mean(axis=0),
                                   atol=1e-12)


def test_class_embedding_uniform_pred_is_global_mean():
    r = rng(1)
    feats = ad.Tensor(r.normal(size=(5, 3)))
    pred = np.full((5, 4), 0.25)
    emb = xt.init_class_embedding(ad.Tensor(pred), feats)
    for k in range(4):
        np.testing.assert_allclose(emb.data[k], feats.data.mean(axis=0), atol=1e-12)


def test_class_embedding_matches_bruteforce_weighted_mean():
    r = rng(2)
    raw = r.uniform(0.1, 1.0, size=(7, 5))
    pred = raw / raw.sum(axis=1, keepdims=True)
    feats = r.normal(size=(7, 3))
    emb = xt.init_class_embedding(ad.Tensor(pred), ad.Tensor(feats))
    for k in range(5):
        want = (pred[:, k:k + 1] * feats).sum(axis=0) / pred[:, k].sum()
        np.testing.assert_allclose(emb.data[k], want, atol=1e-12)


def test_class_embedding_degenerate_class_falls_back_to_global_mean():
    feats = ad.Tensor(np.arange(12.0).reshape(4, 3))
    pred = np.zeros((4, 3))
    pred[:, 0] = 1.0  # class 1 and 2 receive zero weight
    emb = xt.init_class_embedding(ad.Tensor(pred), feats)
    np.testing.assert_allclose(emb.data[1], feats.data.mean(axis=0))
    np.testing.assert_allclose(emb.data[2], feats.data.mean(axis=0))
    np.testing.assert_allclose(emb.data[0], feats.data.mean(axis=0))


def test_class_embedding_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        xt.init_class_embedding(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 2))))


def test_class_embedding_gradients():
    r = rng(3)
    raw = r.uniform(0.1, 1.0, size=(5, 3))
    logits = ad.parameter(np.log(raw))
    feats = ad.parameter(r.normal(size=(5, 4)))
    w = ad.constant(r.normal(size=(3, 4)))

    def f():
        return ad.mul(xt.init_class_embedding(ad.softmax(logits, axis=-1), feats), w).sum()

    check_grads(f, [logits, feats])


def _proposal_fixture(r, h=5, w=5, c=4, n_ctr=4):
    proj = LinearUnit(weight=ad.Tensor(np.eye(c)), bias=ad.Tensor(np.zeros(c)))
    pos = ad.Tensor(np.zeros((h * w, c)))
    bev = ad.Tensor(r.normal(size=(h * w, c)))
    return proj, pos, bev


def test_single_positive_cell_is_first_proposal():
    r = rng(4)
    proj, pos, bev = _proposal_fixture(r)
    hm = np.full((2, 5, 5), 0.01)
    hm[1, 2, 3] = 0.9
    out = xt.propose_centers(hm, bev, 4, proj, pos)
    assert tuple(out.positions[0]) == (3, 2)
    assert out.class_ids[0] == 2
    assert out.scores[0] == pytest.approx(0.9)


def test_equal_peaks_tie_break_by_linear_index():
    r = rng(5)
    proj, pos, bev = _proposal_fixture(r)
    hm = np.zeros((1, 5, 5))
    hm[0, 1, 1] = 0.8
    hm[0, 3, 3] = 0.8
    out = xt.propose_centers(hm, bev, 2, proj, pos)
    assert tuple(out.positions[0]) == (1, 1)   # smaller linearized index first
    assert tuple(out.positions[1]) == (3, 3)


def test_proposals_match_bruteforce_nms_oracle():
    r = rng(6)
    proj, pos, bev = _proposal_fixture(r)
    hm = r.uniform(0.0, 1.0, size=(3, 5, 5))
    n_ctr = 6
    out = xt.propose_centers(hm, bev, n_ctr, proj, pos)
    # oracle: suppress non-maxima with an explicit window scan, then sort
    k, h, w = hm.shape
    peaks = []
    for c in range(k):
        for y in range(h):
            for x in range(w):
                window = hm[c, max(0, y - 1):y + 2, max(0, x - 1):x + 2]
                if hm[c, y, x] >= window.max():
                    peaks.append(((c * h + y) * w + x, hm[c, y, x]))
    peaks.sort(key=lambda t: (-t[1], t[0]))
    want = [p[0] for p in peaks[:n_ctr]]
    got = [(int(c) - 1) * h * w + v * w + u
           for (u, v), c in zip(out.positions, out.class_ids)]
    assert got == want


def test_proposals_pad_from_global_scores():
    r = rng(7)
    proj, pos, bev = _proposal_fixture(r)
    hm = np.zeros((1, 5, 5))
    hm[0, 2, 2] = 1.0  # a single peak; everything else is a flat zero plateau
    out = xt.propose_centers(hm, bev, 3, proj, pos)
    assert len(out.positions) == 3
    assert tuple(out.positions[0]) == (2, 2)


def _decoder_fixture(r, k=3, m=5, c=4, width=4, heads=1, bev_hw=(4, 4)):
    h, w = bev_hw
    p = xt.init_cross_task(width, voxel_dim=c, bev_dim=c, grid_hw=bev_hw, rng=r,
                           n_layers=1, n_heads=heads, head_dim=width // heads,
                           ffn_hidden=8, window=3, zero_residual=False)
    eps = ad.Tensor(r.normal(size=(k, width)))
    voxels = ad.Tensor(r.normal(size=(m, c)))
    bev_rows = ad.Tensor(r.normal(size=(h * w, c)))
    return p, eps, voxels, bev_rows


def test_bidirectional_cross_attention_matches_hand_rolled_formulas():
    r = rng(8)
    k, m, c = 3, 5, 4
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=k, m=m, c=c, width=c, heads=1)
    layer = p.layers[0]
    # single head with identity output projection exposes the bare formulas
    for mha in (layer.class_cross, layer.inverse):
        mha.wo.data[:] = np.eye(c)
        mha.bo.data[:] = 0.0
        mha.bq.data[:] = 0.0
        mha.bk.data[:] = 0.0
        mha.bv.data[:] = 0.0

    got3 = xt.attend(eps, voxels, layer.class_cross)
    q = eps.data @ layer.class_cross.wq.data
    kk = voxels.data @ layer.class_cross.wk.data
    vv = voxels.data @ layer.class_cross.wv.data
    logits = q @ kk.T / np.sqrt(c)
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got3.data, attn @ vv, atol=1e-12)

    got4 = xt.attend(voxels, eps, layer.inverse)
    q4 = voxels.data @ layer.inverse.wq.data
    k4 = eps.data @ layer.inverse.wk.data
    v4 = eps.data @ layer.inverse.wv.data
    logits4 = q4 @ k4.T / np.sqrt(c)
    attn4 = np.exp(logits4 - logits4.max(axis=1, keepdims=True))
    attn4 /= attn4.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got4.data, attn4 @ v4, atol=1e-12)


def test_single_key_softmax_collapses_to_value_row():
    r = rng(9)
    c = 4
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=3, m=1, c=c, width=c, heads=1)
    mha = p.layers[0].class_cross
    mha.wo.data[:] = np.eye(c)
    mha.bo.data[:] = 0.0
    out = xt.attend(eps, voxels, mha)  # M = 1: every class gets the V row
    want = voxels.data @ mha.wv.data + mha.bv.data
    for row in out.data:
        np.testing.assert_allclose(row, want[0], atol=1e-12)

    p2, eps1, voxels5, _ = _decoder_fixture(r, k=1, m=5, c=c, width=c, heads=1)
    inv = p2.layers[0].inverse
    inv.wo.data[:] = np.eye(c)
    inv.bo.data[:] = 0.0
    out4 = xt.attend(voxels5, eps1, inv)  # K = 1: all voxel rows equal
    want4 = eps1.data @ inv.wv.data + inv.bv.data
    for row in out4.data:
        np.testing.assert_allclose(row, want4[0], atol=1e-12)


def test_masked_decoder_equals_segmentation_only_decoder():
    r = rng(10)
    h = w = 4
    p = xt.init_cross_task(6, voxel_dim=5, bev_dim=6, grid_hw=(h, w), rng=r,
                           n_layers=2, n_heads=2, head_dim=3, ffn_hidden=8, window=3,
                           zero_residual=False)
    eps = ad.Tensor(r.normal(size=(4, 6)))
    voxels = ad.Tensor(r.normal(size=(7, 5)))
    bev_rows = ad.Tensor(r.normal(size=(h * w, 6)))
    centers = xt.CenterQuerySet(queries=ad.Tensor(r.normal(size=(3, 6))),
                                positions=np.array([[0, 0], [1, 2], [3, 3]]),
                                scores=np.ones(3), class_ids=np.ones(3, dtype=int))
    e_masked, c_masked, v_masked = xt.decode_queries(
        eps, centers, voxels, bev_rows, (h, w), p, block_cross_task=True)
    e_only, _, v_only = xt.decode_queries(eps, None, voxels, bev_rows, (h, w), p)
    np.testing.assert_allclose(e_masked.data, e_only.data, atol=1e-10)
    np.testing.assert_allclose(v_masked.data, v_only.data, atol=1e-10)


def test_voxel_permutation_equivariance():
    r = rng(11)
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=3, m=6, c=4, width=4)
    e1, _, v1 = xt.decode_queries(eps, None, voxels, bev_rows, (4, 4), p)
    s1 = xt.dynamic_kernel_logits(ad.concat([voxels, v1], axis=1), e1, p.kernel_proj)
    perm = r.permutation(6)
    voxels_p = ad.Tensor(voxels.data[perm])
    e2, _, v2 = xt.decode_queries(eps, None, voxels_p, bev_rows, (4, 4), p)
    s2 = xt.dynamic_kernel_logits(ad.concat([voxels_p, v2], axis=1), e2, p.kernel_proj)
    np.testing.assert_allclose(e2.data, e1.data, atol=1e-10)
    np.testing.assert_allclose(v2.data, v1.data[perm], atol=1e-10)
    np.testing.assert_allclose(s2.data, s1.data[perm], atol=1e-10)


def test_empty_voxel_set_skips_cross_attention():
    r = rng(12)
    p, eps, _, bev_rows = _decoder_fixture(r, k=3, m=5, c=4, width=4)
    empty = ad.Tensor(np.empty((0, 4)))
    e, _, v = xt.decode_queries(eps, None, empty, bev_rows, (4, 4), p)
    assert e.data.shape == (3, 4)
    assert v.data.shape == (0, 4)


def test_dynamic_kernel_orthonormal_rows():
    c = 4
    eps = ad.Tensor(np.eye(c))  # orthonormal class rows
    phi = LinearUnit(weight=ad.Tensor(np.eye(2 * c)[:, :c] + np.eye(2 * c)[:, c:] * 0),
                     bias=ad.Tensor(np.zeros(c)))
    phi.weight.data[:] = np.vstack([np.eye(c), np.zeros((c, c))])
    v_r = ad.Tensor(np.hstack([np.eye(c)[[1]], np.zeros((1, c))]))  # phi(v_r) = eps row 1
    s = xt.dynamic_kernel_logits(v_r, eps, phi)
    want = np.zeros(c)
    want[1] = 1.0 / np.sqrt(c)
    np.testing.assert_allclose(s.data[0], want, atol=1e-12)


def test_dynamic_kernel_zero_embedding_gives_zero_logits():
    r = rng(13)
    phi = LinearUnit(weight=ad.Tensor(r.normal(size=(6, 3))), bias=ad.Tensor(np.zeros(3)))
    s = xt.dynamic_kernel_logits(ad.Tensor(r.normal(size=(4, 6))),
                                 ad.Tensor(np.zeros((5, 3))), phi)
    np.testing.assert_array_equal(s.data, np.zeros((4, 5)))


def test_dynamic_kernel_matches_matrix_oracle():
    r = rng(14)
    phi = LinearUnit(weight=ad.Tensor(r.normal(size=(6, 3))),
                     bias=ad.Tensor(r.normal(size=3)))
    v_r = r.normal(size=(4, 6))
    eps = r.normal(size=(5, 3))
    s = xt.dynamic_kernel_logits(ad.Tensor(v_r), ad.Tensor(eps), phi)
    want = (v_r @ phi.weight.data + phi.bias.data) @ eps.T / np.sqrt(3)
    np.testing.assert_allclose(s.data, want, atol=1e-12)


def test_full_layer_gradient_check():
    r = rng(15)
    h = w = 4
    p = xt.init_cross_task(4, voxel_dim=8, bev_dim=4, grid_hw=(h, w), rng=r,
                           n_layers=1, n_heads=2, head_dim=2, ffn_hidden=6, window=3,
                           zero_residual=False)
    eps = ad.parameter(r.normal(size=(3, 4)))
    voxels = ad.parameter(r.normal(size=(6, 8)))
    bev_rows = ad.parameter(r.normal(size=(h * w, 4)))
    centers = xt.CenterQuerySet(queries=ad.parameter(r.normal(size=(2, 4))),
                                positions=np.array([[1, 1], [2, 3]]),
                                scores=np.ones(2), class_ids=np.ones(2, dtype=int))
    wv = ad.constant(r.normal(size=(6, 8)))
    we = ad.constant(r.normal(size=(3, 4)))

    def f():
        e, cen, v = xt.decode_queries(eps, centers, voxels, bev_rows, (h, w), p)
        s = xt.dynamic_kernel_logits(ad.concat([voxels, v], axis=1), e, p.kernel_proj)
        return ad.mul(v, wv).sum() + ad.mul(e, we).sum() + ad.mul(s, ad.constant(
            np.ones((6, 3)))).sum()

    tensors = [eps, voxels, bev_rows, centers.queries] \
        + [t for _, t in pp.named_tensors(p.layers[0])] \
        + [t for _, t in pp.named_tensors(p.kernel_proj)]
    check_grads_sampled(f, tensors, n_per_tensor=3, rtol=1e-4, seed=2)


def _random_mha(r, q_dim, kv_dim, out_dim, heads, head_dim):
    """Attention parameters with every weight and bias drawn at random."""
    p = xt.init_mha(q_dim, kv_dim, out_dim, heads, head_dim, r)
    for t in (p.wo, p.bq, p.bk, p.bv, p.bo):
        t.data[:] = r.normal(size=t.data.shape)
    return p


def _attend_reference(q_in, kv_in, p, mask=None):
    """Per-head attention written out head by head, projections first."""
    q = q_in @ p.wq.data + p.bq.data
    k = kv_in @ p.wk.data + p.bk.data
    v = kv_in @ p.wv.data + p.bv.data
    heads = []
    for h in range(p.n_heads):
        cols = slice(h * p.head_dim, (h + 1) * p.head_dim)
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(p.head_dim)
        if mask is not None:
            logits = np.where(mask, -np.inf, logits)
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        heads.append(attn @ v[:, cols])
    return np.concatenate(heads, axis=1) @ p.wo.data + p.bo.data


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("tq,tk", [(3, 7), (7, 3), (5, 5)])
def test_attend_matches_multi_head_reference_with_biases(tq, tk, masked):
    r = rng(16)
    p = _random_mha(r, q_dim=4, kv_dim=6, out_dim=5, heads=3, head_dim=2)
    q_in = r.normal(size=(tq, 4))
    kv_in = r.normal(size=(tk, 6))
    mask = None
    if masked:
        mask = r.uniform(size=(tq, tk)) < 0.5
        mask[np.arange(tq), r.integers(0, tk, size=tq)] = False  # one key per row stays
    got = xt.attend(ad.Tensor(q_in), ad.Tensor(kv_in), p, mask)
    np.testing.assert_allclose(got.data, _attend_reference(q_in, kv_in, p, mask),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tq,tk", [(2, 5), (5, 2)])
def test_attend_gradients_in_both_fold_orders(tq, tk):
    r = rng(17)
    p = _random_mha(r, q_dim=3, kv_dim=4, out_dim=3, heads=2, head_dim=2)
    q_in = ad.parameter(r.normal(size=(tq, 3)))
    kv_in = ad.parameter(r.normal(size=(tk, 4)))
    mask = np.zeros((tq, tk), dtype=bool)
    mask[0, 1] = True
    w = ad.constant(r.normal(size=(tq, 3)))

    def f():
        return ad.mul(xt.attend(q_in, kv_in, p, mask), w).sum()

    check_grads(f, [q_in, kv_in] + [t for _, t in pp.named_tensors(p)])


def _window_rows(pos, h, w, radius):
    u, v = int(pos[0]), int(pos[1])
    us = np.arange(max(0, u - radius), min(w, u + radius + 1))
    vs = np.arange(max(0, v - radius), min(h, v + radius + 1))
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    return (vv.ravel() * w + uu.ravel()).astype(np.int64)


@pytest.mark.parametrize("side,window", [(8, 7), (4, 3)])
def test_center_window_attention_matches_per_query_loop(side, window):
    """The masked center attention equals attending each query to the cells
    of its own clipped window, one query at a time."""
    r = rng(18)
    c = 6
    p = xt.init_cross_task(c, voxel_dim=5, bev_dim=c, grid_hw=(side, side), rng=r,
                           n_layers=1, n_heads=2, head_dim=3, ffn_hidden=8,
                           window=window, zero_residual=False)
    layer = p.layers[0]
    for t in (layer.center_cross.bq, layer.center_cross.bk, layer.center_cross.bv,
              layer.center_cross.bo):
        t.data[:] = r.normal(size=t.data.shape)
    # identity self-attention and feed-forward leave only the center branch
    for t in (layer.self_attn.wo, layer.self_attn.bo, layer.ffn.w2, layer.ffn.b2):
        t.data[:] = 0.0
    last, mid = side - 1, side // 2
    positions = np.array([[0, 0], [last, 0], [0, last], [last, last],   # corners
                          [mid, 0], [0, mid], [last, mid], [mid, last],  # edges
                          [mid, mid], [1, mid - 1]])                     # centre
    eps = ad.Tensor(r.normal(size=(3, c)))
    cen = ad.Tensor(r.normal(size=(len(positions), c)))
    bev_rows = ad.Tensor(r.normal(size=(side * side, c)))
    _, got, _ = xt.cross_task_layer(eps, cen, None, bev_rows, positions, (side, side),
                                    layer, window)
    normed = ad.layer_norm(cen)
    want = np.concatenate([
        xt.attend(normed[np.array([qi])],
                  ad.gather_rows(bev_rows, _window_rows(pos, side, side, window // 2)),
                  layer.center_cross).data
        for qi, pos in enumerate(positions)])
    np.testing.assert_allclose(got.data, cen.data + want, rtol=1e-12, atol=1e-12)
