import dataclasses

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import cross_task as xt
from lidarmt import params as pp
from lidarmt.backbone import LinearUnit

from conftest import check_grads, check_grads_sampled, live_cross_task, rng


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
    proj, pos, bev = _proposal_fixture(r, h=5, w=7)
    hm = r.uniform(0.0, 1.0, size=(3, 5, 7))
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


def _decoder_fixture(r, k=3, m=5, c=4, width=4, heads=1, bev_hw=(4, 4), window=3):
    h, w = bev_hw
    p = live_cross_task(xt.init_cross_task(
        width, voxel_dim=c, bev_dim=c, grid_hw=bev_hw, rng=r, n_layers=1, n_heads=heads,
        head_dim=width // heads, ffn_hidden=8, window=window), r)
    eps = ad.Tensor(r.normal(size=(k, width)))
    voxels = ad.Tensor(r.normal(size=(m, c)))
    bev_rows = ad.Tensor(r.normal(size=(h * w, c)))
    return p, eps, voxels, bev_rows


def _center_queries(r, width, positions):
    return xt.CenterQuerySet(queries=ad.Tensor(r.normal(size=(len(positions), width))),
                             positions=np.asarray(positions), scores=np.ones(len(positions)),
                             class_ids=np.ones(len(positions), dtype=int))


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


def test_center_queries_reach_classes_and_voxels_only_through_self_attention():
    """The shared self-attention is the one cross-task link: with its output
    projection zeroed, perturbing the center queries moves neither the class
    embedding nor the voxel features; with it drawn, both move."""
    r = rng(10)
    h = w = 4
    p = live_cross_task(xt.init_cross_task(6, voxel_dim=5, bev_dim=6, grid_hw=(h, w), rng=r,
                                           n_layers=2, n_heads=2, head_dim=3, ffn_hidden=8,
                                           window=3), r)
    eps = ad.Tensor(r.normal(size=(4, 6)))
    voxels = ad.Tensor(r.normal(size=(7, 5)))
    bev_rows = ad.Tensor(r.normal(size=(h * w, 6)))
    centers = _center_queries(r, 6, [[0, 0], [1, 2], [3, 3]])
    moved = dataclasses.replace(centers, queries=ad.Tensor(centers.queries.data
                                                           + r.normal(size=(3, 6))))

    def decode(cen):
        e, _, v = xt.decode_queries(eps, cen, voxels, bev_rows, (h, w), p)
        return e.data, v.data

    (e1, v1), (e2, v2) = decode(centers), decode(moved)
    assert not np.allclose(e1, e2) and not np.allclose(v1, v2)
    for layer in p.layers:
        layer.self_attn.wo.data[:] = 0.0
        layer.self_attn.bo.data[:] = 0.0
    (e1, v1), (e2, v2) = decode(centers), decode(moved)
    np.testing.assert_allclose(e2, e1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v2, v1, rtol=0, atol=1e-12)


def test_voxel_permutation_equivariance():
    r = rng(11)
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=3, m=6, c=4, width=4)
    centers = _center_queries(r, 4, [[0, 1], [2, 3]])
    e1, c1, v1 = xt.decode_queries(eps, centers, voxels, bev_rows, (4, 4), p)
    s1 = xt.dynamic_kernel_logits(ad.concat([voxels, v1], axis=1), e1, p.kernel_proj)
    perm = r.permutation(6)
    voxels_p = ad.Tensor(voxels.data[perm])
    e2, c2, v2 = xt.decode_queries(eps, centers, voxels_p, bev_rows, (4, 4), p)
    s2 = xt.dynamic_kernel_logits(ad.concat([voxels_p, v2], axis=1), e2, p.kernel_proj)
    np.testing.assert_allclose(e2.data, e1.data, atol=1e-10)
    np.testing.assert_allclose(c2.data, c1.data, atol=1e-10)
    np.testing.assert_allclose(v2.data, v1.data[perm], atol=1e-10)
    np.testing.assert_allclose(s2.data, s1.data[perm], atol=1e-10)


def test_layer_normalises_each_input_once(monkeypatch):
    """The query and key sides of the self-attention share one layer norm."""
    r = rng(16)
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=3, m=5, c=4, width=4)
    centers = ad.Tensor(r.normal(size=(2, 4)))
    inputs = []
    layer_norm = ad.layer_norm
    monkeypatch.setattr(ad, "layer_norm", lambda x: inputs.append(x) or layer_norm(x))
    xt.cross_task_layer(eps, centers, voxels, bev_rows, np.array([[0, 0], [2, 3]]), (4, 4),
                        p.layers[0], window=3)
    assert len(inputs) == len({id(x) for x in inputs}) == 5


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
    p = live_cross_task(xt.init_cross_task(4, voxel_dim=8, bev_dim=4, grid_hw=(h, w), rng=r,
                                           n_layers=1, n_heads=2, head_dim=2, ffn_hidden=6,
                                           window=3), r)
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
    for t in (p.wo, p.bq, p.bv, p.bo):
        t.data[:] = r.normal(size=t.data.shape)
    return p


def _attend_reference(q_in, kv_in, p, key_bias, mask=None):
    """Per-head attention written out head by head, projections first, with a
    key bias that `attend` leaves out."""
    q = q_in @ p.wq.data + p.bq.data
    k = kv_in @ p.wk.data + key_bias
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
    # q . b_k is the same for every key of a row, so any key bias cancels
    key_bias = r.normal(size=p.wk.data.shape[1])
    got = xt.attend(ad.Tensor(q_in), ad.Tensor(kv_in), p, mask)
    np.testing.assert_allclose(got.data,
                               _attend_reference(q_in, kv_in, p, key_bias, mask),
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


@pytest.mark.parametrize("w,window", [(8, 7), (4, 3)])
def test_center_window_attention_matches_per_query_loop(w, window):
    """The masked center attention equals attending each query to the cells
    of its own clipped window, one query at a time, on a BEV three cells
    taller than wide."""
    r = rng(18)
    c, h = 6, w + 3
    p, eps, voxels, bev_rows = _decoder_fixture(r, k=3, m=4, c=c, width=c, heads=2,
                                                bev_hw=(h, w), window=window)
    layer = p.layers[0]
    for t in (layer.center_cross.bq, layer.center_cross.bv, layer.center_cross.bo):
        t.data[:] = r.normal(size=t.data.shape)
    # identity self-attention and feed-forward leave only the center branch
    for t in (layer.self_attn.wo, layer.self_attn.bo, layer.ffn.w2, layer.ffn.b2):
        t.data[:] = 0.0
    positions = np.array([[0, 0], [w - 1, 0], [0, h - 1], [w - 1, h - 1],           # corners
                          [w // 2, 0], [0, h // 2], [w - 1, h // 2], [w // 2, h - 1],  # edges
                          [w // 2, h // 2], [1, h // 2 - 1]])                          # centre
    cen = ad.Tensor(r.normal(size=(len(positions), c)))
    _, got, _ = xt.cross_task_layer(eps, cen, voxels, bev_rows, positions, (h, w),
                                    layer, window)
    normed = ad.layer_norm(cen)
    want = np.concatenate([
        xt.attend(normed[np.array([qi])],
                  ad.gather_rows(bev_rows, _window_rows(pos, h, w, window // 2)),
                  layer.center_cross).data
        for qi, pos in enumerate(positions)])
    np.testing.assert_allclose(got.data, cen.data + want, rtol=1e-12, atol=1e-12)


def _transposed(x, shape):
    """C-ordered copy of x.T as `shape` in both passes: no GEMM sees a transposed operand."""
    x = ad.reshape(ad.reshape(x, (-1,)), x.data.shape)    # the backward flattens here
    return ad.reshape(ad.reshape(ad.transpose(x, (1, 0)), (-1,)), shape)


def _split_heads(x, nh, dh):
    """(rows, nh * dh) -> (nh, rows, dh), for activations and weights alike."""
    return ad.transpose(ad.reshape(x, (-1, nh, dh)), (1, 0, 2))


def _attend_composed(q_in, kv_in, p, mask=None):
    """`attend` as it was when built from 25 to 37 tape primitives: the byte
    reference for the one-node form, forward and gradients."""
    tq, tk = q_in.data.shape[0], kv_in.data.shape[0]
    nh, dh = p.n_heads, p.head_dim
    scale = ad.constant(1.0 / np.sqrt(dh))
    blocked = None if mask is None else np.where(mask, -1e30, 0.0)
    if tq <= tk:
        q = ad.mul(_split_heads(q_in @ p.wq + p.bq, nh, dh), scale)
        q_wk = ad.transpose(_split_heads(p.wk, nh, dh) @ ad.transpose(q, (0, 2, 1)),
                            (0, 2, 1))
        logits = ad.reshape(q_wk, (nh * tq, -1)) @ ad.transpose(kv_in, (1, 0))
        if blocked is not None:
            logits = logits + ad.constant(np.tile(blocked, (nh, 1)))
        attn_kv = ad.reshape(ad.softmax(logits, axis=-1) @ kv_in, (nh, tq, -1))
        ctx = attn_kv @ _split_heads(p.wv, nh, dh) + ad.reshape(p.bv, (nh, 1, dh))
        return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tq, nh * dh)) @ p.wo + p.bo
    k_t = ad.transpose(ad.mul(_split_heads(kv_in @ p.wk, nh, dh), scale), (0, 2, 1))
    wq_k = ad.transpose(_split_heads(p.wq, nh, dh) @ k_t, (1, 0, 2))
    bq_k = ad.reshape(p.bq, (nh, 1, dh)) @ k_t
    logits = _transposed(q_in @ ad.reshape(wq_k, (-1, nh * tk))
                         + ad.reshape(bq_k, (1, nh * tk)), (nh, tk, tq))
    if blocked is not None:
        logits = logits + ad.constant(blocked.T[None])
    v_wo = _split_heads(kv_in @ p.wv + p.bv, nh, dh) @ ad.reshape(p.wo, (nh, dh, -1))
    attn = _transposed(ad.reshape(ad.softmax(logits, axis=1), (nh * tk, tq)), (tq, nh * tk))
    return attn @ ad.reshape(v_wo, (nh * tk, -1)) + p.bo


def _attend_keys_trailing(q_in, kv_in, p, mask=None):
    """The few-key branch of `attend` with the key axis trailing, softmax over
    (tq, nh, tk) logits: the byte reference for the keys-leading layout."""
    tq, tk = q_in.data.shape[0], kv_in.data.shape[0]
    nh, dh = p.n_heads, p.head_dim
    scale = ad.constant(1.0 / np.sqrt(dh))
    k_t = ad.transpose(ad.mul(_split_heads(kv_in @ p.wk, nh, dh), scale), (0, 2, 1))
    wq_k = ad.transpose(_split_heads(p.wq, nh, dh) @ k_t, (1, 0, 2))
    bq_k = ad.reshape(p.bq, (nh, 1, dh)) @ k_t
    logits = ad.reshape(q_in @ ad.reshape(wq_k, (-1, nh * tk))
                        + ad.reshape(bq_k, (1, nh * tk)), (tq, nh, tk))
    if mask is not None:
        logits = logits + ad.constant(np.where(mask, -1e30, 0.0)[:, None, :])
    v_wo = _split_heads(kv_in @ p.wv + p.bv, nh, dh) @ ad.reshape(p.wo, (nh, dh, -1))
    attn = ad.reshape(ad.softmax(logits, axis=-1), (tq, nh * tk))
    return attn @ ad.reshape(v_wo, (nh * tk, -1)) + p.bo


def _few_key_cases(tk, seed):
    """(q_in, kv_in, params, mask, output weights) with more queries than keys,
    over tq, 1-4 heads and with or without a mask, all weights random."""
    r = rng(seed)
    for tq in (tk + 1, 37, 300):
        for heads in (1, 2, 3, 4):
            for masked in (False, True):
                p = _random_mha(r, q_dim=24, kv_dim=16, out_dim=20, heads=heads, head_dim=8)
                q_in = ad.parameter(r.normal(size=(tq, 24)))
                kv_in = ad.parameter(r.normal(size=(tk, 16)))
                mask = None
                if masked:
                    mask = r.uniform(size=(tq, tk)) < 0.4
                    mask[np.arange(tq), r.integers(0, tk, size=tq)] = False
                yield q_in, kv_in, p, mask, r.normal(size=(tq, 20))


def _within(got, ref, rel):
    """Every entry within rel of the largest reference magnitude."""
    return np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("tk", range(1, 8))
def test_few_key_attend_is_byte_identical_to_trailing_keys(tk):
    for q_in, kv_in, p, mask, _ in _few_key_cases(tk, seed=30 + tk):
        got = xt.attend(q_in, kv_in, p, mask).data
        ref = _attend_keys_trailing(q_in, kv_in, p, mask).data
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("tk", range(8, 13))
def test_few_key_attend_from_8_keys_is_within_rounding(tk):
    for q_in, kv_in, p, mask, _ in _few_key_cases(tk, seed=30 + tk):
        got = xt.attend(q_in, kv_in, p, mask).data
        assert _within(got, _attend_keys_trailing(q_in, kv_in, p, mask).data, 1e-14)


@pytest.mark.parametrize("tk", [1, 3, 6, 7, 8, 12])
def test_few_key_attend_gradients_match_trailing_keys(tk):
    """Byte-equal up to 7 keys: every GEMM, forward and backward, sees the
    operand layout of the trailing-key form."""
    for q_in, kv_in, p, mask, w in _few_key_cases(tk, seed=50 + tk):
        tensors = [q_in, kv_in] + [t for _, t in pp.named_tensors(p)]
        grads = []
        for fn in (xt.attend, _attend_keys_trailing):
            for t in tensors:
                t.grad = None
            ad.mul(fn(q_in, kv_in, p, mask), ad.constant(w)).sum().backward()
            grads.append([t.grad for t in tensors])
        for got, ref in zip(*grads):
            assert _within(got, ref, 1e-12)
            if tk <= 7:
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_few_key_softmax_runs_along_a_leading_key_axis(monkeypatch):
    """The few-key softmax reduces axis 1 of a C-contiguous (nh, tk, tq)
    array; a trailing short key axis is several times slower in numpy."""
    seen = []
    softmax = ad.softmax_array

    def spy(x, axis):
        seen.append((axis, x.shape, x.flags.c_contiguous))
        return softmax(x, axis)

    monkeypatch.setattr(ad, "softmax_array", spy)
    for q_in, kv_in, p, mask, _ in _few_key_cases(6, seed=70):
        seen.clear()
        xt.attend(q_in, kv_in, p, mask)
        assert seen == [(1, (p.n_heads, 6, q_in.data.shape[0]), True)]


def _fused_cases(tk, seed):
    """(q_in, kv_in, params, mask, output weights) in both fold branches
    (tq from 1 to 37), 1-4 heads, with and without a mask, and self-attention
    attend(x, x), whose mask keeps each row's own key."""
    r = rng(seed)
    for heads in (1, 2, 3, 4):
        for masked in (False, True):
            tqs = sorted({1, (tk + 1) // 2, tk, tk + 1, 37})
            for tq, self_attn in [(tq, False) for tq in tqs] + [(tk, True)]:
                q_dim = 16 if self_attn else 24
                p = _random_mha(r, q_dim=q_dim, kv_dim=16, out_dim=20, heads=heads,
                                head_dim=8)
                q_in = ad.parameter(r.normal(size=(tq, q_dim)))
                kv_in = q_in if self_attn else ad.parameter(r.normal(size=(tk, 16)))
                mask = None
                if masked:
                    mask = r.uniform(size=(tq, tk)) < 0.4
                    keep = np.arange(tq) if self_attn else r.integers(0, tk, size=tq)
                    mask[np.arange(tq), keep] = False
                yield q_in, kv_in, p, mask, r.normal(size=(tq, 20))


@pytest.mark.parametrize("tk", range(1, 13))
def test_attend_is_byte_identical_to_composed_form(tk):
    """One tape node, and the forward and every gradient equal the composed
    tape's in every bit, self-attention's three-term input gradient included."""
    for q_in, kv_in, p, mask, w in _fused_cases(tk, seed=90 + tk):
        tensors = [q_in] + ([] if kv_in is q_in else [kv_in]) \
            + [t for _, t in pp.named_tensors(p)]
        results = []
        for fn in (xt.attend, _attend_composed):
            for t in tensors:
                t.grad = None
            out = fn(q_in, kv_in, p, mask)
            ad.mul(out, ad.constant(w)).sum().backward()
            results.append([out.data] + [t.grad for t in tensors])
        for a, b in zip(*results):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_attend_records_one_tape_node():
    r = rng(19)
    p = _random_mha(r, q_dim=6, kv_dim=6, out_dim=6, heads=2, head_dim=3)
    x = ad.parameter(r.normal(size=(5, 6)))
    out = xt.attend(x, x, p)
    assert out._parents == (x, x, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo)
    assert all(q._vjp is None for q in out._parents)


@pytest.mark.parametrize("tq,tk", [(3, 7), (7, 3), (1, 1)])
def test_attend_rejects_a_fully_masked_query_row(tq, tk):
    """Such a row used to attend uniformly to the keys it blocks."""
    r = rng(20)
    p = _random_mha(r, q_dim=4, kv_dim=4, out_dim=4, heads=2, head_dim=2)
    mask = np.zeros((tq, tk), dtype=bool)
    mask[tq // 2] = True
    with pytest.raises(ValueError, match="blocks every key"):
        xt.attend(ad.Tensor(r.normal(size=(tq, 4))), ad.Tensor(r.normal(size=(tk, 4))),
                  p, mask)
    mask[tq // 2, -1] = False
    xt.attend(ad.Tensor(r.normal(size=(tq, 4))), ad.Tensor(r.normal(size=(tk, 4))), p, mask)
