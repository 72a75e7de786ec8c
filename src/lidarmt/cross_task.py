"""Cross-task transformer decoder: K class queries (segmentation) and N
center queries (detection) coupled by a shared self-attention layer.

Per layer, pre-norm residual throughout:
  1. shared self-attention over the concatenated [class; center] tokens;
  2. class queries cross-attend to the voxel features, center queries to a
     local BEV window around their proposal cells;
  3. a shared feed-forward on both query sets;
  4. inverse cross-attention writes the refined class features back into
     the voxel stream.

The refined class embedding finally acts as a dynamic kernel producing the
semantic logits from the concatenated voxel features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .backbone import LinearUnit, linear_unit
from .cross_space import FfnUnit, apply_ffn, init_ffn
from .sparse import pack_coords, unpack_coords
from .tasks import rank_peaks


@dataclass
class MhaParams:
    n_heads: int
    head_dim: int
    wq: ad.Tensor
    bq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    bv: ad.Tensor
    wo: ad.Tensor
    bo: ad.Tensor


def init_mha(q_dim: int, kv_dim: int, out_dim: int, n_heads: int, head_dim: int,
             rng: np.random.Generator) -> MhaParams:
    inner = n_heads * head_dim
    return MhaParams(
        n_heads=n_heads, head_dim=head_dim,
        wq=ad.parameter(rng.normal(0, np.sqrt(1.0 / q_dim), (q_dim, inner))),
        bq=ad.parameter(np.zeros(inner)),
        wk=ad.parameter(rng.normal(0, np.sqrt(1.0 / kv_dim), (kv_dim, inner))),
        wv=ad.parameter(rng.normal(0, np.sqrt(1.0 / kv_dim), (kv_dim, inner))),
        bv=ad.parameter(np.zeros(inner)),
        wo=ad.parameter(rng.normal(0, np.sqrt(1.0 / inner), (inner, out_dim))),
        bo=ad.parameter(np.zeros(out_dim)),
    )


def attend(q_in: ad.Tensor, kv_in: ad.Tensor, p: MhaParams,
           mask: np.ndarray | None = None) -> ad.Tensor:
    """Multi-head scaled dot-product attention over row sets; True in the
    (tq, tk) mask blocks a key, and a row that blocks every key is a ValueError.

    Scaling is 1/sqrt(head_dim); with a single head this is exactly
    softmax(Q K^T / sqrt(C)) V followed by the output projection. Keys carry
    no bias: q . b_k is the same for every key of a row and cancels in the
    softmax. The per-head projections are re-associated onto the side with fewer
    rows, so no (n_heads, T, head_dim) array is built for the many-row side:
      few queries: logits_h = (Q_h Wk_h^T) kv^T,
                   ctx_h = (attn_h kv) Wv_h + bv_h   (attention rows sum to 1);
      few keys:    logits_h = q (Wq_h K_h^T) + bq_h K_h^T,
                   out = sum_h attn_h ((kv Wv_h + bv_h) Wo_h) + bo.
    With few keys the softmax reduces long rows of a C-ordered (n_heads, tk, tq)
    copy. Up to 7 keys that is byte-identical to a trailing key axis (numpy sums
    fewer than 8 in sequence); from 8 keys on, outputs may move by an ulp.

    One tape node, as ad.layer_norm is. The vjp replays the vjps of the tape the
    composition of matmul, reshape, transpose and softmax would record, on the
    same operand views, so forward and gradients are byte-identical to it: each
    GEMM C = A B sends back dA = dC B^T and dB = A^T dC, and the softmax
    dS = P * (dP - rowsum(dP * P)) (FlashAttention's backward, arXiv 2205.14135).
    Self-attention (q_in is kv_in) sums its input gradient as the composed tape
    does: (attention-weights path + query projection) + logits path.
    """
    tq, tk = q_in.data.shape[0], kv_in.data.shape[0]
    nh, dh = p.n_heads, p.head_dim
    if mask is not None and mask.all(axis=1).any():
        raise ValueError("attention mask blocks every key of a query row")
    scale = 1.0 / np.sqrt(dh)
    x, y = q_in.data, kv_in.data
    wq, wk, wv, wo = p.wq.data, p.wk.data, p.wv.data, p.wo.data
    parents = (q_in, kv_in, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo)
    if tq <= tk:
        q = _split_heads(x @ wq + p.bq.data, nh, dh) * scale           # (nh, tq, dh)
        wk_h = _split_heads(wk, nh, dh)
        q_wk = (wk_h @ q.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(nh * tq, -1)
        logits = q_wk @ y.T
        if mask is not None:
            logits = logits + np.tile(np.where(mask, -1e30, 0.0), (nh, 1))
        attn = ad.softmax_array(logits, -1)
        attn_kv = (attn @ y).reshape(nh, tq, -1)
        wv_h = _split_heads(wv, nh, dh)
        ctx = attn_kv @ wv_h + p.bv.data.reshape(nh, 1, dh)
        ctx = ctx.transpose(1, 0, 2).reshape(tq, nh * dh)

        def vjp(g):
            g_ctx = (g @ wo.T).reshape(tq, nh, dh).transpose(1, 0, 2)
            g_akv = (g_ctx @ wv_h.transpose(0, 2, 1)).reshape(nh * tq, -1)
            g_logits = ad.softmax_array_vjp(attn, g_akv @ y.T, -1)
            g_m = (g_logits @ y).reshape(nh, tq, -1).transpose(0, 2, 1)   # (nh, d_kv, tq)
            g_q = (wk_h.transpose(0, 2, 1) @ g_m).transpose(0, 2, 1) * scale
            g_q = g_q.transpose(1, 0, 2).reshape(tq, -1)
            g_x = g_q @ wq.T
            g_y = attn.T @ g_akv
            g_y_logits = (q_wk.T @ g_logits).T
            if q_in is kv_in:
                g_x, g_y = (g_y + g_x) + g_y_logits, None
            else:
                g_y = g_y + g_y_logits
            return (g_x, g_y, x.T @ g_q, g_q.sum(axis=0),
                    (g_m @ q).transpose(1, 0, 2).reshape(wk.shape),
                    (attn_kv.transpose(0, 2, 1) @ g_ctx).transpose(1, 0, 2).reshape(wv.shape),
                    ad._unbroadcast(g_ctx, (nh, 1, dh)).reshape(-1),
                    ctx.T @ g, g.sum(axis=0))

        return ad._make(ctx @ wo + p.bo.data, parents, vjp)
    k_t = (_split_heads(y @ wk, nh, dh) * scale).transpose(0, 2, 1)       # (nh, dh, tk)
    wq_h = _split_heads(wq, nh, dh)
    wq_k = (wq_h @ k_t).transpose(1, 0, 2).reshape(-1, nh * tk)          # (d_q, nh tk)
    bq_h = p.bq.data.reshape(nh, 1, dh)
    logits = _transposed(x @ wq_k + (bq_h @ k_t).reshape(1, nh * tk), (nh, tk, tq))
    if mask is not None:
        logits = logits + np.where(mask, -1e30, 0.0).T[None]
    v = _split_heads(y @ wv + p.bv.data, nh, dh)                          # (nh, tk, dh)
    wo_h = wo.reshape(nh, dh, -1)
    v_wo = (v @ wo_h).reshape(nh * tk, -1)
    attn = ad.softmax_array(logits, 1)
    attn_t = _transposed(attn.reshape(nh * tk, tq), (tq, nh * tk))

    def vjp(g):
        g_vwo = (attn_t.T @ g).reshape(nh, tk, -1)
        g_logits = ad.softmax_array_vjp(attn, _transposed(g @ v_wo.T, (nh, tk, tq)), 1)
        g_l = _transposed(g_logits.reshape(nh * tk, tq), (tq, nh * tk))
        g_bqk = g_l.sum(axis=0, keepdims=True).reshape(nh, 1, tk)
        g_wqk = (x.T @ g_l).reshape(-1, nh, tk).transpose(1, 0, 2)       # (nh, d_q, tk)
        g_kt = bq_h.transpose(0, 2, 1) @ g_bqk + wq_h.transpose(0, 2, 1) @ g_wqk
        g_k = (g_kt.transpose(0, 2, 1) * scale).transpose(1, 0, 2).reshape(tk, -1)
        g_v = (g_vwo @ wo_h.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(tk, -1)
        return (g_l @ wq_k.T, g_k @ wk.T + g_v @ wv.T,
                (g_wqk @ k_t.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(wq.shape),
                (g_bqk @ k_t.transpose(0, 2, 1)).reshape(-1), y.T @ g_k, y.T @ g_v,
                g_v.sum(axis=0), (v.transpose(0, 2, 1) @ g_vwo).reshape(wo.shape),
                g.sum(axis=0))

    return ad._make(attn_t @ v_wo + p.bo.data, parents, vjp)


def _transposed(x: np.ndarray, shape: tuple) -> np.ndarray:
    """C-ordered copy of x.T as `shape`: no GEMM sees a transposed operand. The
    gradient of the copy is the same copy of the incoming gradient."""
    return x.T.reshape(-1).reshape(shape)


def _split_heads(x: np.ndarray, nh: int, dh: int) -> np.ndarray:
    """(rows, nh * dh) -> (nh, rows, dh), for activations and weights alike."""
    return x.reshape(-1, nh, dh).transpose(1, 0, 2)


def init_class_embedding(pred: ad.Tensor, feats: ad.Tensor,
                         eps: float = 1e-8) -> ad.Tensor:
    """Prediction-weighted mean of features per class.

    pred rows must each sum to 1; a class whose total weight vanishes falls
    back to the global feature mean.
    """
    sums = pred.data.sum(axis=1)
    if len(sums) and np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("pred rows must sum to 1")
    weighted = ad.matmul(ad.transpose(pred, (1, 0)), feats)         # (K, C)
    denom = ad.reduce_sum(pred, axis=0)                             # (K,)
    degenerate = denom.data < eps
    # shift vanishing denominators off zero; those rows get replaced below
    safe = ad.add(denom, ad.constant(degenerate.astype(float)))
    emb = ad.mul(weighted, ad.reshape(ad.power(safe, -1.0), (len(degenerate), 1)))
    if degenerate.any():
        mean = ad.reduce_mean(feats, axis=0, keepdims=True)
        ones = ad.constant(np.ones((pred.data.shape[1], 1)))
        emb = ad.where_mask(degenerate[:, None], ones @ mean, emb)
    return emb


@dataclass
class CenterQuerySet:
    queries: ad.Tensor        # (N, C) projected BEV features + positional embedding
    positions: np.ndarray     # (N, 2) integer (u, v) cells
    scores: np.ndarray        # (N,) heatmap values
    class_ids: np.ndarray     # (N,) thing class per proposal, 1-based


def propose_centers(heatmap: np.ndarray, bev_feats: ad.Tensor, n_ctr: int,
                    proj: LinearUnit, pos_emb: ad.Tensor) -> CenterQuerySet:
    """Top-N local maxima of the class heatmaps, padded from the global top
    scores when there are fewer peaks. Ties break by linearized index."""
    k, h, w = heatmap.shape
    picked = rank_peaks(heatmap)[0][:n_ctr]
    xyk = unpack_coords(picked, (w, h, k))
    cell = pack_coords(xyk[:, :2], (w, h))
    q = ad.gather_rows(bev_feats, cell)
    q = q @ proj.weight + proj.bias
    q = q + ad.gather_rows(pos_emb, cell)
    return CenterQuerySet(queries=q, positions=xyk[:, :2], scores=heatmap.ravel()[picked],
                          class_ids=xyk[:, 2] + 1)


@dataclass
class CrossTaskLayerParams:
    self_attn: MhaParams
    class_cross: MhaParams
    center_cross: MhaParams
    inverse: MhaParams
    ffn: FfnUnit


@dataclass
class CrossTaskParams:
    width: int
    window: int
    layers: list = field(default_factory=list)
    proj_class: LinearUnit | None = None    # BEV width -> token width
    proj_center: LinearUnit | None = None
    pos_emb: ad.Tensor | None = None        # (H*W, width)
    kernel_proj: LinearUnit | None = None   # 2*C_dec -> width, the dynamic kernel input


def init_cross_task(width: int, voxel_dim: int, bev_dim: int, grid_hw: tuple,
                    rng: np.random.Generator, n_layers: int = 3, n_heads: int = 4,
                    head_dim: int = 32, ffn_hidden: int = 64,
                    window: int = 7) -> CrossTaskParams:
    """Every residual branch starts at zero, so the decoder is the identity at
    init and the class embedding begins as the raw prediction-weighted feature
    prototypes; branches wake up through their output projections."""
    p = CrossTaskParams(width=width, window=window)
    for _ in range(n_layers):
        layer = CrossTaskLayerParams(
            self_attn=init_mha(width, width, width, n_heads, head_dim, rng),
            class_cross=init_mha(width, voxel_dim, width, n_heads, head_dim, rng),
            center_cross=init_mha(width, bev_dim, width, n_heads, head_dim, rng),
            inverse=init_mha(voxel_dim, width, voxel_dim, n_heads, head_dim, rng),
            ffn=init_ffn(width, ffn_hidden, rng),
        )
        for mha in (layer.self_attn, layer.class_cross, layer.center_cross,
                    layer.inverse):
            mha.wo.data[:] = 0.0
        layer.ffn.w2.data[:] = 0.0
        p.layers.append(layer)
    h, w = grid_hw
    p.proj_class = linear_unit(rng, bev_dim, width)
    p.proj_center = linear_unit(rng, bev_dim, width)
    p.pos_emb = ad.parameter(0.02 * rng.normal(size=(h * w, width)))
    p.kernel_proj = linear_unit(rng, 2 * voxel_dim, width)
    return p


def cross_task_layer(eps: ad.Tensor, centers: ad.Tensor, voxels: ad.Tensor,
                     bev_rows: ad.Tensor, positions: np.ndarray, hw: tuple,
                     p: CrossTaskLayerParams, window: int):
    """One decoder layer; returns (eps', centers', voxels')."""
    k = eps.data.shape[0]
    tokens = ad.concat([eps, centers], axis=0)
    t = tokens.data.shape[0]
    normed = ad.layer_norm(tokens)
    tokens = tokens + attend(normed, normed, p.self_attn)

    eps = tokens[np.arange(k)]
    eps = eps + attend(ad.layer_norm(eps), voxels, p.class_cross)

    cen = tokens[np.arange(k, t)]
    # one attention over the whole BEV; keys outside the query's
    # window x window neighbourhood (Chebyshev distance) are masked
    h, w = hw
    cells = unpack_coords(np.arange(h * w), (w, h))
    far = np.abs(positions[:, None] - cells).max(axis=2) > window // 2
    cen = cen + attend(ad.layer_norm(cen), bev_rows, p.center_cross, far)
    both = ad.concat([eps, cen], axis=0)
    both = both + apply_ffn(ad.layer_norm(both), p.ffn)
    eps, cen = both[np.arange(k)], both[np.arange(k, t)]
    voxels = voxels + attend(ad.layer_norm(voxels), eps, p.inverse)
    return eps, cen, voxels


def decode_queries(eps: ad.Tensor, centers: CenterQuerySet, voxels: ad.Tensor,
                   bev_rows: ad.Tensor, hw: tuple, p: CrossTaskParams):
    """Run the stacked decoder layers.

    Returns (refined class embedding, refined center queries, refined voxel
    features).
    """
    cen = centers.queries
    for layer in p.layers:
        eps, cen, voxels = cross_task_layer(eps, cen, voxels, bev_rows, centers.positions,
                                            hw, layer, p.window)
    return eps, cen, voxels


def dynamic_kernel_logits(v_r: ad.Tensor, eps: ad.Tensor,
                          phi: LinearUnit) -> ad.Tensor:
    """Semantic logits from the refined class embedding acting as the
    classifier kernel: Phi(V^r) eps^T / sqrt(C)."""
    if v_r.data.shape[1] != phi.weight.data.shape[0]:
        raise ValueError("kernel projection expects the concatenated voxel width")
    projected = v_r @ phi.weight + phi.bias
    c = eps.data.shape[1]
    if projected.data.shape[1] != c:
        raise ValueError("projected features and class embedding widths differ")
    return ad.mul(projected @ ad.transpose(eps, (1, 0)), ad.constant(1.0 / np.sqrt(c)))
