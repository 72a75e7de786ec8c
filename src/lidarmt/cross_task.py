"""Cross-task transformer decoder: K class queries (segmentation) and N
center queries (detection) coupled by a shared self-attention layer.

Per layer, pre-norm residual throughout:
  1. shared self-attention over the concatenated [class; center] tokens
     (optionally masked to block class<->center coupling);
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


@dataclass
class MhaParams:
    n_heads: int
    head_dim: int
    wq: ad.Tensor
    bq: ad.Tensor
    wk: ad.Tensor
    bk: ad.Tensor
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
        bk=ad.parameter(np.zeros(inner)),
        wv=ad.parameter(rng.normal(0, np.sqrt(1.0 / kv_dim), (kv_dim, inner))),
        bv=ad.parameter(np.zeros(inner)),
        wo=ad.parameter(rng.normal(0, np.sqrt(1.0 / inner), (inner, out_dim))),
        bo=ad.parameter(np.zeros(out_dim)),
    )


def attend(q_in: ad.Tensor, kv_in: ad.Tensor, p: MhaParams,
           mask: np.ndarray | None = None) -> ad.Tensor:
    """Multi-head scaled dot-product attention over row sets; True in the
    (tq, tk) mask blocks a key.

    Scaling is 1/sqrt(head_dim); with a single head this is exactly
    softmax(Q K^T / sqrt(C)) V followed by the output projection. The
    per-head projections are re-associated onto the side with fewer rows, so
    no (n_heads, T, head_dim) array is built for the many-row side:
      few queries: logits_h = (Q_h Wk_h^T) kv^T + Q_h bk_h^T,
                   ctx_h = (attn_h kv) Wv_h + bv_h   (attention rows sum to 1);
      few keys:    logits_h = q (Wq_h K_h^T) + bq_h K_h^T,
                   out = sum_h attn_h ((kv Wv_h + bv_h) Wo_h) + bo.
    """
    tq, tk = q_in.data.shape[0], kv_in.data.shape[0]
    nh, dh = p.n_heads, p.head_dim
    scale = ad.constant(1.0 / np.sqrt(dh))
    blocked = None if mask is None else np.where(mask, -1e30, 0.0)
    if tq <= tk:
        q = ad.mul(_split_heads(q_in @ p.wq + p.bq, nh, dh), scale)    # (nh, tq, dh)
        # Wk_h on the left keeps the gradient of wk C-ordered for AdamW
        q_wk = ad.transpose(_split_heads(p.wk, nh, dh) @ ad.transpose(q, (0, 2, 1)),
                            (0, 2, 1))                                  # (nh, tq, d_kv)
        logits = ad.reshape(q_wk, (nh * tq, -1)) @ ad.transpose(kv_in, (1, 0)) \
            + ad.reshape(q @ ad.reshape(p.bk, (nh, dh, 1)), (nh * tq, 1))
        if blocked is not None:
            logits = logits + ad.constant(np.tile(blocked, (nh, 1)))
        attn_kv = ad.reshape(ad.softmax(logits, axis=-1) @ kv_in, (nh, tq, -1))
        ctx = attn_kv @ _split_heads(p.wv, nh, dh) + ad.reshape(p.bv, (nh, 1, dh))
        return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tq, nh * dh)) @ p.wo + p.bo
    k_t = ad.transpose(ad.mul(_split_heads(kv_in @ p.wk + p.bk, nh, dh), scale),
                       (0, 2, 1))                                       # (nh, dh, tk)
    wq_k = ad.transpose(_split_heads(p.wq, nh, dh) @ k_t, (1, 0, 2))    # (d_q, nh, tk)
    bq_k = ad.reshape(p.bq, (nh, 1, dh)) @ k_t                          # (nh, 1, tk)
    logits = ad.reshape(q_in @ ad.reshape(wq_k, (-1, nh * tk))
                        + ad.reshape(bq_k, (1, nh * tk)), (tq, nh, tk))
    if blocked is not None:
        logits = logits + ad.constant(blocked[:, None, :])
    v_wo = _split_heads(kv_in @ p.wv + p.bv, nh, dh) @ ad.reshape(p.wo, (nh, dh, -1))
    attn = ad.reshape(ad.softmax(logits, axis=-1), (tq, nh * tk))
    return attn @ ad.reshape(v_wo, (nh * tk, -1)) + p.bo


def _split_heads(x: ad.Tensor, nh: int, dh: int) -> ad.Tensor:
    """(rows, nh * dh) -> (nh, rows, dh), for activations and weights alike."""
    return ad.transpose(ad.reshape(x, (-1, nh, dh)), (1, 0, 2))


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


def peak_mask(heatmap: np.ndarray) -> np.ndarray:
    """Cells equal to their 3x3 neighbourhood maximum."""
    k, h, w = heatmap.shape
    padded = np.full((k, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    pool = np.full_like(heatmap, -np.inf)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            pool = np.maximum(pool, padded[:, dy:dy + h, dx:dx + w])
    return heatmap >= pool


def propose_centers(heatmap: np.ndarray, bev_feats: ad.Tensor, n_ctr: int,
                    proj: LinearUnit, pos_emb: ad.Tensor) -> CenterQuerySet:
    """Top-N local maxima of the class heatmaps, padded from the global top
    scores when there are fewer peaks. Ties break by linearized index."""
    k, h, w = heatmap.shape
    flat = heatmap.ravel()
    peak = peak_mask(heatmap).ravel()
    order_all = np.lexsort((np.arange(flat.size), -flat))
    picked = [i for i in order_all if peak[i]][:n_ctr]
    if len(picked) < n_ctr:
        chosen = set(picked)
        picked += [i for i in order_all if i not in chosen][:n_ctr - len(picked)]
    picked = np.array(picked[:n_ctr], dtype=np.int64)
    cls = picked // (h * w)
    yy = (picked // w) % h
    xx = picked % w
    cell = yy * w + xx
    q = ad.gather_rows(bev_feats, cell)
    q = q @ proj.weight + proj.bias
    q = q + ad.gather_rows(pos_emb, cell)
    return CenterQuerySet(queries=q, positions=np.column_stack([xx, yy]),
                          scores=flat[picked], class_ids=(cls + 1).astype(np.int64))


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
                    head_dim: int = 32, ffn_hidden: int = 64, window: int = 7,
                    class_src_dim: int | None = None,
                    zero_residual: bool = True) -> CrossTaskParams:
    """zero_residual starts every residual branch at zero, so the decoder is
    the identity at init and the class embedding begins as the raw
    prediction-weighted feature prototypes; branches wake up through their
    output projections."""
    p = CrossTaskParams(width=width, window=window)
    for _ in range(n_layers):
        layer = CrossTaskLayerParams(
            self_attn=init_mha(width, width, width, n_heads, head_dim, rng),
            class_cross=init_mha(width, voxel_dim, width, n_heads, head_dim, rng),
            center_cross=init_mha(width, bev_dim, width, n_heads, head_dim, rng),
            inverse=init_mha(voxel_dim, width, voxel_dim, n_heads, head_dim, rng),
            ffn=init_ffn(width, ffn_hidden, rng),
        )
        if zero_residual:
            for mha in (layer.self_attn, layer.class_cross, layer.center_cross,
                        layer.inverse):
                mha.wo.data[:] = 0.0
            layer.ffn.w2.data[:] = 0.0
        p.layers.append(layer)
    h, w = grid_hw
    p.proj_class = linear_unit(rng, bev_dim if class_src_dim is None else class_src_dim,
                               width)
    p.proj_center = linear_unit(rng, bev_dim, width)
    p.pos_emb = ad.parameter(0.02 * rng.normal(size=(h * w, width)))
    p.kernel_proj = linear_unit(rng, 2 * voxel_dim, width)
    return p


def cross_task_layer(eps: ad.Tensor, centers: ad.Tensor | None,
                     voxels: ad.Tensor | None, bev_rows: ad.Tensor,
                     positions: np.ndarray, hw: tuple,
                     p: CrossTaskLayerParams, window: int,
                     block_cross_task: bool = False):
    """One decoder layer; returns (eps', centers', voxels')."""
    k = eps.data.shape[0]
    if centers is not None:
        tokens = ad.concat([eps, centers], axis=0)
    else:
        tokens = eps
    t = tokens.data.shape[0]
    mask = None
    if block_cross_task and centers is not None:
        mask = np.zeros((t, t), dtype=bool)
        mask[:k, k:] = True
        mask[k:, :k] = True
    tokens = tokens + attend(ad.layer_norm(tokens), ad.layer_norm(tokens),
                             p.self_attn, mask)

    eps = tokens[np.arange(k)]
    if voxels is not None and voxels.data.shape[0] > 0:
        eps = eps + attend(ad.layer_norm(eps), voxels, p.class_cross)

    new_centers = None
    if centers is not None:
        cen = tokens[np.arange(k, t)]
        # one attention over the whole BEV; keys outside the query's
        # window x window neighbourhood (Chebyshev distance) are masked
        h, w = hw
        cells = np.arange(h * w)
        far = np.maximum(np.abs(positions[:, :1] - cells % w),
                         np.abs(positions[:, 1:] - cells // w)) > window // 2
        cen = cen + attend(ad.layer_norm(cen), bev_rows, p.center_cross, far)
        both = ad.concat([eps, cen], axis=0)
        both = both + apply_ffn(ad.layer_norm(both), p.ffn)
        eps = both[np.arange(k)]
        new_centers = both[np.arange(k, t)]
    else:
        eps = eps + apply_ffn(ad.layer_norm(eps), p.ffn)

    new_voxels = voxels
    if voxels is not None and voxels.data.shape[0] > 0:
        new_voxels = voxels + attend(ad.layer_norm(voxels), eps, p.inverse)
    return eps, new_centers, new_voxels


def decode_queries(eps: ad.Tensor, centers: CenterQuerySet | None,
                   voxels: ad.Tensor | None, bev_rows: ad.Tensor, hw: tuple,
                   p: CrossTaskParams, block_cross_task: bool = False):
    """Run the stacked decoder layers.

    Returns (refined class embedding, refined center queries or None,
    refined voxel features or None).
    """
    cen = centers.queries if centers is not None else None
    pos = centers.positions if centers is not None else None
    vox = voxels
    for layer in p.layers:
        eps, cen, vox = cross_task_layer(eps, cen, vox, bev_rows, pos, hw,
                                         layer, p.window, block_cross_task)
    return eps, cen, vox


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
