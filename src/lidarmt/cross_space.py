"""Cross-space attention between sparse voxel features and dense BEV maps.

Both directions share one primitive: multi-height deformable attention.
Each query at BEV location (u, v) learns, per head, fractional offsets and
softmax weights over every (height slice, sampling point) pair, samples
the height-sliced maps bilinearly at the offset locations, and mixes the
per-head results through output projections. Dense-to-sparse reads a fixed
dense map at the valid voxel coordinates; sparse-to-dense runs it as
self-attention over all grid cells and re-collapses heights into a BEV map.
These are the model's one path between the sparse voxel map and the dense
BEV map, a plain (J*C, H, W) tensor in `sparse.height_collapse`'s layout.
With no blocks they reduce to scatter/collapse (plus the positional
embedding) and expand/gather.

Blocks are pre-norm residual: x + attn(LN(x)), then x + ffn(LN(x)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .sparse import (SparseVoxelTensor, height_collapse, height_expand, pack_coords,
                     scatter_to_dense, unpack_coords)


@dataclass
class DeformAttnParams:
    """Offset/weight generators plus per-head value and output projections.

    Weight normalization is a joint softmax over (height, point) per head,
    so the attention rows always sum to one.
    """

    n_heads: int
    head_dim: int
    n_points: int
    n_heights: int
    offset_w: ad.Tensor   # (C, heads*heights*points*2)
    offset_b: ad.Tensor
    logit_w: ad.Tensor    # (C, heads*heights*points)
    logit_b: ad.Tensor
    value_w: ad.Tensor    # (C, heads*head_dim), per-head column blocks
    out_w: ad.Tensor      # (heads*head_dim, C)


def init_deform_attn(channels: int, n_heads: int, head_dim: int, n_points: int,
                     n_heights: int, rng: np.random.Generator) -> DeformAttnParams:
    """Zero offset/logit generators make the initial forward the analytic
    degenerate case (no offsets, uniform weights); the offset bias is a
    small star so heads start looking in distinct directions."""
    hjr = n_heads * n_heights * n_points
    offset_b = np.zeros((n_heads, n_heights, n_points, 2))
    for i in range(n_heads):
        angle = 2 * np.pi * i / n_heads
        for r in range(n_points):
            offset_b[i, :, r] = (r + 1) / (2 * n_points) * np.array(
                [np.cos(angle), np.sin(angle)])
    sv = np.sqrt(1.0 / channels)
    so = np.sqrt(1.0 / (n_heads * head_dim))
    return DeformAttnParams(
        n_heads=n_heads, head_dim=head_dim, n_points=n_points, n_heights=n_heights,
        offset_w=ad.parameter(np.zeros((channels, hjr * 2))),
        offset_b=ad.parameter(offset_b.reshape(-1)),
        logit_w=ad.parameter(np.zeros((channels, hjr))),
        logit_b=ad.parameter(np.zeros(hjr)),
        value_w=ad.parameter(rng.normal(0, sv, size=(channels, n_heads * head_dim))),
        out_w=ad.parameter(rng.normal(0, so, size=(n_heads * head_dim, channels))),
    )


class OffsetCollector:
    """Accumulates (u, v, h, head, height, point, du, dv, weight) rows."""

    def __init__(self):
        self.rows: list[np.ndarray] = []

    def add(self, meta: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> None:
        nh, q, j, r, _ = offsets.shape
        heads, heights, points = np.meshgrid(np.arange(nh), np.arange(j),
                                             np.arange(r), indexing="ij")
        block = np.empty((q * nh * j * r, 9))
        uvh = np.repeat(meta, nh * j * r, axis=0)
        per_q = np.stack([heads.ravel(), heights.ravel(), points.ravel()], axis=1)
        block[:, 0:3] = uvh
        block[:, 3:6] = np.tile(per_q, (q, 1))
        off_q_major = offsets.transpose(1, 0, 2, 3, 4).reshape(-1, 2)
        w_q_major = weights.transpose(1, 0, 2, 3).reshape(-1)
        block[:, 6:8] = off_q_major
        block[:, 8] = w_q_major
        self.rows.append(block)

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.rows) if self.rows else np.empty((0, 9))


def mh_deform_attn(queries: ad.Tensor, refs: np.ndarray, maps: ad.Tensor,
                   p: DeformAttnParams, collector: OffsetCollector | None = None,
                   query_meta: np.ndarray | None = None) -> ad.Tensor:
    """Multi-height deformable attention.

    queries: (Q, C) rows at reference BEV locations refs (Q, 2).
    maps: (J, H, W, C) height-sliced feature maps, J == p.n_heights.
    """
    q_count = queries.data.shape[0]
    nh, dh, j, r = p.n_heads, p.head_dim, p.n_heights, p.n_points
    if maps.data.shape[0] != j:
        raise ValueError(f"maps carry {maps.data.shape[0]} heights, params expect {j}")
    if q_count == 0:
        return ad.matmul(queries, ad.matmul(p.value_w, p.out_w))

    off = ad.reshape(queries @ p.offset_w + p.offset_b, (q_count, nh, j, r, 2))
    off = ad.transpose(off, (1, 0, 2, 3, 4))                      # (Nh, Q, J, R, 2)
    logits = ad.reshape(queries @ p.logit_w + p.logit_b, (q_count, nh, j * r))
    weights = ad.reshape(ad.softmax(logits, axis=-1), (q_count, nh, j, r))
    weights = ad.transpose(weights, (1, 0, 2, 3))                 # (Nh, Q, J, R)

    ref_wide = refs.reshape(1, q_count, 1, 1, 2)
    locs = ad.add(ad.constant(ref_wide), off)                     # (Nh, Q, J, R, 2)

    hgt, wid = maps.data.shape[1:3]
    vmaps = ad.reshape(maps, (j * hgt * wid, maps.data.shape[3])) @ p.value_w
    vmaps = ad.reshape(vmaps, (j, hgt, wid, nh, dh))
    vmaps = ad.reshape(ad.transpose(vmaps, (3, 0, 1, 2, 4)),
                       (nh * j, hgt, wid, dh))                    # (Nh*J, H, W, dh)

    # every head samples its own J slices: slice = head * J + height
    slice_id = np.broadcast_to(np.arange(nh * j).reshape(nh, 1, j, 1),
                               (nh, q_count, j, r)).ravel()
    samples = ad.bilinear_sample(vmaps, ad.reshape(locs, (-1, 2)), slice_id)
    samples = ad.reshape(samples, (nh, q_count, j * r, dh))
    w = ad.reshape(weights, (nh, q_count, j * r, 1))
    heads = ad.reduce_sum(ad.mul(samples, w), axis=2)             # (Nh, Q, dh)
    mixed = ad.reshape(ad.transpose(heads, (1, 0, 2)), (q_count, nh * dh))

    if collector is not None:
        meta = query_meta if query_meta is not None else np.column_stack(
            [refs, np.zeros(q_count)])
        collector.add(meta, off.data, weights.data)
    return mixed @ p.out_w


@dataclass
class FfnUnit:
    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor


def init_ffn(channels: int, hidden: int, rng: np.random.Generator) -> FfnUnit:
    return FfnUnit(
        w1=ad.parameter(rng.normal(0, np.sqrt(2.0 / channels), size=(channels, hidden))),
        b1=ad.parameter(np.zeros(hidden)),
        w2=ad.parameter(rng.normal(0, np.sqrt(1.0 / hidden), size=(hidden, channels))),
        b2=ad.parameter(np.zeros(channels)),
    )


def apply_ffn(x: ad.Tensor, f: FfnUnit) -> ad.Tensor:
    return ad.relu(x @ f.w1 + f.b1) @ f.w2 + f.b2


@dataclass
class CrossSpaceBlock:
    attn: DeformAttnParams
    ffn: FfnUnit


@dataclass
class CrossSpaceParams:
    """Both directions: 2 stacked blocks each, plus the learned 2D positional
    embedding that seeds the dense-grid queries of sparse-to-dense."""

    n_heights: int                    # height slices of the BEV maps both directions read
    d2s_blocks: list = field(default_factory=list)
    s2d_blocks: list = field(default_factory=list)
    pos_emb: ad.Tensor | None = None  # (H*W, C)


def init_cross_space(channels: int, grid_hw: tuple, n_heights: int,
                     rng: np.random.Generator, n_heads: int = 4,
                     head_dim_d2s: int = 64, head_dim_s2d: int = 32,
                     n_points: int = 4, ffn_hidden: int = 256,
                     n_blocks: int = 2) -> CrossSpaceParams:
    p = CrossSpaceParams(n_heights=n_heights)
    for _ in range(n_blocks):
        p.d2s_blocks.append(CrossSpaceBlock(
            attn=init_deform_attn(channels, n_heads, head_dim_d2s, n_points,
                                  n_heights, rng),
            ffn=init_ffn(channels, ffn_hidden, rng)))
        p.s2d_blocks.append(CrossSpaceBlock(
            attn=init_deform_attn(channels, n_heads, head_dim_s2d, n_points,
                                  n_heights, rng),
            ffn=init_ffn(channels, ffn_hidden, rng)))
    h, w = grid_hw
    p.pos_emb = ad.parameter(0.02 * rng.normal(size=(h * w, channels)))
    return p


def dense_to_sparse(bev: ad.Tensor, coords: np.ndarray, p: CrossSpaceParams,
                    collector: OffsetCollector | None = None) -> ad.Tensor:
    """Queries are the (J*C, H, W) BEV map's features at the valid (u, v, h)
    coordinates; the fixed height-sliced map provides the sampled values."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    hgt, wid = bev.data.shape[1:]
    if len(coords) and ((coords < 0).any()
                        or (coords >= (wid, hgt, p.n_heights)).any()):
        raise ValueError("valid coordinate outside the dense BEV extent")
    dense3d = height_expand(bev, p.n_heights)                # (C, J, H, W)
    slices = ad.transpose(dense3d, (1, 2, 3, 0))             # (J, H, W, C)
    q = ad.gather(slices, (coords[:, 2], coords[:, 1], coords[:, 0]))
    refs = coords[:, :2].astype(np.float64)
    meta = coords.astype(np.float64) if collector is not None else None
    for blk in p.d2s_blocks:
        qn = ad.layer_norm(q)
        q = q + mh_deform_attn(qn, refs, slices, blk.attn, collector, meta)
        q = q + apply_ffn(ad.layer_norm(q), blk.ffn)
    return q


def sparse_to_dense(t: SparseVoxelTensor, p: CrossSpaceParams,
                    collector: OffsetCollector | None = None) -> ad.Tensor:
    """Densify, run deformable self-attention with every grid cell at every
    height as a query, then collapse heights into the (D*C, H, W) BEV map."""
    w, h, d = t.spatial_shape
    c = t.num_channels
    dense = scatter_to_dense(t)                              # (C, D, H, W)
    slices = ad.transpose(dense, (1, 2, 3, 0))               # (J, H, W, C)
    q = ad.reshape(slices, (d * h * w, c))
    uvh = unpack_coords(np.arange(d * h * w), t.spatial_shape)
    refs = uvh[:, :2].astype(np.float64)
    meta = uvh.astype(np.float64) if collector is not None else None
    q = q + ad.gather_rows(p.pos_emb, pack_coords(uvh[:, :2], (w, h)))
    for blk in p.s2d_blocks:
        qn = ad.layer_norm(q)
        maps = ad.reshape(qn, (d, h, w, c))
        q = q + mh_deform_attn(qn, refs, maps, blk.attn, collector, meta)
        q = q + apply_ffn(ad.layer_norm(q), blk.ffn)
    return height_collapse(ad.transpose(ad.reshape(q, (d, h, w, c)), (3, 0, 1, 2)))
