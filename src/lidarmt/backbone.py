"""Encoder-decoder sparse backbone: multi-scale 3D encoder, BEV projection
helpers, the 2D multi-scale BEV extractor, the U-Net style voxel decoder
restricted to encoder coordinates, and the auxiliary segmentation head."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .sparse import (SparseVoxelTensor, live_taps,
                     submanifold_conv3d, strided_conv3d, upsample_conv3d)


def stage_widths(c: int) -> tuple:
    """Widths of the four stages down to the 1/8 bottleneck, from base width c."""
    return (c, 2 * c, 4 * c, 4 * c)


@dataclass
class ConvUnit:
    kernel: ad.Tensor  # (T, Cin, Cout): one block per live tap (sparse.live_taps)
    bias: ad.Tensor


@dataclass
class Conv2dUnit:
    weight: ad.Tensor  # (Cout, Cin, kh, kw)
    bias: ad.Tensor


@dataclass
class LinearUnit:
    weight: ad.Tensor  # (Cin, Cout)
    bias: ad.Tensor


def conv3d_unit(rng, cin, cout, fine, coarse=None):
    """A conv on grid `fine`, strided onto `coarse` when given, over its live taps only.
    A generator draws the full 27-tap block, so its stream and values match on any grid."""
    taps = live_taps(fine, coarse or fine, 1 if coarse is None else 2)
    draws = isinstance(rng, np.random.Generator)   # else Model's checkpoint stand-in: touch no page
    block = rng.normal(0, np.sqrt(2.0 / (27 * cin)), size=(27 if draws else len(taps), cin, cout))
    return ConvUnit(kernel=ad.parameter(block if len(block) == len(taps) else block[taps]),
                    bias=ad.parameter(np.zeros(cout)))


def conv2d_unit(rng, cin, cout, k=3):
    scale = np.sqrt(2.0 / (k * k * cin))
    return Conv2dUnit(weight=ad.parameter(rng.normal(0, scale, size=(cout, cin, k, k))),
                      bias=ad.parameter(np.zeros(cout)))


def linear_unit(rng, cin, cout, scale=None):
    scale = np.sqrt(1.0 / cin) if scale is None else scale
    return LinearUnit(weight=ad.parameter(rng.normal(0, scale, size=(cin, cout))),
                      bias=ad.parameter(np.zeros(cout)))


@dataclass
class EncoderParams:
    stages: list = field(default_factory=list)  # list of [ConvUnit, ConvUnit]
    downs: list = field(default_factory=list)   # 3 strided ConvUnits


@dataclass
class DecoderParams:
    ups: list = field(default_factory=list)     # coarse -> fine ConvUnits
    fuses: list = field(default_factory=list)   # post-concat ConvUnits


@dataclass
class BevExtractorParams:
    pre: Conv2dUnit
    down: Conv2dUnit
    mid: Conv2dUnit
    up: Conv2dUnit
    fuse: Conv2dUnit


def init_encoder(widths: tuple, in_channels: int, rng: np.random.Generator,
                 shape: tuple) -> EncoderParams:
    p = EncoderParams()
    shapes = [tuple(n >> s for n in shape) for s in range(4)]
    prev = in_channels
    for s, w in enumerate(widths):
        p.stages.append([conv3d_unit(rng, prev, w, shapes[s]), conv3d_unit(rng, w, w, shapes[s])])
        if s < 3:
            prev = widths[s + 1]
            p.downs.append(conv3d_unit(rng, w, prev, shapes[s], shapes[s + 1]))
    return p


def init_decoder(widths: tuple, injected_channels: int, rng: np.random.Generator,
                 shape: tuple) -> DecoderParams:
    p = DecoderParams()
    shapes = [tuple(n >> s for n in shape) for s in range(4)]
    prev = injected_channels
    for lvl in (2, 1, 0):
        p.ups.append(conv3d_unit(rng, prev, widths[lvl], shapes[lvl], shapes[lvl + 1]))
        p.fuses.append(conv3d_unit(rng, 2 * widths[lvl], widths[lvl], shapes[lvl]))
        prev = widths[lvl]
    return p


def init_bev_extractor(channels: int, rng: np.random.Generator) -> BevExtractorParams:
    c = channels
    return BevExtractorParams(
        pre=conv2d_unit(rng, c, c),
        down=conv2d_unit(rng, c, 2 * c),
        mid=conv2d_unit(rng, 2 * c, 2 * c),
        up=conv2d_unit(rng, 2 * c, c),
        fuse=conv2d_unit(rng, 2 * c, c),
    )


def _act(t: SparseVoxelTensor) -> SparseVoxelTensor:
    return t.with_features(ad.relu(ad.layer_norm(t.features)))


def channel_norm(x: ad.Tensor) -> ad.Tensor:
    """Per-pixel normalization over the channel axis of (C, H, W)."""
    return ad.transpose(ad.layer_norm(ad.transpose(x, (1, 2, 0))), (2, 0, 1))


def encode(t: SparseVoxelTensor, p: EncoderParams) -> list[SparseVoxelTensor]:
    """Four scales at 1, 1/2, 1/4, 1/8 resolution (2 submanifold convs per
    stage, one strided conv between stages)."""
    scales = []
    x = t
    for s, stage in enumerate(p.stages):
        for conv in stage:
            x = _act(submanifold_conv3d(x, conv.kernel, conv.bias))
        scales.append(x)
        if s < 3:
            down = p.downs[s]
            x = _act(strided_conv3d(x, down.kernel, down.bias))
    return scales


def decode(scales: list[SparseVoxelTensor], injected: SparseVoxelTensor,
           p: DecoderParams) -> SparseVoxelTensor:
    """Upsample the injected 1/8 tensor, on scales[3]'s sites, back to full resolution
    along the encoder's coordinate sets, concatenating skip features at each scale."""
    x = injected
    for i, lvl in enumerate((2, 1, 0)):
        skip = scales[lvl]
        up = _act(upsample_conv3d(x, skip, p.ups[i].kernel, p.ups[i].bias))
        merged = up.with_features(ad.concat([up.features, skip.features], axis=1))
        x = _act(submanifold_conv3d(merged, p.fuses[i].kernel, p.fuses[i].bias))
    return x


def bev_extract(x: ad.Tensor, p: BevExtractorParams) -> ad.Tensor:
    """2-level down/up 2D pyramid over a (C, H, W) map with a skip concatenation;
    shape-preserving."""
    _c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError("BEV extent must be even for the 2-level pyramid")
    c1 = ad.relu(channel_norm(ad.conv2d(x, p.pre.weight, p.pre.bias)))
    d = ad.relu(channel_norm(ad.conv2d(c1, p.down.weight, p.down.bias, stride=2)))
    d = ad.relu(channel_norm(ad.conv2d(d, p.mid.weight, p.mid.bias)))
    u = ad.relu(channel_norm(ad.conv2d(ad.upsample2x(d), p.up.weight, p.up.bias)))
    return ad.conv2d(ad.concat([c1, u], axis=0), p.fuse.weight, p.fuse.bias)


def aux_seg_head(features: ad.Tensor, head: LinearUnit) -> ad.Tensor:
    """K-way logits per feature row."""
    return features @ head.weight + head.bias
