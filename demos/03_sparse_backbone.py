"""The sparse encoder-decoder backbone.

Submanifold convolutions keep the active set fixed; strided convolutions
halve the grid (three of them reach 1/8 resolution); the decoder upsamples
back along the encoder's exact coordinate sets, so no voxel is invented or
lost end to end. The bottleneck also projects losslessly to a dense BEV
map whose heights fold into channels.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from lidarmt import autodiff as ad
from lidarmt import backbone as bb
from lidarmt import sparse

r = np.random.default_rng(0)
shape = (32, 32, 8)
cells = r.choice(np.prod(shape), size=400, replace=False)
coords = np.column_stack([cells % 32, (cells // 32) % 32, cells // (32 * 32)])
t = sparse.SparseVoxelTensor(coords, r.normal(size=(400, 8)), shape)
print(f"input: {len(t)} voxels in {shape}, {t.num_channels} channels")

widths = bb.stage_widths(8)                     # (C, 2C, 4C, 4C)
enc = bb.init_encoder(widths, 8, r, shape)
scales = bb.encode(t, enc)
for i, s in enumerate(scales):
    print(f"  scale 1/{2**i}: shape {s.spatial_shape}, {len(s)} voxels, "
          f"{s.num_channels} channels")

dec = bb.init_decoder(widths, scales[3].num_channels, r, shape)
out = bb.decode(scales, scales[3], dec)
assert np.array_equal(out.coords, t.coords)
print("decoder returns exactly the input coordinate set: ok")

# lossless sparse <-> dense mappings at the bottleneck
bott = scales[3]
dense = sparse.scatter_to_dense(bott)            # (C, D, H, W)
bev = sparse.height_collapse(dense)              # (D*C, H, W)
print(f"\nbottleneck -> dense {dense.shape} -> BEV {bev.shape}")
back = sparse.height_expand(bev, bott.spatial_shape[2])
assert np.array_equal(back.data, dense.data)
rows = sparse.gather_from_dense(dense, bott.coords, bott.spatial_shape)
assert np.array_equal(rows.data, bott.features.data)
print("height collapse/expand and scatter/gather invert exactly: ok")

# the 2D extractor is shape-preserving on the BEV map, a plain (D*C, H, W) tensor
extracted = bb.bev_extract(bev, bb.init_bev_extractor(bev.shape[0], r))
print(f"BEV extractor: {bev.shape} -> {extracted.shape}")

# one dense-oracle spot check of a submanifold convolution
k = ad.Tensor(r.normal(size=(27, 8, 4)))   # (taps, Cin, Cout): all 27 live at full resolution
b = ad.Tensor(r.normal(size=4))
conv = sparse.submanifold_conv3d(t, k, b)
row = 5
keys = sparse.pack_coords(t.coords, shape)
acc = b.data.copy()
for tap, off in enumerate(sparse.KERNEL_OFFSETS):
    nb = t.coords[row] + off
    if ((nb >= 0) & (nb < shape)).all():
        for other in np.nonzero(keys == sparse.pack_coords(nb[None], shape)[0])[0]:
            acc = acc + t.features.data[other] @ k.data[tap]
assert np.allclose(conv.features.data[row], acc, atol=1e-12)
print("submanifold conv matches the neighborhood sum at a random site: ok")
