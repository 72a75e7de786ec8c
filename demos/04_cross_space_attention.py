"""Cross-space attention between sparse voxels and the dense BEV map.

Each query learns per-head fractional offsets and softmax weights over
every (height, sampling point) pair, samples the height-sliced maps
bilinearly at the shifted locations, and mixes heads. At init the offsets
form a small star and the weights are uniform, so the module starts as an
analytically known height-average; training bends the offsets outward.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from lidarmt import autodiff as ad
from lidarmt import cross_space as xs
from lidarmt import sparse

r = np.random.default_rng(0)

# the primitive: bilinear sampling on a feature slice
m = r.normal(size=(4, 4, 2))
at = ad.bilinear_sample(ad.Tensor(m[None]), ad.Tensor(np.array([[2.0, 1.0]])),
                        np.zeros(1, dtype=np.int64))
print("bilinear at integer (2,1):", at.data[0])
print("           stored value  :", m[1, 2])

# degenerate case: zero offsets + uniform weights = projected height mean
p = xs.init_deform_attn(channels=6, n_heads=2, head_dim=4, n_points=3,
                        n_heights=2, rng=r)
p.offset_b.data[:] = 0.0
maps = ad.Tensor(r.normal(size=(2, 4, 4, 6)))
q = ad.Tensor(r.normal(size=(1, 6)))
ref = np.array([[2.0, 1.0]])
out = xs.mh_deform_attn(q, ref, maps, p)
want = (maps.data[:, 1, 2].mean(axis=0) @ p.value_w.data) @ p.out_w.data
print(f"\ndegenerate attention == projected height mean: "
      f"{np.abs(out.data[0] - want).max():.2e} max abs diff")

# both directions over a toy bottleneck tensor; random logit generators
# stand in for a trained model so the weights are not uniform
params = xs.init_cross_space(channels=6, grid_hw=(4, 4), n_heights=2, rng=r,
                             n_heads=2, head_dim_d2s=4, head_dim_s2d=4,
                             n_points=2, ffn_hidden=16)
for blk in params.d2s_blocks + params.s2d_blocks:
    blk.attn.logit_w.data[:] = r.normal(size=blk.attn.logit_w.data.shape)
cells = r.choice(4 * 4 * 2, size=9, replace=False)
coords = np.column_stack([cells % 4, (cells // 4) % 4, cells // 16])
t = sparse.SparseVoxelTensor(coords, r.normal(size=(9, 6)), (4, 4, 2))

collector = xs.OffsetCollector()
bev = xs.sparse_to_dense(t, params, collector)
print(f"\nsparse ({len(t)} voxels) -> dense (heights*C, H, W) BEV {bev.shape}")
back = xs.dense_to_sparse(bev, coords, params, collector)
print(f"dense -> sparse features {back.shape} at the {len(coords)} valid coords")

rows = collector.stacked()
print(f"\noffset records: {len(rows)} rows of (u v h head height point du dv w)")
radii = np.hypot(rows[:, 6], rows[:, 7])
print(f"offset radius: min {radii.min():.3f} max {radii.max():.3f} cells")
top = rows[rows[:, 8] >= np.quantile(rows[:, 8], 0.75)]
print(f"rows with top-quartile attention weight: {len(top)}")
