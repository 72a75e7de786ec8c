"""The shared class/center query decoder and the dynamic segmentation kernel.

Class queries start as prediction-weighted feature prototypes; center
queries start at heatmap peaks. A shared self-attention couples the two
query sets (the cross-task link), class queries cross-attend to voxels,
center queries to a local BEV window, and an inverse attention writes class
information back into the voxel stream. The refined class embedding then
IS the segmentation classifier.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from lidarmt import autodiff as ad
from lidarmt import cross_task as xt
from lidarmt.backbone import LinearUnit

r = np.random.default_rng(0)
K, M, C = 4, 30, 8

# class prototypes from a coarse prediction
raw = r.uniform(0.05, 1, size=(M, K))
pred = raw / raw.sum(axis=1, keepdims=True)
feats = r.normal(size=(M, C))
eps0 = xt.init_class_embedding(ad.Tensor(pred), ad.Tensor(feats))
print(f"class embedding from weighted means: {eps0.shape}")

# center proposals from heatmap peaks
hm = np.full((2, 4, 4), 0.02)
hm[0, 1, 1] = 0.9
hm[1, 2, 3] = 0.7
proj = LinearUnit(weight=ad.Tensor(np.eye(C)), bias=ad.Tensor(np.zeros(C)))
pos_emb = ad.Tensor(0.01 * r.normal(size=(16, C)))
bev_rows = ad.Tensor(r.normal(size=(16, C)))
centers = xt.propose_centers(hm, bev_rows, n_ctr=4, proj=proj, pos_emb=pos_emb)
print("proposals (u, v, class, score):")
for (u, v), c, s in zip(centers.positions, centers.class_ids, centers.scores):
    print(f"  ({u},{v}) class {c} score {s:.2f}")

# run the decoder stack; init_cross_task zeroes the output projection of every
# residual branch (the decoder starts as the identity), so draw them here
params = xt.init_cross_task(C, voxel_dim=C, bev_dim=C, grid_hw=(4, 4), rng=r,
                            n_layers=2, n_heads=2, head_dim=4, ffn_hidden=16, window=3)
for layer in params.layers:
    for t in (layer.self_attn.wo, layer.class_cross.wo, layer.center_cross.wo,
              layer.inverse.wo, layer.ffn.w2):
        t.data[:] = r.normal(0, np.sqrt(1.0 / t.data.shape[0]), t.data.shape)
voxels = ad.Tensor(r.normal(size=(M, C)))
eps, cen, refined = xt.decode_queries(eps0, centers, voxels, bev_rows, (4, 4), params)
print(f"\nrefined: classes {eps.shape}, centers {cen.shape}, voxels {refined.shape}")
print(f"largest change: classes {np.abs(eps.data - eps0.data).max():.2f}, "
      f"voxels {np.abs(refined.data - voxels.data).max():.2f}")

# the shared self-attention is the cross-task link: moving the center queries
# moves the class embedding
moved = xt.CenterQuerySet(ad.Tensor(centers.queries.data + r.normal(size=cen.shape)),
                          centers.positions, centers.scores, centers.class_ids)
e_moved, _, _ = xt.decode_queries(eps0, moved, voxels, bev_rows, (4, 4), params)
print(f"class embedding shift from moved center queries: "
      f"{np.abs(e_moved.data - eps.data).max():.3f}")

# the dynamic kernel: refined class rows are the classifier weights
phi = LinearUnit(weight=ad.Tensor(r.normal(size=(2 * C, C)) * 0.3),
                 bias=ad.Tensor(np.zeros(C)))
v_r = ad.concat([voxels, refined], axis=1)
logits = xt.dynamic_kernel_logits(v_r, eps, phi)
print(f"semantic logits via dynamic kernel: {logits.shape}, "
      f"rows max |logit| {np.abs(logits.data).max():.2f}")
