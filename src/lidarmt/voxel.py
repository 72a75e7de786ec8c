"""Voxelization: floor-indexing, majority-vote voxel labels, the learned
point-to-voxel feature encoder, and the de-voxelization back to points."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import NUM_CLASSES, labels_in_range
from .sparse import pack_coords, unpack_coords


class DevoxelizeError(Exception):
    """A point row maps to no voxel row."""


@dataclass
class VoxelGridSpec:
    """Grid geometry. `lo`, `hi` and `size` are float64 arrays of range_min,
    range_max and voxel_size; dims is ceil((hi - lo) / size), cells indexed (x, y, z)."""

    voxel_size: tuple = (0.5, 0.5, 0.5)
    range_min: tuple = (0.0, 0.0, 0.0)
    range_max: tuple = (16.0, 16.0, 4.0)

    def __post_init__(self):
        self.size = np.asarray(self.voxel_size, dtype=np.float64)
        self.lo = np.asarray(self.range_min, dtype=np.float64)
        self.hi = np.asarray(self.range_max, dtype=np.float64)
        if self.size.shape != (3,) or self.lo.shape != (3,) or self.hi.shape != (3,):
            raise ValueError("voxel_size and ranges must have 3 components")
        if not (self.size > 0).all():
            raise ValueError("voxel_size must be positive")
        if not (self.hi > self.lo).all():
            raise ValueError("range_max must exceed range_min")
        self.dims = tuple(int(d) for d in np.ceil((self.hi - self.lo) / self.size))

    def centers_of(self, indices: np.ndarray) -> np.ndarray:
        return self.lo + (indices.astype(np.float64) + 0.5) * self.size


def in_range_mask(xyz: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    xyz = np.asarray(xyz, dtype=np.float64)
    return ((xyz >= spec.lo) & (xyz < spec.hi)).all(axis=1)


def compute_voxel_index(xyz: np.ndarray, spec: VoxelGridSpec) -> np.ndarray:
    """floor((coord - range_min) / voxel_size) per axis; callers filter range."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    return np.floor((xyz - spec.lo) / spec.size).astype(np.int64)


@dataclass
class VoxelizedFrame:
    """Grouping of in-range points into occupied voxels.

    `kept` masks the original point array; `point_to_voxel` is per kept
    point. Voxel rows are ordered by packed linear index (z-major).
    """

    indices: np.ndarray         # (M, 3) int64 unique voxel indices (x, y, z)
    point_to_voxel: np.ndarray  # (N_kept,) row id into indices
    voxel_labels: np.ndarray    # (M,) majority-vote class id
    kept: np.ndarray            # (N,) bool mask into the original points
    dropped: int                # count of points not kept, non-finite ones included
    non_finite: int             # count of points with a NaN or inf x, y or z
    spec: VoxelGridSpec

    @property
    def num_voxels(self) -> int:
        return len(self.indices)


def majority_vote(group: np.ndarray, labels: np.ndarray, n_groups: int) -> np.ndarray:
    """Most frequent label in 1..NUM_CLASSES of each group 0..n_groups-1, as
    int32; ties go to the lowest class, and a group without members gets 1."""
    keys = pack_coords(np.column_stack([labels - 1, group]), (NUM_CLASSES, n_groups))
    counts = np.bincount(keys, minlength=NUM_CLASSES * n_groups).reshape(n_groups, NUM_CLASSES)
    return (np.argmax(counts, axis=1) + 1).astype(np.int32)


def group_and_vote(xyz: np.ndarray, labels: np.ndarray,
                   spec: VoxelGridSpec) -> VoxelizedFrame:
    """Group in-range points by voxel and majority-vote a label per voxel.

    Ties break toward the lowest class id. Out-of-range points are dropped
    and counted, not raised; a label outside 1..NUM_CLASSES is a ValueError.
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    labels = np.asarray(labels).reshape(-1)
    if not labels_in_range(labels):
        raise ValueError(f"point label outside 1..{NUM_CLASSES}")
    kept = in_range_mask(xyz, spec)
    keys = pack_coords(compute_voxel_index(xyz[kept], spec), spec.dims)
    uniq, inverse = np.unique(keys, return_inverse=True)
    voxel_labels = majority_vote(inverse, labels[kept].astype(np.int64), len(uniq))
    return VoxelizedFrame(indices=unpack_coords(uniq, spec.dims), point_to_voxel=inverse,
                          voxel_labels=voxel_labels, kept=kept,
                          dropped=int(len(xyz) - kept.sum()),
                          non_finite=int(len(xyz) - np.isfinite(xyz).all(axis=1).sum()),
                          spec=spec)


@dataclass
class VfeParams:
    """Stacked affine layers; each is affine -> feature-axis norm -> relu,
    then an elementwise max over each voxel's member points."""

    weights: list = field(default_factory=list)  # [(W, b), ...] of ad.Tensor
    out_proj: tuple | None = None                # optional (W, b) without norm/relu

    @property
    def in_dim(self) -> int:
        return self.weights[0][0].shape[0]


def init_vfe_params(in_dim: int, widths: list[int], rng: np.random.Generator,
                    out_dim: int | None = None) -> VfeParams:
    p = VfeParams()
    prev = in_dim
    for w in widths:
        scale = np.sqrt(2.0 / prev)
        p.weights.append((ad.parameter(rng.normal(0, scale, size=(prev, w))),
                          ad.parameter(np.zeros(w))))
        prev = w
    if out_dim is not None:
        scale = np.sqrt(1.0 / prev)
        p.out_proj = (ad.parameter(rng.normal(0, scale, size=(prev, out_dim))),
                      ad.parameter(np.zeros(out_dim)))
    return p


def augment_point_features(frame: VoxelizedFrame, point_feats: np.ndarray) -> np.ndarray:
    """Append the 6 geometric features: voxel center and offset to it."""
    feats = np.asarray(point_feats, dtype=np.float64)
    centers = frame.spec.centers_of(frame.indices)[frame.point_to_voxel]
    offsets = feats[:, :3] - centers
    return np.concatenate([feats, centers, offsets], axis=1)


def voxel_feature_encode(frame: VoxelizedFrame, point_feats: np.ndarray,
                         params: VfeParams) -> ad.Tensor:
    """Per-point MLP then per-voxel elementwise max over member points."""
    aug = augment_point_features(frame, point_feats)
    if aug.shape[1] != params.in_dim:
        raise ValueError(f"VFE expects width {params.in_dim}, got {aug.shape[1]}")
    x = ad.constant(aug)
    for w, b in params.weights:
        x = ad.relu(ad.layer_norm(x @ w + b))
    pooled = ad.segment_max(x, frame.point_to_voxel, frame.num_voxels)
    if params.out_proj is not None:
        w, b = params.out_proj
        pooled = pooled @ w + b
    return pooled


def devoxelize(voxel_values: np.ndarray, point_to_voxel: np.ndarray) -> np.ndarray:
    """Broadcast per-voxel values back to points."""
    voxel_values = np.asarray(voxel_values)
    p2v = np.asarray(point_to_voxel)
    if len(p2v) and (p2v.min() < 0 or p2v.max() >= len(voxel_values)):
        raise DevoxelizeError("point maps outside the voxel table")
    return voxel_values[p2v]
