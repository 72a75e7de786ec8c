"""Sparse voxel tensors, submanifold / strided 3D convolutions, and the
lossless mappings between sparse voxel space and dense arrays.

Coordinates are (x, y, z) integer triples inside a (W, H, D) grid, packed
to a 64-bit linear key (z*H + y)*W + x. Convolution rulebooks come from a
dense lookup grid padded by one cell: each source row is written at its
linear key, and one fancy index reads all 27 neighbour rows of every output
site. `rows_of` (a binary search over the sorted keys) remains for ad-hoc
queries.

Convolutions are cross-correlations: out[p] = sum_t K[t] . in[p + off_t],
with taps enumerated row-major over (dx, dy, dz) in {-1, 0, 1}^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


class CoordinateError(Exception):
    """Coordinates outside the grid, or duplicated."""


KERNEL_OFFSETS = np.array([(dx, dy, dz)
                           for dx in (-1, 0, 1)
                           for dy in (-1, 0, 1)
                           for dz in (-1, 0, 1)], dtype=np.int64)


def pack_coords(coords: np.ndarray, shape: tuple) -> np.ndarray:
    w, h, _d = shape
    return (coords[:, 2] * h + coords[:, 1]) * w + coords[:, 0]


def unpack_coords(keys: np.ndarray, shape: tuple) -> np.ndarray:
    w, h, _d = shape
    out = np.empty((len(keys), 3), dtype=np.int64)
    out[:, 0] = keys % w
    out[:, 1] = (keys // w) % h
    out[:, 2] = keys // (w * h)
    return out


class SparseVoxelTensor:
    """Coordinate list + feature matrix, single sample, immutable."""

    def __init__(self, coords: np.ndarray, features, spatial_shape: tuple):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        if not isinstance(features, ad.Tensor):
            features = ad.Tensor(features)
        if features.data.ndim != 2 or len(features.data) != len(coords):
            raise ValueError("features must be (M, C) aligned with coords")
        shape = tuple(int(s) for s in spatial_shape)
        if len(coords) and ((coords < 0).any() or (coords >= np.array(shape)).any()):
            raise CoordinateError("coords outside spatial_shape")
        keys = pack_coords(coords, shape)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if len(sorted_keys) > 1 and (np.diff(sorted_keys) == 0).any():
            raise CoordinateError("duplicate coordinates")
        self.coords = coords
        self.features = features
        self.spatial_shape = shape
        self._keys = keys
        self._sorted_keys = sorted_keys
        self._order = order

    def __len__(self):
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        return self.features.data.shape[1]

    def rows_of(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: (row ids, found mask) for query coordinates.

        Out-of-grid queries are simply not found.
        """
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        shape = np.array(self.spatial_shape)
        in_grid = ((coords >= 0) & (coords < shape)).all(axis=1)
        keys = pack_coords(np.clip(coords, 0, shape - 1), self.spatial_shape)
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.clip(pos, 0, max(len(self._sorted_keys) - 1, 0))
        if len(self._sorted_keys):
            found = in_grid & (self._sorted_keys[pos] == keys)
            rows = self._order[pos]
        else:
            found = np.zeros(len(coords), dtype=bool)
            rows = np.zeros(len(coords), dtype=np.int64)
        return rows, found

    @property
    def coord_index(self) -> dict:
        """Coordinate-triple -> row mapping (materialized for inspection)."""
        return {tuple(c): r for r, c in enumerate(map(tuple, self.coords))}

    def with_features(self, features) -> "SparseVoxelTensor":
        out = SparseVoxelTensor.__new__(SparseVoxelTensor)
        out.coords = self.coords
        out.spatial_shape = self.spatial_shape
        out._keys = self._keys
        out._sorted_keys = self._sorted_keys
        out._order = self._order
        if not isinstance(features, ad.Tensor):
            features = ad.Tensor(features)
        out.features = features
        return out


@dataclass
class DenseBEVMap:
    """Height-collapsed 2D feature grid; channels are height-major blocks."""

    features: ad.Tensor          # (C * n_heights, H, W)
    n_heights: int

    def __post_init__(self):
        if not isinstance(self.features, ad.Tensor):
            self.features = ad.Tensor(self.features)
        if self.features.data.shape[0] % self.n_heights:
            raise ValueError("channel count not divisible by n_heights")

    @property
    def hw(self) -> tuple:
        return self.features.data.shape[1:]


# Rulebooks depend only on coordinate geometry, which repeats every time the
# same scene is revisited; cache them by the raw coordinate bytes. Over budget,
# least recently used entries go down to half of it, so that every miss changes
# the entry count: bench/spans.py counts misses by it.
_RULEBOOK_CACHE: dict = {}      # key -> (per-tap pairs, bytes of key and pairs)
_RULEBOOK_CACHE_BYTES = 8 << 20   # 2.7x what 8 default scenes need; more adds page faults


def _cached(key, build):
    entry = _RULEBOOK_CACHE.pop(key, None)
    if entry is None:
        pairs = build()
        # the last two parts of a key are the coordinate byte strings
        entry = pairs, sum(map(len, key[-2:])) + sum(a.nbytes + b.nbytes for a, b in pairs)
        held = sum(size for _, size in _RULEBOOK_CACHE.values())
        if held + entry[1] > _RULEBOOK_CACHE_BYTES:
            while _RULEBOOK_CACHE and held + entry[1] > _RULEBOOK_CACHE_BYTES // 2:
                held -= _RULEBOOK_CACHE.pop(next(iter(_RULEBOOK_CACHE)))[1]
    _RULEBOOK_CACHE[key] = entry    # most recently used last
    return entry[0]


def _rulebook(sources: np.ndarray, queries: np.ndarray, offsets: np.ndarray,
              grid_shape) -> list:
    """Per-tap (source rows, query rows) where sources[s] == queries[q] + offsets[t].

    Sources and queries are unique positions inside grid_shape, so neither
    row array of a tap holds a duplicate. A lookup grid padded by one cell
    holds each source's row (-1 where empty); one fancy index reads all taps.
    """
    dims = np.asarray(grid_shape) + 2
    grid = np.full(int(np.prod(dims)), -1, dtype=np.int64)
    grid[pack_coords(sources + 1, dims)] = np.arange(len(sources))
    nbr = grid[pack_coords(offsets, dims)[:, None] + pack_coords(queries + 1, dims)]
    pairs = []
    for rows in nbr:
        hit = np.nonzero(rows >= 0)[0]
        pairs.append((rows[hit], hit))
    return pairs


def _conv_pairs(tensor: SparseVoxelTensor, out_coords: np.ndarray, stride: int):
    """Per-tap (input rows, output rows) route for a 3x3x3 correlation."""
    key = ("conv", tensor.spatial_shape, stride, tensor._keys.tobytes(),
           out_coords.tobytes())
    return _cached(key, lambda: _rulebook(tensor.coords, out_coords * stride,
                                          KERNEL_OFFSETS, tensor.spatial_shape))


def submanifold_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                       bias: ad.Tensor) -> SparseVoxelTensor:
    """3x3x3 sparse convolution whose output sites equal the input sites."""
    if kernel.data.shape[:3] != (3, 3, 3) or kernel.data.shape[3] != t.num_channels:
        raise ValueError(f"kernel shape {kernel.data.shape} does not fit input")
    k = ad.reshape(kernel, (27, kernel.data.shape[3], kernel.data.shape[4]))
    pairs = _conv_pairs(t, t.coords, stride=1)
    out = ad.tap_matmul_scatter(t.features, k, pairs, len(t), bias)
    return t.with_features(out)


def strided_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                   bias: ad.Tensor, stride: int = 2) -> SparseVoxelTensor:
    """Downsampling sparse convolution (stride 2, padding 1).

    Active output sites are floor(coords / 2) of the input sites,
    deduplicated; each carries the dense strided convolution value there.
    """
    if any(s % stride for s in t.spatial_shape):
        raise ValueError(f"spatial_shape {t.spatial_shape} not divisible by {stride}")
    if kernel.data.shape[3] != t.num_channels:
        raise ValueError("kernel input width mismatch")
    out_shape = tuple(s // stride for s in t.spatial_shape)
    if len(t):
        down = t.coords // stride
        keys = np.unique(pack_coords(down, out_shape))
        out_coords = unpack_coords(keys, out_shape)
    else:
        out_coords = np.empty((0, 3), dtype=np.int64)
    k = ad.reshape(kernel, (27, kernel.data.shape[3], kernel.data.shape[4]))
    pairs = _conv_pairs(t, out_coords, stride=stride)
    out = ad.tap_matmul_scatter(t.features, k, pairs, len(out_coords), bias)
    return SparseVoxelTensor(out_coords, out, out_shape)


def upsample_conv3d(coarse: SparseVoxelTensor, fine_coords: np.ndarray,
                    fine_shape: tuple, kernel: ad.Tensor,
                    bias: ad.Tensor) -> SparseVoxelTensor:
    """Transposed counterpart of strided_conv3d, restricted to known
    fine-scale coordinates: fine[f] += K[t] . coarse[o] wherever 2o + t = f."""
    # built first so that out-of-grid or duplicate fine sites fail before the lookup
    fine = SparseVoxelTensor(fine_coords, np.zeros((len(fine_coords), 0)), fine_shape)
    grid_shape = np.maximum(fine.spatial_shape, 2 * np.array(coarse.spatial_shape))
    key = ("up", coarse.spatial_shape, coarse._keys.tobytes(), fine.coords.tobytes())
    pairs = _cached(key, lambda: _rulebook(2 * coarse.coords, fine.coords, -KERNEL_OFFSETS,
                                           grid_shape))
    k = ad.reshape(kernel, (27, kernel.data.shape[3], kernel.data.shape[4]))
    out = ad.tap_matmul_scatter(coarse.features, k, pairs, len(fine), bias)
    return fine.with_features(out)


def scatter_to_dense(t: SparseVoxelTensor) -> ad.Tensor:
    """Write features into a zero (C, D, H, W) array at the active sites."""
    w, h, d = t.spatial_shape
    linear = pack_coords(t.coords, t.spatial_shape)
    flat = ad.put_rows(t.features, linear, w * h * d)           # (D*H*W, C)
    return ad.transpose(ad.reshape(flat, (d, h, w, t.num_channels)), (3, 0, 1, 2))


def gather_from_dense(dense: ad.Tensor, coords: np.ndarray,
                      spatial_shape: tuple) -> ad.Tensor:
    """Read (M, C) feature rows of a (C, D, H, W) array at coords."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    shape = np.array(spatial_shape)
    if len(coords) and ((coords < 0).any() or (coords >= shape).any()):
        raise CoordinateError("gather coordinate outside the dense array")
    c, d, h, w = dense.data.shape
    flat = ad.reshape(ad.transpose(dense, (1, 2, 3, 0)), (d * h * w, c))
    return ad.gather_rows(flat, pack_coords(coords, spatial_shape))


def height_collapse(dense: ad.Tensor) -> ad.Tensor:
    """(C, D, H, W) -> (D*C, H, W); channel block j is height slice j."""
    c, d, h, w = dense.data.shape
    return ad.reshape(ad.transpose(dense, (1, 0, 2, 3)), (d * c, h, w))


def height_expand(bev: ad.Tensor, n_heights: int) -> ad.Tensor:
    """Exact inverse of height_collapse."""
    dc, h, w = bev.data.shape
    if dc % n_heights:
        raise ValueError(f"{dc} channels not divisible into {n_heights} heights")
    c = dc // n_heights
    return ad.transpose(ad.reshape(bev, (n_heights, c, h, w)), (1, 0, 2, 3))
