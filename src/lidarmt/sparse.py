"""Sparse voxel tensors, submanifold / strided 3D convolutions, and the
lossless mappings between sparse voxel space and dense arrays.

Coordinates are (x, y, z) integer triples inside a (W, H, D) grid.
`pack_coords` and `unpack_coords` own the row-key layout of every grid, at
any rank and with x fastest: (z*H + y)*W + x for (W, H, D) voxels, y*W + x
for (W, H) BEV cells, (k*H + y)*W + x for (W, H, K) class heatmaps. No other
module computes a grid key, except `autodiff.bilinear_sample` below this one.
Convolution rulebooks come from a dense lookup grid padded by one cell: each
source row is written at its key, and one fancy index reads the neighbour
rows of every output site at every live tap.

Rulebooks belong to their coordinate set, as in Minkowski Engine's coordinate
manager: every tensor on one set (`with_features`) shares its memo, built once.
A strided conv memoizes the child set's sites, the stride-2 relation and the
child's own memo, so a frame's sites form a pyramid of memos. The transposed
conv back onto these sites takes that child alone (any other coarse set is a
CoordinateError) and reads the relation with each tap's rows swapped.
`frame_tensor` keeps the pyramids of recent frames within a budget on the
bytes of their site keys.

Convolutions are cross-correlations, out[p] = sum_t K[t] . in[p + off_t], with a
(T, Cin, Cout) kernel over the T live taps (`live_taps`): the offsets in {-1, 0, 1}^3
that pair some in-grid input site with some in-grid output site on every axis.

A BEV map is a plain (D*C, H, W) tensor whose channel block j is height slice j;
`height_collapse` and `height_expand` alone own that layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad


class CoordinateError(Exception):
    """Coordinates outside the grid, or duplicated."""


KERNEL_OFFSETS = np.array([(dx, dy, dz)
                           for dx in (-1, 0, 1)
                           for dy in (-1, 0, 1)
                           for dz in (-1, 0, 1)], dtype=np.int64)


@lru_cache(maxsize=None)
def live_taps(in_shape: tuple, out_shape: tuple, stride: int) -> np.ndarray:
    """Read-only indices into KERNEL_OFFSETS of the offsets d with in = stride * out + d
    for in-grid sites: d = 0 alone on a size-1 submanifold axis, d >= 0 on a size-1 out axis."""
    first = (KERNEL_OFFSETS < 0).astype(np.int64)   # the first output a d < 0 reaches
    taps = np.nonzero(((first < out_shape) & (stride * first + KERNEL_OFFSETS < in_shape)).all(1))[0]
    taps.flags.writeable = False
    return taps


def pack_coords(coords: np.ndarray, shape: tuple) -> np.ndarray:
    """Row keys of (N, len(shape)) integer coordinates, the first axis fastest."""
    keys = coords[:, len(shape) - 1]
    for axis in range(len(shape) - 2, -1, -1):
        keys = keys * shape[axis] + coords[:, axis]
    return keys


def unpack_coords(keys: np.ndarray, shape: tuple) -> np.ndarray:
    """(N, len(shape)) int64 coordinates of non-negative row keys; inverse of pack_coords."""
    out = np.empty((len(keys), len(shape)), dtype=np.int64)
    rest = keys
    for axis, size in enumerate(shape[:-1]):
        rest, out[:, axis] = np.divmod(rest, size)
    out[:, -1] = rest
    return out


class SparseVoxelTensor:
    """Coordinate list + feature matrix, single sample, immutable; `_memo` holds
    the rulebooks of its coordinate set (see the module docstring)."""

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
        if len(keys) > 1 and (np.diff(np.sort(keys)) == 0).any():
            raise CoordinateError("duplicate coordinates")
        self.coords, self._keys, self.spatial_shape, self._memo = coords, keys, shape, {}
        self.features = features

    def __len__(self):
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        return self.features.data.shape[1]

    def with_features(self, features) -> "SparseVoxelTensor":
        return _on_sites(self.coords, self._keys, self.spatial_shape, self._memo, features)


def _on_sites(coords, keys, shape, memo, features) -> SparseVoxelTensor:
    """A tensor on sites known to be valid, sharing their rulebook memo."""
    out = SparseVoxelTensor.__new__(SparseVoxelTensor)
    out.coords, out._keys, out.spatial_shape, out._memo = coords, keys, shape, memo
    out.features = features if isinstance(features, ad.Tensor) else ad.Tensor(features)
    return out


def _memoized(memo: dict, key, build):
    # keys: 1 the submanifold rulebook, 2 the child set (`_child`), -2 the transposed relation
    if key not in memo:
        memo[key] = build()
    return memo[key]


# A frame's rulebooks repeat whenever its voxels do (a revisited scene); the memos of
# recent frames stay, least recently used first, while their int64 keys fit a budget:
# on the bench configs a frame's rulebooks take 36-39 bytes per key byte.
_FRAMES: dict = {}               # (shape, key bytes) -> memo
_FRAME_KEY_BYTES = 224 << 10     # about 8 MB of rulebooks; 4x what 8 default scenes hold


def frame_tensor(coords: np.ndarray, features, spatial_shape: tuple) -> SparseVoxelTensor:
    """A full-resolution SparseVoxelTensor that shares the rulebook memo of a
    recent frame on the same sites."""
    t = SparseVoxelTensor(coords, features, spatial_shape)
    key = (t.spatial_shape, t._keys.tobytes())
    t._memo = _FRAMES[key] = _FRAMES.pop(key, {})    # most recently used last
    while sum(len(k[1]) for k in _FRAMES) > _FRAME_KEY_BYTES:
        del _FRAMES[next(iter(_FRAMES))]
    return t


def _rulebook(sources: np.ndarray, queries: np.ndarray, offsets: np.ndarray,
              grid_shape) -> list:
    """Per-tap (source rows, query rows) where sources[s] == queries[q] + offsets[t].

    Sources and queries are unique positions inside grid_shape, so neither
    row array of a tap holds a duplicate. A lookup grid padded by one cell
    holds each source's row (-1 where empty); one fancy index reads all taps.
    A tap mapping arange(n) onto itself, n = len(sources) = len(queries), is None.
    """
    dims = np.asarray(grid_shape) + 2
    grid = np.full(int(np.prod(dims)), -1, dtype=np.int64)
    grid[pack_coords(sources + 1, dims)] = np.arange(len(sources))
    nbr = grid[pack_coords(offsets, dims)[:, None] + pack_coords(queries + 1, dims)]
    pairs = []
    for rows in nbr:
        hit = np.nonzero(rows >= 0)[0]
        identity = 0 < len(sources) == len(hit) == len(rows) and (rows == hit).all()
        pairs.append(None if identity else (rows[hit], hit))
    return pairs


def _swap(pair):
    """One tap's (source rows, query rows) as (query rows, source rows); the
    identity marker (None) maps to itself. On key-ordered sites (every set the
    model builds) both row arrays already increase, as q -> q + d and
    c -> 2c + d keep key order, so the result is a lookup's own order."""
    return pair and (pair[1], pair[0])


def submanifold_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                       bias: ad.Tensor) -> SparseVoxelTensor:
    """3x3x3 sparse convolution whose output sites equal the input sites."""
    shape = t.spatial_shape
    taps = live_taps(shape, shape, 1)

    def build():   # live offsets are symmetric and sorted: tap T-1-t is tap t swapped
        half = _rulebook(t.coords, t.coords, KERNEL_OFFSETS[taps[:len(taps) // 2 + 1]], shape)
        return half + [_swap(pair) for pair in half[-2::-1]]

    pairs = _memoized(t._memo, 1, build)
    out = ad.tap_matmul_scatter(t.features, kernel, pairs, len(t), bias)
    return t.with_features(out)


def _child(t: SparseVoxelTensor, shape: tuple) -> tuple:
    """Memo entry 2 of t's sites: the child sites floor(coords / 2), deduplicated,
    with their keys, the per-tap (input rows, child rows) and the child's memo."""
    keys = np.unique(pack_coords(t.coords // 2, shape))
    coords = unpack_coords(keys, shape)
    offsets = KERNEL_OFFSETS[live_taps(t.spatial_shape, shape, 2)]
    return coords, keys, _rulebook(t.coords, 2 * coords, offsets, t.spatial_shape), {}


def strided_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                   bias: ad.Tensor) -> SparseVoxelTensor:
    """Downsampling sparse convolution (stride 2, padding 1).

    Active output sites are floor(coords / 2) of the input sites,
    deduplicated; each carries the dense strided convolution value there.
    """
    if any(s % 2 for s in t.spatial_shape):
        raise ValueError(f"spatial_shape {t.spatial_shape} not divisible by 2")
    shape = tuple(s // 2 for s in t.spatial_shape)
    coords, keys, pairs, memo = _memoized(t._memo, 2, lambda: _child(t, shape))
    out = ad.tap_matmul_scatter(t.features, kernel, pairs, len(coords), bias)
    return _on_sites(coords, keys, shape, memo, out)


def upsample_conv3d(coarse: SparseVoxelTensor, fine: SparseVoxelTensor,
                    kernel: ad.Tensor, bias: ad.Tensor) -> SparseVoxelTensor:
    """Transposed counterpart of strided_conv3d(fine) onto the sites of `fine`:
    fine[f] += K[t] . coarse[o] wherever 2o + t = f. `coarse` must lie on the
    sites that strided_conv3d made from `fine`; its pairs are read off that relation."""
    child = fine._memo.get(2)
    if child is None or child[3] is not coarse._memo:
        raise CoordinateError("coarse sites were not strided from these fine sites")
    pairs = _memoized(fine._memo, -2, lambda: [_swap(pair) for pair in child[2]])
    out = ad.tap_matmul_scatter(coarse.features, kernel, pairs, len(fine), bias)
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
