"""Sparse voxel tensors, submanifold / strided 3D convolutions, and the
lossless mappings between sparse voxel space and dense arrays.

Coordinates are (x, y, z) integer triples inside a (W, H, D) grid.
`pack_coords` and `unpack_coords` own the row-key layout of every grid, at
any rank and with x fastest: (z*H + y)*W + x for (W, H, D) voxels, y*W + x
for (W, H) BEV cells, (k*H + y)*W + x for (W, H, K) class heatmaps. No other
module computes a grid key, except `autodiff.bilinear_sample` below this one.
Convolution rulebooks come from a dense lookup grid padded by one cell: each
source row is written at its key, and one fancy index reads the neighbour
rows of every output site at every live tap. The stride-2 relation a strided conv
builds also serves the transposed conv back onto its input sites, each tap's rows
swapped. `rows_of` (a binary search over the sorted keys) remains for ad-hoc queries.

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
        entry = pairs, sum(map(len, key[-2:])) + sum(a.nbytes + b.nbytes
                                                     for a, b in filter(None, pairs))
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


def _conv_pairs(tensor: SparseVoxelTensor, out_coords: np.ndarray, stride: int, out_shape: tuple):
    """Per-live-tap (input rows, ascending output rows): input = stride * output + offset."""
    shape = tensor.spatial_shape
    key = ("conv", shape, out_shape, stride, tensor._keys.tobytes(), out_coords.tobytes())
    taps = live_taps(shape, out_shape, stride)
    grid_shape = np.maximum(shape, stride * np.array(out_shape))
    return _cached(key, lambda: _rulebook(tensor.coords, out_coords * stride,
                                          KERNEL_OFFSETS[taps], grid_shape))


def _swap(pair):
    """One tap's (fine rows, coarse rows) as (coarse rows, fine rows) by fine row;
    the identity marker (None) maps to itself."""
    order = pair and np.argsort(pair[0], kind="stable")   # sorted for key-ordered sites
    return pair and (pair[1][order], pair[0][order])


def submanifold_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                       bias: ad.Tensor) -> SparseVoxelTensor:
    """3x3x3 sparse convolution whose output sites equal the input sites."""
    pairs = _conv_pairs(t, t.coords, 1, t.spatial_shape)
    out = ad.tap_matmul_scatter(t.features, kernel, pairs, len(t), bias)
    return t.with_features(out)


def strided_conv3d(t: SparseVoxelTensor, kernel: ad.Tensor,
                   bias: ad.Tensor, stride: int = 2) -> SparseVoxelTensor:
    """Downsampling sparse convolution (stride 2, padding 1).

    Active output sites are floor(coords / 2) of the input sites,
    deduplicated; each carries the dense strided convolution value there.
    """
    if any(s % stride for s in t.spatial_shape):
        raise ValueError(f"spatial_shape {t.spatial_shape} not divisible by {stride}")
    out_shape = tuple(s // stride for s in t.spatial_shape)
    if len(t):
        down = t.coords // stride
        keys = np.unique(pack_coords(down, out_shape))
        out_coords = unpack_coords(keys, out_shape)
    else:
        out_coords = np.empty((0, 3), dtype=np.int64)
    pairs = _conv_pairs(t, out_coords, stride, out_shape)
    out = ad.tap_matmul_scatter(t.features, kernel, pairs, len(out_coords), bias)
    return SparseVoxelTensor(out_coords, out, out_shape)


def upsample_conv3d(coarse: SparseVoxelTensor, fine_coords: np.ndarray,
                    fine_shape: tuple, kernel: ad.Tensor,
                    bias: ad.Tensor) -> SparseVoxelTensor:
    """Transposed counterpart of strided_conv3d, restricted to known
    fine-scale coordinates: fine[f] += K[t] . coarse[o] wherever 2o + t = f."""
    # built first so that out-of-grid or duplicate fine sites fail before the lookup
    fine = SparseVoxelTensor(fine_coords, np.zeros((len(fine_coords), 0)), fine_shape)
    key = ("up", coarse.spatial_shape, fine.spatial_shape, coarse._keys.tobytes(),
           fine.coords.tobytes())
    # read off the stride-2 relation that strided_conv3d built from these sites
    pairs = _cached(key, lambda: [_swap(pair) for pair in
                                  _conv_pairs(fine, coarse.coords, 2, coarse.spatial_shape)])
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
