"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Everything learnable in this package flows through the `Tensor` type defined
here. The op set is deliberately small: elementwise arithmetic, matmul with
leading-dimension broadcast, reductions, indexing, softmax, plus the few
custom primitives the pipeline needs (layer norm, segment max, bilinear map
sampling, dense 2D convolution, gather/scatter rows). Each primitive carries
its own vector-Jacobian product, and the whole engine is validated against
central finite differences in the test suite.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_recording = True   # False inside no_grad(): ops build no tape


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_wrap(other), power(self, -1.0))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return gather(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    # -- backward engine ----------------------------------------------------

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf. Leaf
        grads may share a buffer (a vjp may hand one, or views of it, to several
        leaves), so nothing writes a grad in place after backward returns."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no tape (a constant, or "
                             "computed under no_grad)")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        # leaves that never entered `grads` simply received zero gradient


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x)


def parameter(x) -> Tensor:
    return Tensor(x, requires_grad=True)


@contextmanager
def no_grad():
    """Run ops without recording a tape: results are plain tensors with no
    parents and no vjp, so each intermediate is freed once unreferenced.
    Nests, and restores the previous state on exit, exceptions included."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def power(a: Tensor, p: float) -> Tensor:
    out = a.data ** p
    return _make(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):   # exp(-a) = inf below about -709: out is 0.0
        out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a,), lambda g: (g * sign,))


def where_mask(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean mask."""
    a, b = _wrap(a), _wrap(b)
    out = np.where(mask, a.data, b.data)
    return _make(out, (a, b),
                 lambda g: (_unbroadcast(g * mask, a.data.shape),
                            _unbroadcast(g * ~mask, b.data.shape)))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


# -- linear algebra / shape -------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(a.data @ b.data, (a, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                 lambda g: tuple(np.split(g, splits, axis=axis)))


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / n,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    """numpy reduces fastest along an outer axis: put a short softmax axis first."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_array_vjp(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """dS = P * (dP - rowsum(dP * P)) for P = softmax_array(S, axis)."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = softmax_array(a.data, axis)
    return _make(out, (a,), lambda g: (softmax_array_vjp(out, g, axis),))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), vjp)


def layer_norm(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Standardize over the last axis. Non-affine by design. One tape node: the
    closed-form vjp of Ba et al. (arXiv 1607.06450) keeps only `out` and `r`.
    Its four row sums are np.einsum loops: no BLAS, no temporary, each row on its
    own, so a block of rows gets the whole-array bytes (for one memory layout). They
    round unlike np.mean's pairwise sum: within 8 eps (1 + |mean|/std) of out's scale."""
    n = x.data.shape[-1]
    out = x.data - np.einsum("...i->...", x.data)[..., None] / n
    r = (np.einsum("...i,...i->...", out, out)[..., None] / n + eps) ** -0.5
    out *= r

    def vjp(g):
        d = g - np.einsum("...i->...", g)[..., None] / n
        d -= out * (np.einsum("...i,...i->...", g, out)[..., None] / n)
        d *= r
        return (d,)

    return _make(out, (x,), vjp)


# -- indexing ---------------------------------------------------------------

def gather(a: Tensor, idx) -> Tensor:
    """numpy-style indexing; gradient scatters back with np.add.at."""
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(out, (a,), vjp)


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    return gather(a, np.asarray(rows))


def put_rows(values: Tensor, rows: np.ndarray, n_rows: int) -> Tensor:
    """Scatter-add `values` (N, ...) into a zero tensor of n_rows rows."""
    rows = np.asarray(rows)
    out = np.zeros((n_rows,) + values.data.shape[1:], dtype=np.float64)
    np.add.at(out, rows, values.data)
    return _make(out, (values,), lambda g: (g[rows],))


def _fold_reduceat(ufunc, rows: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """ufunc.reduceat(rows[order], starts, axis=0), non-empty segments: one pass per rank to the cut."""
    cut = 8   # only crowded voxels hold more points
    counts = np.diff(starts, append=len(order))
    out = rows[order[starts]]
    for rank in range(1, cut):
        seg = np.nonzero(counts > rank)[0]
        out[seg] = ufunc(out[seg], rows[order[starts[seg] + rank]])
    ranks = np.arange(len(order)) - np.repeat(starts, counts)
    tail, crowd = ranks >= cut, counts > cut
    out[crowd] = ufunc(out[crowd], ufunc.reduceat(rows[order[tail]], np.flatnonzero(ranks[tail] == cut),
                                                  axis=0))
    return out


def segment_max(values: Tensor, group_id: np.ndarray, n_groups: int) -> Tensor:
    """Per-group columnwise max of `values` (N, C) under `group_id` (N,).

    Group ids must fill range(n_groups). The subgradient routes to the
    first maximizing row of each (group, column), matching np.argmax tie-breaking;
    a NaN maximum (np.maximum propagates NaN) routes to the first NaN row.
    The max and the first-winner search run as an exact `_fold_reduceat`: values equal
    np.maximum.reduceat's (a +0.0/-0.0 tie may flip a zero's sign), gradients its bytes.
    """
    data = values.data
    n, c = data.shape
    order = np.argsort(group_id, kind="stable")
    sorted_gid = group_id[order]
    starts = np.searchsorted(sorted_gid, np.arange(n_groups))
    if (n or n_groups) and (n < n_groups or sorted_gid[0] < 0 or sorted_gid[-1] >= n_groups
                            or (sorted_gid[np.minimum(starts, n - 1)] != np.arange(n_groups)).any()):
        raise ValueError("segment_max requires group ids that fill range(n_groups)")
    if n_groups == 0:
        return _make(np.zeros((0, c)), (values,), lambda g: (np.zeros_like(data),))
    out = _fold_reduceat(np.maximum, data, order, starts)

    def vjp(g):
        # first maximizing row per (group, column), in stable sorted order
        sorted_pos = np.empty_like(order)
        sorted_pos[order] = np.arange(n)
        pos = np.where((data == out[group_id]) | np.isnan(data), sorted_pos[:, None], n)
        first = _fold_reduceat(np.minimum, pos, order, starts)
        winners = order[first]
        gv = np.zeros_like(data)
        gv[winners, np.arange(c)] = g   # groups own disjoint rows: no pair repeats
        return (gv,)

    return _make(out, (values,), vjp)


# -- sampling and convolution ------------------------------------------------

def bilinear_sample(maps: Tensor, uv: Tensor, slice_id: np.ndarray) -> Tensor:
    """Bilinearly sample `maps` (J, H, W, C) at fractional (u, v) locations.

    `uv` is (N, 2) with u indexing the W axis and v the H axis; integer
    coordinates hit stored cells exactly. `slice_id` (N,) picks the map each
    sample reads. Out-of-bounds corners contribute zero, a NaN or infinite
    location gives a NaN row, and the gradient w.r.t. `uv` follows the
    interpolation formula (kinked at cell edges).
    Each corner's rows are taken once and scaled in place by `wgt * ok`, the
    in-bounds mask folded into the weight: weights are >= 0, so for finite maps
    v*(wgt*ok) equals wgt*(v*ok) bit for bit, signed zeros included. Corners
    add in order from +0.0, as sum() does. The tape keeps (4, N) cells, masks
    and weights, and the uv gradient takes the corner rows again.
    """
    j, hgt, wid, c = maps.data.shape
    u, v = uv.data[:, 0], uv.data[:, 1]
    u0f, v0f = np.floor(u), np.floor(v)
    with np.errstate(invalid="ignore"):   # a non-finite location: NaN weights, junk corners
        du, dv = u - u0f, v - v0f
        u0, v0 = u0f.astype(np.int64), v0f.astype(np.int64)
    cu, cv = np.stack([u0, u0 + 1, u0, u0 + 1]), np.stack([v0, v0, v0 + 1, v0 + 1])
    ok = (cu >= 0) & (cu < wid) & (cv >= 0) & (cv < hgt)            # (4, N)
    wok = np.stack([(1 - du) * (1 - dv), du * (1 - dv), (1 - du) * dv, du * dv]) * ok
    cells = (slice_id * hgt + np.clip(cv, 0, hgt - 1)) * wid + np.clip(cu, 0, wid - 1)
    rows = maps.data.reshape(-1, c)
    out = rows.take(cells[0], axis=0)
    out *= wok[0][:, None]
    out += 0.0   # sum()'s start: a -0.0 first term reads +0.0
    for k in range(1, 4):
        val = rows.take(cells[k], axis=0)
        val *= wok[k][:, None]
        out += val

    def vjp(g):
        gm = guv = None
        if maps.requires_grad:   # sums each cell in corner, then sample order, like np.add.at
            gm = np.bincount((cells.reshape(-1, 1) * c + np.arange(c)).ravel(),
                             (g * wok[:, :, None]).ravel(),
                             minlength=maps.data.size).reshape(maps.data.shape)
        if uv.requires_grad:
            guv = np.empty_like(uv.data)
            f = rows.take(cells, axis=0)
            f *= ok[:, :, None]   # the masked corner values
            f00, f10, f01, f11 = f
            # d out / d du and d out / d dv from the interpolation weights
            d_du = (f10 - f00) * (1 - dv)[:, None] + (f11 - f01) * dv[:, None]
            d_dv = (f01 - f00) * (1 - du)[:, None] + (f11 - f10) * du[:, None]
            guv[:, 0] = (g * d_du).sum(axis=1)
            guv[:, 1] = (g * d_dv).sum(axis=1)
        return (gm, guv)

    return _make(out, (maps, uv), vjp)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((c, kh, kw, ho, wo), dtype=np.float64)
    for i in range(kh):
        for jj in range(kw):
            cols[:, i, jj] = xp[:, i:i + stride * ho:stride, jj:jj + stride * wo:stride]
    return cols, ho, wo


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """2D cross-correlation of x (Cin, H, W) with weight (Cout, Cin, kh, kw)."""
    cout, cin, kh, kw = weight.data.shape
    cols, ho, wo = _im2col(x.data, kh, kw, stride, pad)
    flat = cols.reshape(cin * kh * kw, ho * wo)
    out = (weight.data.reshape(cout, -1) @ flat).reshape(cout, ho, wo) + bias.data[:, None, None]

    def vjp(g):
        gflat = g.reshape(cout, -1)
        gw = (gflat @ flat.T).reshape(weight.data.shape)
        gb = gflat.sum(axis=1)
        gcols = (weight.data.reshape(cout, -1).T @ gflat).reshape(cin, kh, kw, ho, wo)
        c, h, w = x.data.shape
        gxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        for i in range(kh):
            for jj in range(kw):
                gxp[:, i:i + stride * ho:stride, jj:jj + stride * wo:stride] += gcols[:, i, jj]
        gx = gxp[:, pad:pad + h, pad:pad + w]
        return (gx, gw, gb)

    return _make(out, (x, weight, bias), vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsample of (C, H, W); gradient sums 2x2 blocks."""
    c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def vjp(g):
        return (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return _make(out, (x,), vjp)


def tap_matmul_scatter(features: Tensor, kernel: Tensor, pairs, n_out: int,
                       bias: Tensor) -> Tensor:
    """Core of sparse convolution: sum over kernel taps of gathered matmuls.

    `pairs[t] = (in_rows, out_rows)` routes features (M, Cin) through
    kernel (len(pairs), Cin, Cout) into an (n_out, Cout) accumulator. Taps with
    no pairs may pass empty arrays. Within one tap, in_rows and out_rows must
    each hold no duplicates (conv rulebooks do so by construction): the
    accumulation is then a plain indexed add, exactly like np.add.at in either
    operand order, with rows moved by ndarray.take, faster than fancy indexing.
    `pairs[t] = None` stands for in_rows = out_rows = arange(M), n_out == M: one
    GEMM over all rows added in place, the same bytes without the row traffic.
    Bias is added to every output row (submanifold/strided conv semantics:
    every active output site gets the bias exactly once).
    """
    if kernel.data.ndim != 3 or kernel.data.shape[:2] != (len(pairs), features.data.shape[1]):
        raise ValueError(f"kernel shape {kernel.data.shape} does not fit input ({len(pairs)} taps)")
    cout = kernel.data.shape[2]
    f = np.ascontiguousarray(features.data)   # the layout a gather hands to BLAS
    if None in pairs and n_out != len(f):
        raise ValueError(f"identity tap needs n_out == {len(f)} rows, got {n_out}")
    out = np.zeros((n_out, cout), dtype=np.float64)
    for t, pair in enumerate(pairs):
        if pair is None:
            out += f @ kernel.data[t]
        elif len(pair[0]):
            y = f.take(pair[0], axis=0) @ kernel.data[t]
            y += out.take(pair[1], axis=0)   # in place: one temporary fewer
            out[pair[1]] = y
    out += bias.data

    def vjp(g):
        gc = np.ascontiguousarray(g)
        gf = np.zeros_like(features.data) if features.requires_grad else None
        gk = np.empty_like(kernel.data) if kernel.requires_grad else None
        for t, pair in enumerate(pairs):
            if pair is not None and not len(pair[0]):
                if gk is not None:
                    gk[t] = 0.0
                continue
            gslice = gc if pair is None else gc.take(pair[1], axis=0)
            if gf is not None:
                y = gslice @ kernel.data[t].T
                if pair is None:
                    gf += y
                else:
                    y += gf.take(pair[0], axis=0)
                    gf[pair[0]] = y
            if gk is not None:
                np.matmul((f if pair is None else f.take(pair[0], axis=0)).T, gslice, out=gk[t])
        return gf, gk, g.sum(axis=0)

    return _make(out, (features, kernel, bias), vjp)
