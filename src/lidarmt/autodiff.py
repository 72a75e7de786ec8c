"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Everything learnable in this package flows through the `Tensor` type defined
here. The op set is deliberately small: elementwise arithmetic, matmul with
leading-dimension broadcast, reductions, indexing, softmax, plus the few
custom primitives the pipeline needs (segment max, bilinear map sampling,
dense 2D convolution, gather/scatter rows). Each primitive carries its own
vector-Jacobian product, and the whole engine is validated against central
finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


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
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf."""
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
        roots: set[int] = set()   # buffers that leaf grads already hold
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                # a vjp may hand one buffer, or views of it, to several leaves; each
                # leaf must own its grad, as clipping scales grads in place
                root = g
                while isinstance(root.base, np.ndarray):
                    root = root.base
                g = g.copy() if id(root) in roots else g
                roots.add(id(root))
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


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g / (2.0 * out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), vjp)


def layer_norm(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Standardize over the last axis. Non-affine by design."""
    mu = reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = reduce_mean(mul(centered, centered), axis=-1, keepdims=True)
    return mul(centered, power(add(var, constant(eps)), -0.5))


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


def segment_max(values: Tensor, group_id: np.ndarray, n_groups: int) -> Tensor:
    """Per-group columnwise max of `values` (N, C) under `group_id` (N,).

    Every group must be non-empty. The subgradient routes to the first
    maximizing row of each (group, column), matching np.argmax tie-breaking.
    """
    data = values.data
    n, c = data.shape
    order = np.argsort(group_id, kind="stable")
    sorted_gid = group_id[order]
    starts = np.searchsorted(sorted_gid, np.arange(n_groups))
    if n_groups and np.unique(sorted_gid).size != n_groups:
        raise ValueError("segment_max requires every group to be non-empty")
    if n_groups == 0:
        return _make(np.zeros((0, c)), (values,), lambda g: (np.zeros_like(data),))
    sorted_vals = data[order]
    out = np.maximum.reduceat(sorted_vals, starts, axis=0)
    # first maximizing row per (group, column), in stable sorted order
    hit = sorted_vals == out[sorted_gid]
    pos = np.where(hit, np.arange(n)[:, None], n)
    first = np.minimum.reduceat(pos, starts, axis=0)
    winners = order[first]

    def vjp(g):
        gv = np.zeros_like(data)
        np.add.at(gv, (winners.ravel(), np.tile(np.arange(c), n_groups)), g.ravel())
        return (gv,)

    return _make(out, (values,), vjp)


# -- sampling and convolution ------------------------------------------------

def bilinear_sample(maps: Tensor, uv: Tensor, slice_id: np.ndarray) -> Tensor:
    """Bilinearly sample `maps` (J, H, W, C) at fractional (u, v) locations.

    `uv` is (N, 2) with u indexing the W axis and v the H axis; integer
    coordinates hit stored cells exactly. `slice_id` (N,) picks the map each
    sample reads. Out-of-bounds corners contribute zero, and the gradient
    w.r.t. `uv` follows the interpolation formula (kinked at cell edges).
    """
    j, hgt, wid, c = maps.data.shape
    u = uv.data[:, 0]
    v = uv.data[:, 1]
    u0f = np.floor(u)
    v0f = np.floor(v)
    du = u - u0f
    dv = v - v0f
    u0 = u0f.astype(np.int64)
    v0 = v0f.astype(np.int64)

    corners = []
    for (cu, cv, wgt) in (
        (u0, v0, (1 - du) * (1 - dv)),
        (u0 + 1, v0, du * (1 - dv)),
        (u0, v0 + 1, (1 - du) * dv),
        (u0 + 1, v0 + 1, du * dv),
    ):
        ok = (cu >= 0) & (cu < wid) & (cv >= 0) & (cv < hgt)
        cuc = np.clip(cu, 0, wid - 1)
        cvc = np.clip(cv, 0, hgt - 1)
        val = maps.data[slice_id, cvc, cuc] * ok[:, None]
        corners.append((cuc, cvc, ok, wgt, val))

    out = sum(w[:, None] * val for (_, _, _, w, val) in corners)

    def vjp(g):
        gm = np.zeros_like(maps.data) if maps.requires_grad else None
        guv = np.zeros_like(uv.data) if uv.requires_grad else None
        if gm is not None:
            for (cuc, cvc, ok, wgt, _val) in corners:
                np.add.at(gm, (slice_id, cvc, cuc), g * (wgt * ok)[:, None])
        if guv is not None:
            (_, _, ok00, _, f00), (_, _, ok10, _, f10), (_, _, ok01, _, f01), (_, _, ok11, _, f11) = corners
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
                       bias: Tensor | None = None) -> Tensor:
    """Core of sparse convolution: sum over kernel taps of gathered matmuls.

    `pairs[t] = (in_rows, out_rows)` routes features (M, Cin) through
    kernel (T, Cin, Cout) into an (n_out, Cout) accumulator. Taps with no
    pairs may pass empty arrays. Within one tap, in_rows and out_rows must
    each hold no duplicates (conv rulebooks do so by construction): the
    accumulation is then a plain indexed add, exactly like np.add.at. Bias,
    when given, is added to every output row (submanifold/strided conv
    semantics: every active output site gets the bias exactly once).
    """
    t_taps, cin, cout = kernel.data.shape
    out = np.zeros((n_out, cout), dtype=np.float64)
    for t, (rin, rout) in enumerate(pairs):
        if len(rin):
            out[rout] += features.data[rin] @ kernel.data[t]
    if bias is not None:
        out += bias.data

    def vjp(g):
        gf = np.zeros_like(features.data) if features.requires_grad else None
        gk = np.zeros_like(kernel.data) if kernel.requires_grad else None
        for t, (rin, rout) in enumerate(pairs):
            if not len(rin):
                continue
            gslice = g[rout]
            if gf is not None:
                gf[rin] += gslice @ kernel.data[t].T
            if gk is not None:
                gk[t] += features.data[rin].T @ gslice
        gb = g.sum(axis=0) if bias is not None else None
        return (gf, gk, gb) if bias is not None else (gf, gk)

    parents = (features, kernel) if bias is None else (features, kernel, bias)
    return _make(out, parents, vjp)
