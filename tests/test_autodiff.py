import warnings

import numpy as np
import pytest

from lidarmt import autodiff as ad

from conftest import check_grads, rng


def test_add_mul_broadcast_values():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([10.0, 20.0])
    out = a + b * 2.0
    np.testing.assert_allclose(out.data, [[21, 42], [23, 44]])


def test_backward_through_broadcast():
    r = rng(1)
    a = ad.parameter(r.normal(size=(3, 4)))
    b = ad.parameter(r.normal(size=(4,)))
    check_grads(lambda: ((a + b) * (a - b)).sum(), [a, b])


def test_matmul_grad_2d_and_batched():
    r = rng(2)
    a = ad.parameter(r.normal(size=(3, 4)))
    b = ad.parameter(r.normal(size=(4, 2)))
    check_grads(lambda: (a @ b).sum(), [a, b])
    c = ad.parameter(r.normal(size=(2, 3, 4)))
    d = ad.parameter(r.normal(size=(2, 4, 3)))
    check_grads(lambda: ad.mul(c @ d, c @ d).sum(), [c, d])


def test_matmul_broadcast_leading_dim():
    r = rng(8)
    a = ad.parameter(r.normal(size=(5, 3, 4)))
    b = ad.parameter(r.normal(size=(4, 2)))  # broadcast over the batch
    check_grads(lambda: ad.mul(a @ b, a @ b).sum(), [a, b])


@pytest.mark.parametrize("fn", [ad.exp, ad.sigmoid, ad.relu, ad.absolute])
def test_elementwise_grads(fn):
    r = rng(3)
    x = ad.parameter(r.normal(size=(4, 3)) + 0.1)  # keep away from relu/abs kink
    check_grads(lambda: fn(x).sum(), [x])


def test_log_sqrt_power_grads():
    r = rng(4)
    x = ad.parameter(r.uniform(0.5, 2.0, size=(5,)))
    check_grads(lambda: ad.log(x).sum(), [x])
    check_grads(lambda: (x ** 0.5).sum(), [x])
    check_grads(lambda: (x ** 3.0).sum(), [x])


def test_softmax_rows_sum_to_one_and_grad():
    r = rng(5)
    x = ad.parameter(r.normal(size=(6, 4)))
    s = ad.softmax(x, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    w = ad.constant(r.normal(size=(6, 4)))
    check_grads(lambda: ad.mul(ad.softmax(x, axis=-1), w).sum(), [x])


def test_log_softmax_matches_log_of_softmax():
    r = rng(6)
    x = ad.parameter(r.normal(size=(5, 3)) * 5)
    np.testing.assert_allclose(ad.log_softmax(x).data,
                               np.log(ad.softmax(x).data), atol=1e-12)
    check_grads(lambda: ad.gather(ad.log_softmax(x), (np.arange(5), np.array([0, 1, 2, 0, 1]))).sum(), [x])


def test_layer_norm_grad_and_moments():
    r = rng(7)
    x = ad.parameter(r.normal(size=(4, 6)))
    y = ad.layer_norm(x)
    np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.data.std(axis=-1), 1.0, atol=1e-3)
    w = ad.constant(r.normal(size=(4, 6)))
    check_grads(lambda: ad.mul(ad.layer_norm(x), w).sum(), [x], rtol=1e-3)


def _layer_norm_composed(x, eps=1e-6):
    """ad.layer_norm as it was when built from eight tape primitives."""
    mu = ad.reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.reduce_mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    return ad.mul(centered, ad.power(ad.add(var, ad.constant(eps)), -0.5))


def _row_sum(a):
    return np.einsum("...i->...", a)[..., None]


def _row_dot(a, b):
    return np.einsum("...i,...i->...", a, b)[..., None]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 32, 128, 129])
def test_layer_norm_bytes_match_textbook_np_mean_form(width):
    """Across the sums' unrolling and block boundaries, forward and vjp equal the
    textbook mean form, its means taken from the same einsum row sums, in every
    bit, and the vjp leaves its incoming grad alone."""
    r = rng(25)
    data = r.normal(size=(37, width)) * np.exp(r.normal(size=(37, 1)))
    g = r.normal(size=data.shape)
    g_before = g.copy()
    c = data - _row_sum(data) / width
    rs = (_row_dot(c, c) / width + 1e-6) ** -0.5
    want = c * rs
    want_grad = rs * (g - _row_sum(g) / width - want * (_row_dot(g, want) / width))
    x = ad.parameter(data.copy())
    y = ad.layer_norm(x)
    y.backward(g)
    assert np.array_equal(y.data.view(np.int64), want.view(np.int64))
    assert np.array_equal(x.grad.view(np.int64), want_grad.view(np.int64))
    assert np.array_equal(g.view(np.int64), g_before.view(np.int64))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 32, 64, 128, 129])
def test_layer_norm_rows_are_independent(width):
    """Forward and vjp bytes of any block of rows, one row included, equal the
    matching rows of the whole-array call, on 2-D and 3-D inputs."""
    r = rng(26)
    data = r.normal(size=(300, width)) * np.exp(r.normal(size=(300, 1))) + r.normal(size=(300, 1))
    g = r.normal(size=data.shape)

    def run(a, ga):
        x = ad.parameter(a.copy())
        y = ad.layer_norm(x)
        y.backward(ga.copy())
        return y.data.view(np.int64), x.grad.view(np.int64)

    whole = run(data, g)
    for block in (slice(0, 1), slice(7, 8), slice(299, 300), slice(3, 150), slice(150, 300)):
        for got, want in zip(run(data[block], g[block]), whole):
            assert np.array_equal(got, want[block])
    cube, g3 = data.reshape(3, 100, width), g.reshape(3, 100, width)
    whole3 = run(cube, g3)
    for got, want in zip(whole3, whole):
        assert np.array_equal(got.reshape(want.shape), want)
    for block in ((slice(1, 2),), (slice(0, 3), slice(40, 41)), (slice(2, 3), slice(5, 70))):
        for got, want in zip(run(cube[block], g3[block]), whole3):
            assert np.array_equal(got, want[block])


_BASE = rng(18).normal(size=(40, 24))
LAYER_NORM_REGIMES = {
    "plain": _BASE,
    "scaled_1e3": 1e3 * _BASE,
    "scale_1e-5": 1e-5 * _BASE,
    "offset_1e6": _BASE + 1e6,
    "constant_rows": np.repeat(rng(19).normal(size=(40, 1)), 24, axis=1),
    "one_column": rng(20).normal(size=(40, 1)),
    "zero_rows": np.zeros((0, 24)),
    "3d": rng(21).normal(size=(3, 5, 16)),
}


@pytest.mark.parametrize("regime", sorted(LAYER_NORM_REGIMES))
def test_layer_norm_matches_composed_form(regime):
    data = LAYER_NORM_REGIMES[regime]
    g = rng(22).normal(size=data.shape)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (ad.layer_norm, _layer_norm_composed):
            x = ad.parameter(data.copy())
            y = fn(x)
            ad.mul(y, ad.constant(g)).sum().backward()
            results.append((y.data, x.grad))
    (out, grad), (ref_out, ref_grad) = results
    # the einsum row sums round differently from np.mean's; the gap grows as rows cancel
    mean, std = np.abs(data.mean(axis=-1)), data.std(axis=-1)
    gap = np.abs(out - ref_out).max(axis=-1, initial=0.0)
    scale = np.abs(ref_out).max(initial=0.0)
    assert (gap * std <= 8 * np.finfo(float).eps * (std + mean) * scale).all()
    # where |mean| >> std both forms cancel, and their gradients differ by that
    rows = mean <= 10 * std
    if rows.any():
        err = np.abs(grad - ref_grad)[rows].max()
        assert err <= 1e-13 * np.abs(ref_grad).max()


def test_gather_and_put_rows_roundtrip_grad():
    r = rng(9)
    x = ad.parameter(r.normal(size=(5, 3)))
    idx = np.array([4, 0, 0, 2])
    g = ad.gather_rows(x, idx)
    assert g.shape == (4, 3)
    w1 = ad.constant(r.normal(size=(4, 3)))
    check_grads(lambda: ad.mul(ad.gather_rows(x, idx), w1).sum(), [x])
    v = ad.parameter(r.normal(size=(4, 3)))
    w2 = ad.constant(r.normal(size=(6, 3)))
    check_grads(lambda: ad.mul(ad.put_rows(v, idx, 6), w2).sum(), [v])


def test_concat_transpose_reshape_grads():
    r = rng(10)
    a = ad.parameter(r.normal(size=(2, 3)))
    b = ad.parameter(r.normal(size=(4, 3)))
    w = ad.constant(r.normal(size=(6, 3)))
    check_grads(lambda: ad.mul(ad.concat([a, b], axis=0), w).sum(), [a, b])
    c = ad.parameter(r.normal(size=(2, 3, 4)))
    w2 = ad.constant(r.normal(size=(8, 3)))
    check_grads(lambda: ad.mul(c.transpose(2, 0, 1).reshape(8, 3), w2).sum(), [c])


def test_segment_max_forward_and_grad():
    r = rng(11)
    x = ad.parameter(r.normal(size=(7, 3)))
    gid = np.array([0, 0, 1, 2, 2, 2, 1])
    out = ad.segment_max(x, gid, 3)
    for g in range(3):
        np.testing.assert_allclose(out.data[g], x.data[gid == g].max(axis=0))
    w = ad.constant(r.normal(size=(3, 3)))
    check_grads(lambda: ad.mul(ad.segment_max(x, gid, 3), w).sum(), [x])


def _segment_max_grad_eager(data, group_id, n_groups, g):
    """segment_max's vjp as it was when its bookkeeping ran in the forward."""
    n, c = data.shape
    order = np.argsort(group_id, kind="stable")
    sorted_gid = group_id[order]
    starts = np.searchsorted(sorted_gid, np.arange(n_groups))
    sorted_vals = data[order]
    out = np.maximum.reduceat(sorted_vals, starts, axis=0)
    hit = sorted_vals == out[sorted_gid]
    pos = np.where(hit, np.arange(n)[:, None], n)
    first = np.minimum.reduceat(pos, starts, axis=0)
    winners = order[first]
    gv = np.zeros_like(data)
    np.add.at(gv, (winners.ravel(), np.tile(np.arange(c), n_groups)), g.ravel())
    return gv


def test_segment_max_grad_matches_eager_bookkeeping_with_ties():
    r = rng(17)
    # the last three hold groups past the rank fold's cut of 8 rows
    shapes = [(40, 7, 5), (9, 9, 3), (25, 1, 4), (200, 3, 4), (61, 6, 2), (500, 20, 3)] + [
        (int(r.integers(1, 60)), int(r.integers(1, 12)), int(r.integers(1, 6)))
        for _ in range(17)]
    for n, m, c in shapes:
        m = min(m, n)
        gid = r.permutation(np.arange(n) % m)
        data = r.integers(-2, 3, size=(n, c)).astype(float)   # many tied maxima
        x = ad.parameter(data)
        g = r.normal(size=(m, c))
        ad.mul(ad.segment_max(x, gid, m), ad.constant(g)).sum().backward()
        want = _segment_max_grad_eager(data, gid, m, g)
        assert np.array_equal(x.grad.view(np.int64), want.view(np.int64))
        for grp in range(m):   # the first maximizing row in input order takes it all
            rows = np.flatnonzero(gid == grp)
            win = rows[np.argmax(data[rows], axis=0)]
            assert np.array_equal(x.grad[win, np.arange(c)], g[grp])


def test_segment_max_grad_of_a_nan_maximum_goes_to_the_first_nan_row():
    """A NaN in a (group, column) makes its maximum NaN; as np.argmax does, the
    first NaN row in input order takes its gradient, in groups below and past
    the rank fold's cut of 8 rows."""
    x = ad.parameter(np.array([[1.0, np.nan], [2.0, 0.0]]))
    ad.segment_max(x, np.array([0, 0]), 1).sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])
    r = rng(18)
    for n, m in ((12, 4), (40, 3), (30, 1)):
        gid = r.permutation(np.arange(n) % m)
        data = r.normal(size=(n, 3))
        data[r.random(size=data.shape) < 0.15] = np.nan
        data[gid == 0, 2] = np.nan          # a column of NaN rows only
        x = ad.parameter(data)
        g = r.normal(size=(m, 3))
        out = ad.segment_max(x, gid, m)
        ad.mul(out, ad.constant(g)).sum().backward()
        want = np.zeros_like(data)
        for grp in range(m):
            rows = np.flatnonzero(gid == grp)
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(out.data[grp], np.max(data[rows], axis=0))
            want[rows[np.argmax(data[rows], axis=0)], np.arange(3)] = g[grp]
        assert np.isnan(out.data).any() and np.array_equal(x.grad, want)


def test_segment_max_rejects_empty_group():
    x = ad.Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ad.segment_max(x, np.array([0, 2]), 3)


@pytest.mark.parametrize("group_id", [[0, 5], [-3, 0], [-1, 0, 1], [0, 1, 5], [1, 1],
                                      [0], []])
def test_segment_max_rejects_ids_outside_the_groups(group_id):
    """For two groups: an id past the end or below zero, with or without
    every group present, a missing group, too few rows or none at all raise
    the documented error."""
    x = ad.Tensor(np.arange(2.0 * len(group_id)).reshape(len(group_id), 2))
    with pytest.raises(ValueError):
        ad.segment_max(x, np.array(group_id, dtype=np.int64), 2)


@pytest.mark.parametrize("group_id", [[0, 0, 0], [-1], [5, 0]])
def test_segment_max_rejects_rows_without_groups(group_id):
    x = ad.Tensor(np.ones((len(group_id), 2)))
    with pytest.raises(ValueError):
        ad.segment_max(x, np.array(group_id, dtype=np.int64), 0)


def test_segment_max_fold_equals_maximum_reduceat():
    """Single rows, groups past the fold's cut, one 20,000-row group, NaN rows
    and ties of +0.0 with -0.0: values equal np.maximum.reduceat's."""
    r = rng(18)
    for trial in range(40):
        sizes = r.choice([1, 1, 2, 3, 7, 8, 9, 40],   # the fold passes ranks below 8
                         size=int(r.integers(1, 30)))
        if trial == 0:
            sizes[r.integers(len(sizes))] = 20_000
        gid = r.permutation(np.repeat(np.arange(len(sizes)), sizes))
        data = r.integers(-1, 2, size=(len(gid), 3)) * np.where(r.random((len(gid), 3)) < 0.5,
                                                                 1.0, -1.0)   # +-0.0 ties
        if trial % 2:
            data[r.integers(len(gid), size=2)] = np.nan
        order = np.argsort(gid, kind="stable")
        want = np.maximum.reduceat(data[order], np.searchsorted(gid[order], np.arange(len(sizes))),
                                   axis=0)
        with ad.no_grad():
            got = ad.segment_max(ad.Tensor(data), gid, len(sizes)).data
        assert np.array_equal(got, want, equal_nan=True)


def test_bilinear_sample_values_and_grads():
    r = rng(12)
    maps = ad.parameter(r.normal(size=(2, 4, 5, 3)))
    # integer locations return stored values exactly
    uv = ad.Tensor(np.array([[2.0, 1.0], [0.0, 3.0]]))
    sid = np.array([0, 1])
    out = ad.bilinear_sample(maps, uv, sid)
    np.testing.assert_array_equal(out.data[0], maps.data[0, 1, 2])
    np.testing.assert_array_equal(out.data[1], maps.data[1, 3, 0])
    # gradient w.r.t. maps and locations, away from cell boundaries
    uv2 = ad.parameter(np.array([[1.3, 2.6], [3.2, 0.4], [0.7, 1.2]]))
    sid2 = np.array([0, 1, 1])
    w = ad.constant(r.normal(size=(3, 3)))
    check_grads(lambda: ad.mul(ad.bilinear_sample(maps, uv2, sid2), w).sum(),
                [maps, uv2])


def _bilinear_maps_grad_add_at(maps, uv, slice_id, g):
    """bilinear_sample's maps gradient as one np.add.at per corner, in order."""
    _, hgt, wid, _ = maps.shape
    u0f, v0f = np.floor(uv[:, 0]), np.floor(uv[:, 1])
    du, dv = uv[:, 0] - u0f, uv[:, 1] - v0f
    u0, v0 = u0f.astype(np.int64), v0f.astype(np.int64)
    gm = np.zeros_like(maps)
    for cu, cv, wgt in ((u0, v0, (1 - du) * (1 - dv)), (u0 + 1, v0, du * (1 - dv)),
                        (u0, v0 + 1, (1 - du) * dv), (u0 + 1, v0 + 1, du * dv)):
        ok = (cu >= 0) & (cu < wid) & (cv >= 0) & (cv < hgt)
        np.add.at(gm, (slice_id, np.clip(cv, 0, hgt - 1), np.clip(cu, 0, wid - 1)),
                  g * (wgt * ok)[:, None])
    return gm


def test_bilinear_maps_grad_matches_add_at_bytes():
    r = rng(23)
    for _ in range(20):
        j, h, w, c, n = 2, 3, 4, 3, 60   # about ten terms per cell
        maps = ad.parameter(r.normal(size=(j, h, w, c)))
        uv = r.uniform(-1.5, [w + 0.5, h + 0.5], size=(n, 2))   # corners off the map
        uv[: n // 4] = np.round(uv[: n // 4])                     # integer hits
        sid = r.integers(0, j, size=n)
        g = r.normal(size=(n, c))
        ad.mul(ad.bilinear_sample(maps, ad.constant(uv), sid), ad.constant(g)).sum().backward()
        want = _bilinear_maps_grad_add_at(maps.data, uv, sid, g)
        assert np.array_equal(maps.grad.view(np.int64), want.view(np.int64))


def test_bilinear_out_of_bounds_corners_are_zero():
    maps = ad.Tensor(np.ones((1, 2, 2, 1)))
    uv = ad.Tensor(np.array([[-0.5, 0.0], [1.5, 1.5]]))
    out = ad.bilinear_sample(maps, uv, np.zeros(2, dtype=int))
    np.testing.assert_allclose(out.data[:, 0], [0.5, 0.25])


def _bilinear_sample_reference(maps, uv, slice_id, g):
    """The three-index-gather form: masked corner values, weighted, sum() over
    corners, and the uv gradient from differences of the masked corners.
    Returns the weighted corner terms, out and the uv grad."""
    _, hgt, wid, _ = maps.shape
    u0f, v0f = np.floor(uv[:, 0]), np.floor(uv[:, 1])
    du, dv = uv[:, 0] - u0f, uv[:, 1] - v0f
    u0, v0 = u0f.astype(np.int64), v0f.astype(np.int64)
    vals, terms = [], []
    for cu, cv, wgt in ((u0, v0, (1 - du) * (1 - dv)), (u0 + 1, v0, du * (1 - dv)),
                        (u0, v0 + 1, (1 - du) * dv), (u0 + 1, v0 + 1, du * dv)):
        ok = (cu >= 0) & (cu < wid) & (cv >= 0) & (cv < hgt)
        vals.append(maps[slice_id, np.clip(cv, 0, hgt - 1), np.clip(cu, 0, wid - 1)] * ok[:, None])
        terms.append(wgt[:, None] * vals[-1])
    f00, f10, f01, f11 = vals
    d_du = (f10 - f00) * (1 - dv)[:, None] + (f11 - f01) * dv[:, None]
    d_dv = (f01 - f00) * (1 - du)[:, None] + (f11 - f10) * du[:, None]
    return terms, sum(terms), np.stack([(g * d_du).sum(axis=1), (g * d_dv).sum(axis=1)], axis=1)


@pytest.mark.parametrize("c", [3, 64])
def test_bilinear_sample_bytes_match_the_three_index_gather_form(c):
    r = rng(31)
    same = lambda a, b: np.array_equal(a.view(np.int64), b.view(np.int64))
    all_neg_zero = 0   # samples whose four terms are all -0.0: only the +0.0 start makes them +0.0
    for _ in range(12):
        j, h, w, n = 3, 4, 5, 80
        maps = r.integers(-2, 3, size=(j, h, w, c)) * np.where(r.random((j, h, w, c)) < 0.5,
                                                               1.0, -1.0)   # +-0.0 cells
        maps[0] = r.normal(size=(h, w, c))
        uv = r.uniform(-1.5, [w + 0.5, h + 0.5], size=(n, 2))   # corners off the map
        uv[: n // 3] = np.round(uv[: n // 3])                     # integer hits: zero weights
        uv[n // 3: n // 2, 0] = np.round(uv[n // 3: n // 2, 0])
        sid = r.integers(0, j, size=n)
        g = r.normal(size=(n, c))
        terms, want_out, want_guv = _bilinear_sample_reference(maps, uv, sid, g)
        want_gm = _bilinear_maps_grad_add_at(maps, uv, sid, g)
        all_neg_zero += np.all([(t == 0) & np.signbit(t) for t in terms], axis=0).sum()
        with ad.no_grad():
            assert same(ad.bilinear_sample(ad.Tensor(maps), ad.Tensor(uv), sid).data, want_out)
        tm, tuv = ad.parameter(maps), ad.parameter(uv)
        out = ad.bilinear_sample(tm, tuv, sid)
        assert same(out.data, want_out)
        ad.mul(out, ad.constant(g)).sum().backward()
        assert same(tm.grad, want_gm) and same(tuv.grad, want_guv)
    assert all_neg_zero > 0


def test_bilinear_non_finite_location_is_a_nan_row_without_warnings():
    maps = ad.parameter(np.ones((1, 3, 3, 2)))
    uv = ad.parameter([[np.nan, 1.0], [1.2, 0.5], [np.inf, 0.0], [0.5, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.bilinear_sample(maps, uv, np.zeros(4, dtype=int))
        out.sum().backward()
    assert np.isnan(out.data[[0, 2, 3]]).all()
    np.testing.assert_array_equal(out.data[1], [1.0, 1.0])
    assert np.isnan(uv.grad[[0, 2, 3]]).any(axis=1).all() and np.isfinite(uv.grad[1]).all()


def test_conv2d_matches_manual_and_grads():
    r = rng(13)
    x = ad.parameter(r.normal(size=(2, 5, 5)))
    w = ad.parameter(r.normal(size=(3, 2, 3, 3)))
    b = ad.parameter(r.normal(size=(3,)))
    out = ad.conv2d(x, w, b, stride=1, pad=1)
    assert out.shape == (3, 5, 5)
    # manual cross-correlation at one location
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1)))
    want = (xp[:, 1:4, 2:5] * w.data[1]).sum() + b.data[1]
    np.testing.assert_allclose(out.data[1, 1, 2], want, atol=1e-12)
    wgt = ad.constant(r.normal(size=(3, 5, 5)))
    check_grads(lambda: ad.mul(ad.conv2d(x, w, b, 1, 1), wgt).sum(), [x, w, b])


def test_conv2d_stride2_shape_and_grad():
    r = rng(14)
    x = ad.parameter(r.normal(size=(1, 4, 4)))
    w = ad.parameter(r.normal(size=(2, 1, 3, 3)))
    b = ad.parameter(np.zeros(2))
    out = ad.conv2d(x, w, b, stride=2, pad=1)
    assert out.shape == (2, 2, 2)
    wgt = ad.constant(r.normal(size=(2, 2, 2)))
    check_grads(lambda: ad.mul(ad.conv2d(x, w, b, 2, 1), wgt).sum(), [x, w, b])


def test_upsample2x_inverse_of_blocksum_grad():
    r = rng(15)
    x = ad.parameter(r.normal(size=(2, 3, 3)))
    up = ad.upsample2x(x)
    assert up.shape == (2, 6, 6)
    np.testing.assert_array_equal(up.data[:, 2, 2], x.data[:, 1, 1])
    w = ad.constant(r.normal(size=(2, 6, 6)))
    check_grads(lambda: ad.mul(ad.upsample2x(x), w).sum(), [x])


def test_tap_matmul_scatter_grads():
    r = rng(16)
    feats = ad.parameter(r.normal(size=(5, 3)))
    kern = ad.parameter(r.normal(size=(2, 3, 4)))
    bias = ad.parameter(r.normal(size=(4,)))
    pairs = [
        (np.array([0, 1, 2]), np.array([0, 1, 2])),
        (np.array([3, 4, 0]), np.array([1, 2, 0])),
    ]
    w = ad.constant(r.normal(size=(3, 4)))

    def f():
        return ad.mul(ad.tap_matmul_scatter(feats, kern, pairs, 3, bias), w).sum()

    check_grads(f, [feats, kern, bias])


def test_grad_accumulates_across_reuse():
    x = ad.parameter(np.array([2.0]))
    y = (x * x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_backward_without_tape_raises():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        y = (x * 2).sum()
    for t in (y, ad.constant(np.ones(3)).sum()):
        with pytest.raises(ValueError, match="no tape"):
            t.backward()
    assert x.grad is None


def test_no_grad_nests_and_restores_recording_after_an_exception():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            inner = x * 2
        after_inner = ad.sigmoid(x)
    assert (x * 2).requires_grad
    for t in (inner, after_inner):
        assert not t.requires_grad and t._vjp is None and t._parents == ()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside")
    y = (x * 3).sum()
    assert y.requires_grad and y._vjp is not None
    y.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])


def test_sigmoid_saturates_without_overflow_warning():
    a = np.array([-1e4, -745.0, -709.0, -30.0, 0.0, 30.0, 1e4])
    x = ad.parameter(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sigmoid(x)
        out.sum().backward()
    with np.errstate(over="ignore"):
        assert np.array_equal(out.data, 1.0 / (1.0 + np.exp(-a)))
    assert out.data[0] == 0.0 and out.data[-1] == 1.0
    assert np.isfinite(x.grad).all()


def test_default_training_forward_records_at_most_500_nodes(monkeypatch):
    """A default-config forward plus loss, as one training step records it:
    808 nodes with a vjp while attention was 25 to 37 primitives per call.
    Backward reaches every one of them."""
    from lidarmt import cli, data, tasks
    from lidarmt import config as cf
    from lidarmt import train as tr
    from lidarmt.model import Model

    cfg = cf.load_config()
    model = Model(cfg)
    scene = data.generate_scene(0, cli.scene_spec_from_config(cfg), frame_id=0)
    recorded = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda *a: recorded.append(make(*a)) or recorded[-1])
    out = model.forward(scene)
    total = tasks.uncertainty_combine(tr.compute_losses(out, scene), model.loss_weights)
    taped = {id(t) for t in recorded if t._vjp is not None}
    reached, stack = set(), [total]
    while stack:
        t = stack.pop()
        if t._vjp is not None and id(t) not in reached:
            reached.add(id(t))
            stack.extend(t._parents)
    assert len(taped) <= 500
    assert reached == taped
