"""AdamW's blocked in-place update against the whole-array textbook form,
and global-norm clipping of leaf grads that a vjp handed out shared."""

import math

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import train as tr


class ReferenceAdamW:
    """Whole-array AdamW (Loshchilov & Hutter), one temporary per operation."""

    def __init__(self, params, beta1=0.9, beta2=0.99, eps=1e-8, weight_decay=0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps)
                            + self.weight_decay * p.data)


def make_params(seed):
    r = np.random.default_rng(seed)
    shapes = {"one": (1,), "seven": (7,), "block": (tr.BLOCK,),
              "block1": (tr.BLOCK + 1,), "three_blocks": (3 * tr.BLOCK + 5,),
              "matrix": (40, 30), "skip": (5,)}
    return {k: ad.parameter(r.normal(0, 1, s)) for k, s in shapes.items()}


def set_grads(params, step, seed):
    """Grads from 1e-12 to 1e6 in magnitude, both signs; "matrix" gets a
    transposed (non-contiguous) grad and "skip" none."""
    r = np.random.default_rng(1000 * seed + step)
    for k, p in params.items():
        if k == "skip":
            p.grad = None
            continue
        shape = p.data.shape[::-1] if k == "matrix" else p.data.shape
        g = r.choice([-1.0, 1.0], shape) * 10.0 ** r.uniform(-12, 6, shape)
        p.grad = g.T if k == "matrix" else g
    assert not params["matrix"].grad.flags.c_contiguous


@pytest.mark.parametrize("lr,wd", [(1e-3, 0.01), (3e-2, 0.0), (0.0, 0.01)])
def test_blocked_adamw_bit_exact_to_whole_array_form(lr, wd):
    got, want = make_params(0), make_params(0)
    opt = tr.AdamW(got, weight_decay=wd)
    ref = ReferenceAdamW(want, weight_decay=wd)
    moments = {k: (opt.m[k], opt.v[k]) for k in got}
    for step in range(5):
        set_grads(got, step, seed=1)
        set_grads(want, step, seed=1)
        opt.step(lr)
        ref.step(lr)
        for k in got:
            np.testing.assert_array_equal(got[k].data, want[k].data, err_msg=k)
            np.testing.assert_array_equal(opt.m[k], ref.m[k], err_msg=k)
            np.testing.assert_array_equal(opt.v[k], ref.v[k], err_msg=k)
            assert opt.m[k] is moments[k][0] and opt.v[k] is moments[k][1]
    if lr == 0.0:
        np.testing.assert_array_equal(got["seven"].data, make_params(0)["seven"].data)


def test_adamw_updates_non_contiguous_parameter():
    # a flat view of it would be a copy, and an update of that copy a silent no-op
    r = np.random.default_rng(3)
    base = r.normal(0, 1, (6, 9))
    got = {"w": ad.parameter(base.copy().T)}
    want = {"w": ad.parameter(base.copy().T)}
    assert not got["w"].data.flags.c_contiguous
    opt, ref = tr.AdamW(got), ReferenceAdamW(want)
    for step in range(5):
        g = r.normal(0, 1, (9, 6))
        got["w"].grad, want["w"].grad = g.copy(), g.copy()
        opt.step(1e-2)
        ref.step(1e-2)
        np.testing.assert_array_equal(got["w"].data, want["w"].data)


@pytest.mark.parametrize("a_shape,combine", [
    ((3,), lambda a, b: a + b),                       # add hands g to both parents
    ((1, 3), lambda a, b: ad.reshape(a, (3,)) + b),   # and a reshape a view of it
])
def test_clip_scales_leaf_grads_that_a_vjp_shared(a_shape, combine):
    a, b = ad.parameter(np.ones(a_shape)), ad.parameter(np.ones(3))
    ad.reduce_sum(combine(a, b)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    opt = tr.AdamW({"a": a, "b": b})
    assert opt.clip_global_norm(1.0) == pytest.approx(math.sqrt(6))
    np.testing.assert_allclose(a.grad, np.full(a_shape, 1 / math.sqrt(6)), rtol=1e-11)
    np.testing.assert_allclose(b.grad, np.full(3, 1 / math.sqrt(6)), rtol=1e-11)
