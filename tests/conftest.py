import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lidarmt import autodiff as ad  # noqa: E402
from lidarmt import sparse  # noqa: E402


@pytest.fixture(autouse=True)
def empty_frame_cache(monkeypatch):
    """Each test starts with no frame memo cached: no test reads rulebooks
    that an earlier one built."""
    monkeypatch.setattr(sparse, "_FRAMES", {})


def central_diff(f, tensors, eps=1e-6):
    """Central finite-difference gradients of scalar f() w.r.t. each tensor.

    f is re-evaluated with perturbed .data in place; tensors are restored.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def check_grads(f, tensors, rtol=1e-4, eps=1e-6, atol=1e-8):
    """Assert analytic grads of scalar f() match central differences."""
    for t in tensors:
        t.grad = None
    out = f()
    out.backward()
    numeric = central_diff(f, tensors, eps=eps)
    for t, num in zip(tensors, numeric):
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = np.maximum(np.abs(num), np.abs(ana))
        err = np.abs(ana - num)
        rel = err / np.maximum(denom, 1.0e-4)
        bad = (err > atol) & (rel > rtol)
        assert not bad.any(), (
            f"gradient mismatch: max rel err {rel.max():.3e}, max abs err {err.max():.3e}"
        )


def check_grads_sampled(f, tensors, n_per_tensor=4, rtol=1e-3, eps=1e-6,
                        atol=1e-8, seed=0):
    """FD check on a random subset of coordinates of each tensor.

    Keeps whole-network checks tractable; per-op suites use check_grads.
    """
    r = np.random.default_rng(seed)
    for t in tensors:
        t.grad = None
    out = f()
    out.backward()
    for t in tensors:
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.ravel()
        aflat = ana.ravel()
        coords = r.choice(flat.size, size=min(n_per_tensor, flat.size), replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            err = abs(aflat[i] - num)
            rel = err / max(abs(num), abs(aflat[i]), 1e-4)
            assert err <= atol or rel <= rtol, (
                f"sampled gradient mismatch at flat index {i}: "
                f"analytic {aflat[i]:.6e} vs numeric {num:.6e}"
            )


def rng(seed=0):
    return np.random.default_rng(seed)


def live_cross_task(p, r):
    """Redraw every output projection `init_cross_task` zeroes (each attention's
    `wo` and each feed-forward's `w2`), so all residual branches of the decoder
    are live. Returns p."""
    for layer in p.layers:
        for t in (layer.self_attn.wo, layer.class_cross.wo, layer.center_cross.wo,
                  layer.inverse.wo, layer.ffn.w2):
            t.data[:] = r.normal(0, np.sqrt(1.0 / t.data.shape[0]), t.data.shape)
    return p
