import math

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import tasks
from lidarmt.data import Box

from conftest import check_grads, rng


GEOM = tasks.BevGeometry(origin=(0.0, 0.0), cell_size=(4.0, 4.0), shape=(4, 4))


def make_box(cx=6.2, cy=9.7, cz=0.8, l=4.0, w=1.8, h=1.6, yaw=0.4, cls=1):
    return Box(center=np.array([cx, cy, cz]), size=np.array([l, w, h]),
               yaw=yaw, class_id=cls)


def test_targets_peak_one_at_center_and_in_unit_range():
    hm, reg, mask = tasks.make_detection_targets([make_box()], GEOM)
    assert hm.min() >= 0 and hm.max() == 1.0
    cy, cx = np.argwhere(mask)[0]
    assert hm[0, cy, cx] == 1.0
    assert mask.sum() == 1


def test_focal_perfect_prediction_near_zero():
    target = np.zeros((2, 4, 4))
    target[0, 1, 1] = 1.0
    target[1, 3, 0] = 1.0
    pred = np.clip(target, 1e-4, 1 - 1e-4)
    loss = tasks.focal_heatmap_loss(ad.Tensor(pred), target)
    assert float(loss.data) < 1e-3


def test_focal_hand_evaluated_single_positive():
    target = np.zeros((1, 3, 3))
    target[0, 1, 1] = 1.0
    pred = np.zeros((1, 3, 3))
    pred[0, 1, 1] = 0.5
    loss = tasks.focal_heatmap_loss(ad.Tensor(pred), target)
    want = -((1 - 0.5) ** 2) * math.log(0.5)
    np.testing.assert_allclose(float(loss.data), want, atol=1e-9)


def test_focal_nonnegative_on_random_inputs():
    r = rng(0)
    for _ in range(5):
        target = np.zeros((2, 4, 4))
        target[tuple(r.integers(0, s) for s in target.shape)] = 1.0
        pred = r.uniform(0.01, 0.99, size=(2, 4, 4))
        loss = tasks.focal_heatmap_loss(ad.Tensor(pred), target)
        assert float(loss.data) >= 0.0


def test_focal_gradient():
    r = rng(1)
    target = np.zeros((1, 3, 3))
    target[0, 0, 0] = 1.0
    logits = ad.parameter(r.normal(size=(1, 3, 3)))

    def f():
        return tasks.focal_heatmap_loss(ad.sigmoid(logits), target)

    check_grads(f, [logits])


def test_l1_zero_when_equal_and_mean_of_ones():
    r = rng(2)
    reg = r.normal(size=(8, 4, 4))
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True
    assert float(tasks.l1_box_loss(ad.Tensor(reg), reg, mask).data) == 0.0
    off = reg.copy()
    off[:, 1, 2] += 1.0
    assert float(tasks.l1_box_loss(ad.Tensor(off), reg, mask).data) == pytest.approx(1.0)


def test_l1_empty_mask_is_zero():
    reg = np.ones((8, 4, 4))
    out = tasks.l1_box_loss(ad.Tensor(np.zeros((8, 4, 4))), reg,
                            np.zeros((4, 4), dtype=bool))
    assert float(out.data) == 0.0


def test_l1_matches_bruteforce_masked_mean():
    r = rng(3)
    pred = r.normal(size=(8, 5, 5))
    target = r.normal(size=(8, 5, 5))
    mask = r.random((5, 5)) < 0.3
    if not mask.any():
        mask[0, 0] = True
    got = float(tasks.l1_box_loss(ad.Tensor(pred), target, mask).data)
    diffs = [abs(pred[c, y, x] - target[c, y, x])
             for y in range(5) for x in range(5) if mask[y, x] for c in range(8)]
    np.testing.assert_allclose(got, np.mean(diffs), atol=1e-12)


def test_l1_gradient():
    r = rng(4)
    pred = ad.parameter(r.normal(size=(8, 3, 3)))
    target = r.normal(size=(8, 3, 3))
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 1] = mask[2, 2] = True
    check_grads(lambda: tasks.l1_box_loss(pred, target, mask), [pred])


def test_ce_loss_value_and_gradient():
    r = rng(5)
    logits = ad.parameter(r.normal(size=(6, 4)))
    labels = r.integers(1, 5, size=6)
    got = float(tasks.ce_loss(logits, labels).data)
    z = logits.data
    logp = z - np.log(np.exp(z - z.max(1, keepdims=True)).sum(1, keepdims=True)) \
        - z.max(1, keepdims=True)
    want = -np.mean([logp[i, labels[i] - 1] for i in range(6)])
    np.testing.assert_allclose(got, want, atol=1e-12)
    check_grads(lambda: tasks.ce_loss(logits, labels), [logits])


def test_lovasz_perfect_one_hot_is_zero():
    labels = np.array([1, 2, 3, 1])
    probs = np.eye(3)[labels - 1]
    out = tasks.lovasz_softmax(ad.Tensor(probs), labels)
    np.testing.assert_allclose(float(out.data), 0.0, atol=1e-12)


def test_lovasz_fully_wrong_single_class_is_one():
    labels = np.array([1, 1, 1, 1])
    probs = np.zeros((4, 2))
    probs[:, 1] = 1.0  # p_true = 0 everywhere
    out = tasks.lovasz_softmax(ad.Tensor(probs), labels)
    np.testing.assert_allclose(float(out.data), 1.0, atol=1e-12)


def lovasz_jaccard_oracle(probs, labels):
    """Definition-level Lovasz extension: interpolate the Jaccard set loss
    along the descending-error permutation."""
    present = np.unique(labels)
    vals = []
    for c in present:
        fg = (labels == c).astype(float)
        errors = np.abs(fg - probs[:, c - 1])
        perm = np.argsort(-errors, kind="stable")
        e = errors[perm]
        g = fg[perm]

        def jaccard_loss(subset_size):
            # Jaccard loss of the set {first subset_size sorted sites flipped}
            mis = np.zeros(len(g), dtype=bool)
            mis[:subset_size] = True
            inter = np.logical_and(g == 1, ~mis).sum()
            union = np.logical_or(g == 1, mis).sum()
            return 1.0 - (inter / union if union else 1.0)

        total = 0.0
        for i in range(len(e)):
            total += e[i] * (jaccard_loss(i + 1) - jaccard_loss(i))
        vals.append(total)
    return float(np.mean(vals))


def test_lovasz_matches_definition_oracle():
    r = rng(6)
    for _ in range(5):
        raw = r.uniform(0.05, 1.0, size=(6, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = r.integers(1, 4, size=6)
        got = float(tasks.lovasz_softmax(ad.Tensor(probs), labels).data)
        want = lovasz_jaccard_oracle(probs, labels)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_lovasz_gradient_away_from_ties():
    r = rng(7)
    logits = ad.parameter(r.normal(size=(6, 3)) * 1.5)
    labels = r.integers(1, 4, size=6)

    def f():
        return tasks.lovasz_softmax(ad.softmax(logits, axis=-1), labels)

    check_grads(f, [logits], rtol=1e-3)


def test_uncertainty_combine_values_and_gradient():
    lw = tasks.LossWeights.create(("a", "b"))
    losses = {"a": ad.constant(1.0), "b": ad.constant(2.0)}
    total = tasks.uncertainty_combine(losses, lw)
    np.testing.assert_allclose(float(total.data), 3.0, atol=1e-12)

    lw.log_vars.data[:] = [math.log(2.0), 0.0]
    total = tasks.uncertainty_combine(losses, lw)
    np.testing.assert_allclose(float(total.data), 0.5 + math.log(2.0) + 2.0, atol=1e-12)

    def f():
        return tasks.uncertainty_combine(losses, lw)

    check_grads(f, [lw.log_vars])
    # closed form: d/ds_k = -exp(-s_k) L_k + 1
    lw.log_vars.grad = None
    f().backward()
    want = -np.exp(-lw.log_vars.data) * np.array([1.0, 2.0]) + 1.0
    np.testing.assert_allclose(lw.log_vars.grad, want, atol=1e-12)


def test_uncertainty_monotone_in_each_loss():
    lw = tasks.LossWeights.create(("a", "b"))
    lw.log_vars.data[:] = [0.3, -0.2]
    base = float(tasks.uncertainty_combine(
        {"a": ad.constant(1.0), "b": ad.constant(2.0)}, lw).data)
    bigger = float(tasks.uncertainty_combine(
        {"a": ad.constant(1.5), "b": ad.constant(2.0)}, lw).data)
    assert bigger > base


def test_encode_decode_box_roundtrip():
    boxes = [make_box(), make_box(cx=13.0, cy=2.5, cz=0.5, l=0.6, w=0.6, h=1.7,
                                  yaw=-1.2, cls=2)]
    hm, reg, mask = tasks.make_detection_targets(boxes, GEOM)
    decoded = tasks.decode_boxes(hm, reg, GEOM, threshold=0.99)
    assert len(decoded) == 2
    for want in boxes:
        got = min((b for b, s in decoded if b.class_id == want.class_id),
                  key=lambda b: np.linalg.norm(b.center - want.center))
        np.testing.assert_allclose(got.center, want.center, atol=1e-5)
        np.testing.assert_allclose(got.size, want.size, atol=1e-5)
        assert abs(got.yaw - want.yaw) < 1e-5


def test_decode_matches_bruteforce_peak_oracle():
    """Boxes come from 3x3 peaks at or above the threshold, by descending score
    with ties by linearized index, on heatmaps full of ties."""
    r = rng(21)
    geom = tasks.BevGeometry(origin=(0.0, 0.0), cell_size=(1.0, 1.0), shape=(5, 6))
    for _ in range(200):
        hm = r.integers(0, 4, size=(2, 5, 6)) / 4.0
        threshold, max_boxes = r.choice([0.0, 0.25, 0.5]), int(r.integers(1, 12))
        k, h, w = hm.shape
        peaks = [(c * h * w + y * w + x, hm[c, y, x])
                 for c in range(k) for y in range(h) for x in range(w)
                 if hm[c, y, x] >= hm[c, max(0, y - 1):y + 2, max(0, x - 1):x + 2].max()
                 and hm[c, y, x] >= threshold]
        peaks.sort(key=lambda t: (-t[1], t[0]))
        got = tasks.decode_boxes(hm, np.zeros((8, h, w)), geom, threshold, max_boxes)
        want = peaks[:max_boxes]
        assert [s for _, s in got] == [s for _, s in want]
        assert [(b.class_id - 1, int(b.center[1]), int(b.center[0])) for b, _ in got] == \
            [(i // (h * w), i // w % h, i % w) for i, _ in want]


def test_decode_empty_heatmap():
    assert tasks.decode_boxes(np.zeros((2, 4, 4)), np.zeros((8, 4, 4)), GEOM,
                              threshold=0.1) == []


def test_decode_yaw_atan2_identity():
    hm = np.zeros((1, 4, 4))
    hm[0, 1, 1] = 1.0
    reg = np.zeros((8, 4, 4))
    reg[:, 1, 1] = [0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]  # sin=1, cos=0
    (box, score), = tasks.decode_boxes(hm, reg, GEOM, threshold=0.5)
    assert box.yaw == pytest.approx(math.pi / 2)
