import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lidarmt import metrics
from lidarmt.data import Box

from conftest import rng


def test_perfect_predictions_give_miou_one():
    gt = np.array([1, 2, 3, 4, 5, 6, 1, 2])
    cm = metrics.confusion_matrix(gt, gt)
    iou, mean = metrics.miou(cm)
    present = ~np.isnan(iou)
    np.testing.assert_allclose(iou[present], 1.0)
    assert mean == 1.0


def test_half_half_all_predicted_class1():
    gt = np.array([1, 1, 2, 2])
    pred = np.array([1, 1, 1, 1])
    iou, mean = metrics.miou(metrics.confusion_matrix(gt, pred, k=2))
    np.testing.assert_allclose(iou, [0.5, 0.0])
    assert mean == pytest.approx(0.25)


@pytest.mark.parametrize("n,k", [(500, 6), (37, 4), (0, 6), (1, 6)])
def test_confusion_matrix_matches_a_brute_force_count(n, k):
    r = rng(40 + n)
    gt, pred = r.integers(1, k + 1, size=n), r.integers(1, k + 1, size=n)
    want = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            want[i, j] = np.sum((gt == i + 1) & (pred == j + 1))
    cm = metrics.confusion_matrix(gt, pred, k=k)
    assert cm.dtype == np.int64
    np.testing.assert_array_equal(cm, want)


@pytest.mark.parametrize("gt,pred", [([1, 0], [1, 2]), ([1, -1], [1, 2]),
                                     ([1, 2], [1, 7]), ([1, 2], [0, 2])])
def test_confusion_matrix_rejects_labels_outside_classes(gt, pred):
    with pytest.raises(ValueError, match=r"label outside 1\.\.6"):
        metrics.confusion_matrix(np.array(gt), np.array(pred))


def test_miou_matches_set_arithmetic_oracle():
    r = rng(0)
    gt = r.integers(1, 7, size=500)
    pred = r.integers(1, 7, size=500)
    iou, mean = metrics.miou(metrics.confusion_matrix(gt, pred))
    vals = []
    for c in range(1, 7):
        inter = np.sum((gt == c) & (pred == c))
        union = np.sum((gt == c) | (pred == c))
        if union:
            want = inter / union
            np.testing.assert_allclose(iou[c - 1], want, atol=1e-12)
            vals.append(want)
        else:
            assert np.isnan(iou[c - 1])
    np.testing.assert_allclose(mean, np.mean(vals), atol=1e-12)


def test_miou_excludes_absent_classes():
    gt = np.array([1, 1, 2])
    pred = np.array([1, 2, 2])
    iou, mean = metrics.miou(metrics.confusion_matrix(gt, pred, k=4))
    assert np.isnan(iou[2]) and np.isnan(iou[3])
    np.testing.assert_allclose(mean, np.nanmean(iou[:2]), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3000))
def test_miou_invariant_under_joint_class_permutation(seed):
    r = np.random.default_rng(seed)
    gt = r.integers(1, 5, size=60)
    pred = r.integers(1, 5, size=60)
    perm = r.permutation(4) + 1
    _, m1 = metrics.miou(metrics.confusion_matrix(gt, pred, k=4))
    _, m2 = metrics.miou(metrics.confusion_matrix(perm[gt - 1], perm[pred - 1], k=4))
    np.testing.assert_allclose(m1, m2, atol=1e-12)


def _box(x, y, cls=1):
    return Box(center=np.array([x, y, 0.5]), size=np.array([1.0, 1.0, 1.0]),
               yaw=0.0, class_id=cls)


def test_ap_perfect_predictions_is_one():
    gts = [_box(1, 1), _box(5, 5), _box(9, 3, cls=2)]
    preds = [(b, 1.0) for b in gts]
    table, mean_ap = metrics.center_distance_ap([(preds, gts)])
    present = ~np.isnan(table)
    np.testing.assert_allclose(table[present], 1.0)
    assert mean_ap == pytest.approx(1.0)


def test_ap_no_predictions_is_zero():
    gts = [_box(1, 1)]
    table, mean_ap = metrics.center_distance_ap([([], gts)])
    np.testing.assert_allclose(table[0], 0.0)
    assert mean_ap == 0.0


def test_ap_hand_computed_false_positive_case():
    # 3 ground truths; 3 perfect hits plus one far false positive scored second
    gts = [_box(1, 1), _box(5, 5), _box(9, 9)]
    preds = [(_box(1, 1), 0.95), (_box(30, 30), 0.9), (_box(5, 5), 0.8),
             (_box(9, 9), 0.7)]
    table, _ = metrics.center_distance_ap([(preds, gts)], thresholds=(2.0,))
    # tp pattern in score order: [1, 0, 1, 1]
    # recall:    1/3, 1/3, 2/3, 1
    # precision: 1, 1/2, 2/3, 3/4
    grid = np.linspace(0, 1, 101)
    rec = np.array([1 / 3, 1 / 3, 2 / 3, 1.0])
    prec = np.array([1.0, 0.5, 2 / 3, 0.75])
    interp = np.interp(grid, rec, prec, right=0.0)
    want = interp[11:].mean()
    np.testing.assert_allclose(table[0, 0], want, atol=1e-12)


def test_ap_monotone_in_threshold():
    r = rng(1)
    gts = [_box(float(r.uniform(0, 10)), float(r.uniform(0, 10))) for _ in range(5)]
    preds = [(_box(float(b.center[0] + r.normal(0, 1.0)),
                   float(b.center[1] + r.normal(0, 1.0))), float(r.uniform(0.2, 1)))
             for b in gts]
    table, _ = metrics.center_distance_ap([(preds, gts)])
    row = table[0]
    assert (np.diff(row) >= -1e-12).all()  # larger threshold never hurts


def test_matching_is_per_sample():
    gts_a = [_box(1, 1)]
    gts_b = [_box(1, 1)]
    # the prediction in sample B cannot match the gt of sample A
    samples = [([], gts_a), ([(_box(1, 1), 1.0)], gts_b)]
    table, mean_ap = metrics.center_distance_ap(samples, thresholds=(2.0,))
    grid = np.linspace(0, 1, 101)
    interp = np.interp(grid, [0.5], [1.0], right=0.0)
    np.testing.assert_allclose(table[0, 0], interp[11:].mean(), atol=1e-12)


def test_report_formats():
    txt = metrics.format_report({"miou": 0.5, "steps": 10})
    assert "miou: 0.500000" in txt and "steps: 10" in txt


def test_write_report_machine_readable(tmp_path):
    path = tmp_path / "report.kv"
    metrics.write_report({"acc": 0.25, "n": 3}, path)
    lines = path.read_text().strip().splitlines()
    assert "acc=0.25" in lines and "n=3" in lines
