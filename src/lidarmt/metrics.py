"""Evaluation metrics: confusion-matrix mIoU for segmentation and a
center-distance average precision for detection."""

from __future__ import annotations

import numpy as np

from . import container as cx
from .data import NUM_CLASSES, NUM_THING, labels_in_range
from .sparse import pack_coords

AP_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)  # meters


def confusion_matrix(gt: np.ndarray, pred: np.ndarray,
                     k: int = NUM_CLASSES) -> np.ndarray:
    """K x K counts; rows are ground truth, columns predictions. 1-based labels."""
    gt = np.asarray(gt).reshape(-1)
    pred = np.asarray(pred).reshape(-1)
    if gt.shape != pred.shape:
        raise ValueError("gt and pred length mismatch")
    if not (labels_in_range(gt, k) and labels_in_range(pred, k)):
        raise ValueError(f"label outside 1..{k}")
    keys = pack_coords(np.column_stack([pred - 1, gt - 1]), (k, k))
    return np.bincount(keys, minlength=k * k).reshape(k, k)


def miou(cm: np.ndarray):
    """Per-class IoU and the mean over classes present in gt or pred."""
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.full(len(cm), np.nan)
    active = denom > 0
    iou[active] = tp[active] / denom[active]
    mean = float(iou[active].mean()) if active.any() else float("nan")
    return iou, mean


def _match_class(preds, gts, threshold):
    """Greedy score-ordered matching; returns tp flags aligned with preds."""
    order = sorted(range(len(preds)), key=lambda i: -preds[i][2])
    taken = [False] * len(gts)
    tp = np.zeros(len(preds), dtype=bool)
    for rank, i in enumerate(order):
        sample, box, _score = preds[i]
        best, best_d = -1, threshold
        for g, (gsample, gbox) in enumerate(gts):
            if taken[g] or gsample != sample:
                continue
            d = float(np.hypot(*(box.center[:2].astype(np.float64)
                                 - gbox.center[:2].astype(np.float64))))
            if d <= best_d:
                best, best_d = g, d
        if best >= 0:
            taken[best] = True
            tp[rank] = True
    return tp


def _average_precision(tp: np.ndarray, n_gt: int) -> float:
    """Normalized area under the interpolated PR curve above recall 0.1."""
    if n_gt == 0:
        return float("nan")
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(tp) + 1)
    grid = np.linspace(0.0, 1.0, 101)
    interp = np.interp(grid, recall, precision, right=0.0)
    return float(interp[11:].mean())


def center_distance_ap(samples, thresholds=AP_THRESHOLDS):
    """Center-distance average precision over multiple distance thresholds.

    `samples` is a list of (predictions, gt_boxes) pairs, predictions being
    (Box, score) tuples. Matching is greedy in score order against unmatched
    ground truth of the same class within the 2D center-distance threshold.
    Returns (per-class-per-threshold AP table, mAP over classes with gt).
    """
    table = np.full((NUM_THING, len(thresholds)), np.nan)
    for cls in range(1, NUM_THING + 1):
        preds, gts = [], []
        for s, (pred_list, gt_list) in enumerate(samples):
            preds += [(s, box, score) for box, score in pred_list
                      if box.class_id == cls]
            gts += [(s, box) for box in gt_list if box.class_id == cls]
        if not gts:
            continue
        preds_sorted = sorted(preds, key=lambda t: -t[2])
        for j, thr in enumerate(thresholds):
            tp = _match_class(preds_sorted, gts, thr)
            table[cls - 1, j] = _average_precision(tp, len(gts))
    present = ~np.isnan(table[:, 0])
    mean_ap = float(table[present].mean()) if present.any() else float("nan")
    return table, mean_ap


def format_report(values: dict) -> str:
    """One `name: value` line per metric, stable order."""
    lines = [f"{k}: {values[k]:.6f}" if isinstance(values[k], float)
             else f"{k}: {values[k]}" for k in values]
    return "\n".join(lines) + "\n"


def write_report(values: dict, path) -> None:
    """Machine-readable key=value file."""
    with cx.atomic_write(path, "w") as f:
        for k in values:
            v = values[k]
            f.write(f"{k}={v:.10g}\n" if isinstance(v, float) else f"{k}={v}\n")
