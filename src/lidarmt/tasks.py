"""Detection targets and decoding, plus the full loss stack: penalty-reduced
focal heatmap loss, masked L1 box regression, cross-entropy, Lovasz-softmax,
and learned multi-task uncertainty weighting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import NUM_THING, Box
from .sparse import unpack_coords

REG_CHANNELS = 8  # dx, dy, z, log l, log w, log h, sin yaw, cos yaw


@dataclass
class BevGeometry:
    """Detection-map geometry: origin and metric cell size of the BEV grid."""

    origin: tuple      # (x0, y0)
    cell_size: tuple   # (sx, sy)
    shape: tuple       # (H, W) rows=y, cols=x

    def cell_of(self, xy) -> tuple:
        fx = (xy[0] - self.origin[0]) / self.cell_size[0]
        fy = (xy[1] - self.origin[1]) / self.cell_size[1]
        return fx, fy


def gaussian_radius(footprint_cells: tuple, min_overlap: float = 0.1) -> float:
    """Splat radius from a box footprint in cells: the smallest radius whose
    shifted box still overlaps the true one by at least min_overlap IoU."""
    height, width = footprint_cells
    a1 = 1.0
    b1 = height + width
    c1 = width * height * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 + math.sqrt(max(b1 ** 2 - 4 * a1 * c1, 0.0))) / 2
    a2 = 4.0
    b2 = 2 * (height + width)
    c2 = (1 - min_overlap) * width * height
    r2 = (b2 + math.sqrt(max(b2 ** 2 - 4 * a2 * c2, 0.0))) / (2 * a2)
    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (height + width)
    c3 = (min_overlap - 1) * width * height
    r3 = (b3 + math.sqrt(max(b3 ** 2 - 4 * a3 * c3, 0.0))) / (2 * a3)
    return min(r1, r2, r3)


def make_detection_targets(boxes: list[Box], geom: BevGeometry):
    """Gaussian-splatted class heatmaps plus regression targets at center
    cells. Heatmap peaks are exactly 1 at each center cell; the regression
    channels are (dx, dy, z, log sizes, sin yaw, cos yaw)."""
    h, w = geom.shape
    heatmap = np.zeros((NUM_THING, h, w))
    reg = np.zeros((REG_CHANNELS, h, w))
    mask = np.zeros((h, w), dtype=bool)
    for box in boxes:
        fx, fy = geom.cell_of(box.center[:2])
        cx, cy = int(np.floor(fx)), int(np.floor(fy))
        if not (0 <= cx < w and 0 <= cy < h):
            continue
        foot = (float(box.size[1]) / geom.cell_size[1],
                float(box.size[0]) / geom.cell_size[0])
        radius = max(1, int(gaussian_radius(foot)))
        sigma = (2 * radius + 1) / 6.0
        k = box.class_id - 1
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                yy, xx = cy + dy, cx + dx
                if 0 <= yy < h and 0 <= xx < w:
                    val = math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma))
                    heatmap[k, yy, xx] = max(heatmap[k, yy, xx], val)
        heatmap[k, cy, cx] = 1.0
        reg[:, cy, cx] = [fx - cx, fy - cy, float(box.center[2]),
                          math.log(float(box.size[0])), math.log(float(box.size[1])),
                          math.log(float(box.size[2])), math.sin(box.yaw),
                          math.cos(box.yaw)]
        mask[cy, cx] = True
    return heatmap, reg, mask


def focal_heatmap_loss(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Penalty-reduced focal loss (alpha=2, beta=4), normalized by the
    positive count (at least 1). pred holds probabilities in (0, 1)."""
    pos = target == 1.0
    neg = ~pos
    p = ad.clip(pred, 1e-12, 1.0 - 1e-12)
    one_minus = ad.add(ad.constant(1.0), ad.neg(p))
    pos_term = ad.mul(ad.constant(pos.astype(float)),
                      ad.mul(ad.mul(one_minus, one_minus), ad.log(p)))
    neg_weight = neg.astype(float) * (1.0 - target) ** 4
    neg_term = ad.mul(ad.constant(neg_weight),
                      ad.mul(ad.mul(p, p), ad.log(one_minus)))
    n_pos = max(int(pos.sum()), 1)
    return ad.mul(ad.add(pos_term.sum(), neg_term.sum()), ad.constant(-1.0 / n_pos))


def l1_box_loss(pred_reg: ad.Tensor, target_reg: np.ndarray,
                center_mask: np.ndarray) -> ad.Tensor:
    """Mean absolute error over ground-truth center cells and all channels."""
    cells = np.flatnonzero(center_mask.ravel())
    if len(cells) == 0:
        return ad.constant(0.0)
    c, h, w = pred_reg.data.shape
    rows = ad.reshape(ad.transpose(pred_reg, (1, 2, 0)), (h * w, c))
    pred_rows = ad.gather_rows(rows, cells)
    want = target_reg.reshape(c, h * w).T[cells]
    return ad.reduce_mean(ad.absolute(pred_rows - ad.constant(want)))


def ce_loss(logits: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Mean negative log-softmax of the true class; labels are 1-based."""
    labels = np.asarray(labels).reshape(-1)
    if len(labels) == 0:
        return ad.constant(0.0)
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.gather(logp, (np.arange(len(labels)), labels - 1))
    return ad.neg(ad.reduce_mean(picked))


def _lovasz_grad(gt_sorted: np.ndarray) -> np.ndarray:
    gts = gt_sorted.sum()
    intersection = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jaccard = 1.0 - intersection / union
    if len(jaccard) > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(probs: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Lovasz extension of the Jaccard loss on softmax probabilities,
    averaged over the classes present in the labels."""
    labels = np.asarray(labels).reshape(-1)
    if len(labels) == 0:
        return ad.constant(0.0)
    present = np.unique(labels)
    terms = []
    m = len(labels)
    for cls in present:
        fg = (labels == cls).astype(np.float64)
        col = ad.gather(probs, (np.arange(m), np.full(m, cls - 1)))
        errors = ad.absolute(ad.constant(fg) - col)
        perm = np.argsort(-errors.data, kind="stable")
        grad = _lovasz_grad(fg[perm])
        terms.append(ad.mul(ad.gather_rows(errors, perm), ad.constant(grad)).sum())
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return ad.mul(total, ad.constant(1.0 / len(present)))


@dataclass
class LossWeights:
    """Learnable log-variance per task; the fused objective is
    sum_k exp(-s_k) * L_k + s_k."""

    names: tuple
    log_vars: ad.Tensor

    @classmethod
    def create(cls, names: tuple) -> "LossWeights":
        return cls(names=tuple(names), log_vars=ad.parameter(np.zeros(len(names))))


def uncertainty_combine(losses: dict, weights: LossWeights) -> ad.Tensor:
    total = ad.constant(0.0)
    for k, name in enumerate(weights.names):
        s_k = weights.log_vars[np.array(k)]
        total = total + ad.mul(ad.exp(ad.neg(s_k)), losses[name]) + s_k
    return total


def peak_mask(heatmap: np.ndarray) -> np.ndarray:
    """Cells equal to their 3x3 neighbourhood maximum."""
    k, h, w = heatmap.shape
    padded = np.full((k, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    pool = np.full_like(heatmap, -np.inf)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            pool = np.maximum(pool, padded[:, dy:dy + h, dx:dx + w])
    return heatmap >= pool


def rank_peaks(heatmap: np.ndarray) -> tuple[np.ndarray, int]:
    """Every linearized cell of a (K, H, W) heatmap, peaks first, each group by
    descending score with ties by index; and the number of peaks."""
    flat = heatmap.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))
    peak = peak_mask(heatmap).ravel()[order]
    return order[np.argsort(~peak, kind="stable")], int(peak.sum())


def decode_boxes(heatmap: np.ndarray, reg: np.ndarray, geom: BevGeometry,
                 threshold: float = 0.1, max_boxes: int = 32):
    """Peak cells above threshold become boxes with scores, in rank_peaks order."""
    k, h, w = heatmap.shape
    flat = heatmap.ravel()
    ranked, n_peaks = rank_peaks(heatmap)
    peaks = ranked[:n_peaks]
    order = peaks[flat[peaks] >= threshold][:max_boxes]
    out = []
    for idx, (cx, cy, cls) in zip(order, unpack_coords(order, (w, h, k)).tolist()):
        r = reg[:, cy, cx]
        x = (cx + r[0]) * geom.cell_size[0] + geom.origin[0]
        y = (cy + r[1]) * geom.cell_size[1] + geom.origin[1]
        yaw = math.atan2(r[6], r[7])
        if yaw >= math.pi:
            yaw -= 2 * math.pi
        box = Box(center=np.array([x, y, r[2]]),
                  size=np.exp(r[3:6]), yaw=yaw, class_id=cls + 1)
        out.append((box, float(flat[idx])))
    return out
