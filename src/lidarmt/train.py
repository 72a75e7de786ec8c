"""Training loop (AdamW + one-cycle schedule), evaluation, inference, and
offset inspection over the assembled model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ck
from . import metrics as mx
from . import tasks
from . import voxel as vx
from .config import ConfigError, canonical_text, config_hash, load_config, parse_config_text
from .cross_space import OffsetCollector
from .data import (NUM_CLASSES, THING_SEMANTIC_OFFSET, SceneSample, augment,
                   concat_frames, draw_augment_params, read_dataset)
from .model import EmptyFrameError, Model


class TrainingDiverged(Exception):
    """Loss or gradient became non-finite; a diagnostic checkpoint is dumped first."""


def one_cycle_lr(step: int, total: int, peak: float, div_factor: float = 25.0,
                 final_div: float = 1000.0, warmup_pct: float = 0.3) -> float:
    """Linear warm-up from peak/div to the peak, then cosine decay to
    peak/final_div. step 0 gives exactly peak/div; the peak lands at
    warmup_pct of the run."""
    warm = max(1, int(round(warmup_pct * total)))
    start = peak / div_factor
    if step <= warm:
        return start + (peak - start) * (step / warm)
    final = peak / final_div
    progress = (step - warm) / max(1, total - warm)
    return final + (peak - final) * 0.5 * (1.0 + math.cos(math.pi * progress))


BLOCK = 32 * 1024   # floats per AdamW block: its arrays stay in cache together


class AdamW:
    """Decoupled weight decay; moments keyed by parameter name."""

    def __init__(self, params: dict, beta1=0.9, beta2=0.99, eps=1e-8,
                 weight_decay=0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.clip_factor = 1.0
        # C-contiguous whatever the parameter's layout, so step's flat views are views
        self.m = {k: np.zeros(v.data.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.data.shape) for k, v in params.items()}
        self._scratch = np.empty((2, BLOCK))

    def zero_grad(self):
        """Drop every gradient, and with them the recorded clip factor."""
        for p in self.params.values():
            p.grad = None
        self.clip_factor = 1.0

    def clip_global_norm(self, max_norm: float) -> float:
        """Return the global grad norm, and record the clip factor `step` folds into
        its moment constants: max_norm / norm when it exceeds max_norm > 0, else 1."""
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float(np.vdot(p.grad, p.grad))
        norm = math.sqrt(total)
        self.clip_factor = max_norm / (norm + 1e-12) if 0 < max_norm < norm else 1.0
        return norm

    def step(self, lr: float):
        """p ← p·(1 − lr·λ) − α_t·m / (√v + ε̂), in place, BLOCK floats at a time, with
        α_t = lr·√(1−β2^t)/(1−β1^t), ε̂ = ε·√(1−β2^t) and the clip factor folded into
        the moments' constants. Bit-identical to the whole-array form of this formula."""
        self.t += 1
        b1, b2, scale = self.beta1, self.beta2, self.clip_factor
        c1, c2 = (1 - b1) * scale, (1 - b2) * scale * scale
        root = math.sqrt(1 - b2 ** self.t)
        alpha, eps, decay = lr * root / (1 - b1 ** self.t), self.eps * root, 1 - lr * self.weight_decay
        sa, sb = self._scratch
        for k, p in self.params.items():
            if p.grad is None:
                continue
            data = p.data if p.data.flags.c_contiguous else p.data.copy()
            pf, mf, vf, gf = (a.reshape(-1) for a in (data, self.m[k], self.v[k], p.grad))
            for i in range(0, pf.size, BLOCK):
                j = i + BLOCK
                pb, mb, vb, gb = pf[i:j], mf[i:j], vf[i:j], gf[i:j]
                s1, s2 = sa[:len(pb)], sb[:len(pb)]
                mb *= b1
                mb += np.multiply(gb, c1, out=s1)
                vb *= b2
                vb += np.multiply(np.multiply(gb, c2, out=s1), gb, out=s1)
                np.sqrt(vb, out=s1)
                s1 += eps
                np.divide(mb, s1, out=s2)
                s2 *= alpha
                pb *= decay
                pb -= s2
            if data is not p.data:  # a non-contiguous parameter, updated in a copy
                p.data[...] = data


def compute_losses(out, sample: SceneSample) -> dict:
    hm_t, reg_t, mask = tasks.make_detection_targets(sample.boxes, out.geometry)
    seg = tasks.ce_loss(out.seg_logits, out.frame.voxel_labels) \
        + tasks.lovasz_softmax(ad.softmax(out.seg_logits, axis=-1),
                               out.frame.voxel_labels)
    return {
        "seg": seg,
        "det_hm": tasks.focal_heatmap_loss(out.heatmap, hm_t),
        "det_reg": tasks.l1_box_loss(out.reg_map, reg_t, mask),
        "aux_seg": tasks.ce_loss(out.aux_logits, out.aux_labels),
    }


def training_view(sample: SceneSample, cfg: dict, step: int,
                  train_seed: int, allow_augment: bool = True) -> SceneSample:
    """Per-step input: optional augmentation, optional history concatenation.

    History frames are identical re-scans of the same static scene (optional
    coordinate jitter), posed at identity: only timestamps and point count
    change relative to the single-frame input. Evaluation and inference pass
    allow_augment=False so only the multi-frame part applies.
    """
    view = sample
    if allow_augment and cfg["augment.enabled"]:
        params = draw_augment_params(train_seed * 1_000_003 + step)
        view = augment(view, params)
    h = int(cfg["frames.history"])
    if h > 0:
        history = []
        jit = float(cfg["frames.jitter"])
        for age in range(1, h + 1):
            scan = SceneSample(points=view.points.copy(), labels=view.labels.copy(),
                               boxes=list(view.boxes), frame_id=view.frame_id)
            if jit > 0:
                r = np.random.default_rng(train_seed * 7_919 + step * 31 + age)
                scan.points[:, :3] += r.normal(0, jit, scan.points[:, :3].shape) \
                    .astype(np.float32)
            history.append(scan)
        view = concat_frames(view, history, [np.eye(4)] * h, dt=cfg["frames.dt"])
    return view


@dataclass
class TrainLog:
    steps: list = field(default_factory=list)
    raw_loss: list = field(default_factory=list)
    ema_loss: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)   # before clipping
    per_task: dict = field(default_factory=dict)


def train(cfg: dict, dataset_path=None, out_ckpt=None, log_path=None,
          samples: list[SceneSample] | None = None):
    """Run the optimization; returns (model, TrainLog). The returned model
    holds no gradients.

    Deterministic given config and data: scenes are visited round-robin and
    all randomness flows from named seeds.
    """
    # a NaN clip would switch clipping off; AdamW divides by 1 - beta**t and roots it
    for key, low, high in (("train.steps", 1, None), ("train.log_every", 1, None),
                           ("train.grad_clip", 0, None), ("train.beta1", 0, 1), ("train.beta2", 0, 1)):
        if not (cfg[key] >= low and (high is None or cfg[key] < high)):
            below = "" if high is None else f" and below {high}"
            raise ConfigError(f"{key} must be at least {low}{below}, got {cfg[key]}")
    if samples is None:
        samples = read_dataset(dataset_path if dataset_path is not None
                               else cfg["data.path"])
    if not samples:
        raise ValueError("dataset is empty")
    model = Model(cfg)
    params = model.parameters()
    opt = AdamW(params, beta1=cfg["train.beta1"], beta2=cfg["train.beta2"],
                weight_decay=cfg["train.weight_decay"])
    steps = int(cfg["train.steps"])
    log = TrainLog(per_task={k: [] for k in model.loss_weights.names})
    ema = None

    def diverged(step: int, what: str, name: str):
        """Dump the last finite parameters, then raise naming the non-finite `what`."""
        if out_ckpt is not None:
            save_model(str(out_ckpt) + ".diverged", model, opt, cfg, step)
        raise TrainingDiverged(f"non-finite {what} at step {step}: {name}")

    def train_step(step: int, lr: float) -> tuple:
        """(loss, pre-clip norm, per-task losses) as floats: the step's graph
        dies on return, before the next step's forward builds its own."""
        view = training_view(samples[step % len(samples)], cfg, step, cfg["train.seed"])
        out = model.forward(view)
        losses = compute_losses(out, view)
        total = tasks.uncertainty_combine(losses, model.loss_weights)
        value = float(total.data)
        if not math.isfinite(value):
            term = next((k for k, v in losses.items() if not math.isfinite(v.data)),
                        "weighted total")
            diverged(step, "loss", term)
        opt.zero_grad()
        total.backward()
        norm = opt.clip_global_norm(cfg["train.grad_clip"])
        if not math.isfinite(norm):   # NaN would leave the clip at 1, inf set it to 0
            name = next((k for k, p in params.items() if p.grad is not None
                         and not np.isfinite(p.grad).all()), "global norm")
            diverged(step, "gradient", name)
        opt.step(lr)
        return value, norm, {k: float(losses[k].data) for k in model.loss_weights.names}

    log_file = open(log_path, "w") if log_path else None
    try:
        for step in range(steps):
            lr = one_cycle_lr(step, steps, cfg["train.peak_lr"],
                              cfg["train.div_factor"], cfg["train.final_div"],
                              cfg["train.warmup_pct"])
            value, norm, per_task = train_step(step, lr)
            ema = value if ema is None else 0.95 * ema + 0.05 * value
            log.steps.append(step)
            log.raw_loss.append(value)
            log.ema_loss.append(ema)
            log.lr.append(lr)
            log.grad_norm.append(norm)
            for k, v in per_task.items():
                log.per_task[k].append(v)
            if log_file and (step % int(cfg["train.log_every"]) == 0
                             or step == steps - 1):
                tasks_txt = " ".join(f"{k}={v:.4f}" for k, v in per_task.items())
                log_file.write(f"step={step} lr={lr:.6g} loss={value:.6f} "
                               f"ema={ema:.6f} gnorm={norm:.6g} {tasks_txt}\n")
    finally:
        if log_file:
            log_file.close()
    opt.zero_grad()
    if out_ckpt is not None:
        save_model(out_ckpt, model, opt, cfg, steps)
    return model, log


def save_model(path, model: Model, opt: AdamW | None, cfg: dict, step: int) -> None:
    """Write the model's parameters, `cfg` and `step`. `opt` is unused: a
    checkpoint holds no optimizer state."""
    params = {k: v.data for k, v in model.parameters().items()}
    ck.save_checkpoint(path, ck.CheckpointData(config_text=canonical_text(cfg),
                                               config_hash=config_hash(cfg), step=step,
                                               params=params))


def load_model(path, cfg: dict | None = None):
    """Rebuild the model a checkpoint was saved from; verify config hashes.
    Without `cfg`, the stored config is typed as `load_config` types a file."""
    data = ck.load_checkpoint(path)
    stored_cfg = parse_config_text(data.config_text)
    if cfg is not None and config_hash(cfg) != data.config_hash:
        raise ck.CheckpointError(
            f"config hash mismatch: runtime {config_hash(cfg)[:12]} vs "
            f"checkpoint {data.config_hash[:12]}")
    if config_hash(stored_cfg) != data.config_hash:
        raise ck.CheckpointError("checkpoint is internally inconsistent")
    if cfg is None:
        cfg = load_config(overrides=stored_cfg)
    return Model(cfg, data.params), cfg, data


def evaluate(model: Model, samples: list[SceneSample], cfg: dict) -> dict:
    """Point-level mIoU, voxel accuracy, center-distance mAP, and the
    fraction of ground-truth objects hit within one BEV cell."""
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    vox_correct = 0
    vox_total = 0
    ap_samples = []
    gt_total = 0
    gt_hit = 0
    dropped = 0
    for sample in samples:
        view = training_view(sample, cfg, 0, cfg["train.seed"], allow_augment=False)
        with ad.no_grad():
            out = model.forward(view)
        pred_vox = np.argmax(out.seg_logits.data, axis=1).astype(np.int32) + 1
        vox_correct += int((pred_vox == out.frame.voxel_labels).sum())
        vox_total += len(pred_vox)
        dropped += out.frame.dropped
        point_pred = vx.devoxelize(pred_vox, out.frame.point_to_voxel)
        gt_points = view.labels[out.frame.kept]
        cm += mx.confusion_matrix(gt_points, point_pred)

        decoded = tasks.decode_boxes(out.heatmap.data, out.reg_map.data,
                                     out.geometry, cfg["detect.threshold"],
                                     cfg["detect.max_boxes"])
        ap_samples.append((decoded, list(sample.boxes)))
        cell = np.array(out.geometry.cell_size)
        for gt in sample.boxes:
            gt_total += 1
            for box, _score in decoded:
                if box.class_id != gt.class_id:
                    continue
                d = (box.center[:2].astype(np.float64)
                     - gt.center[:2].astype(np.float64)) / cell
                if float(np.hypot(*d)) <= 1.0:
                    gt_hit += 1
                    break
    iou, miou = mx.miou(cm)
    table, mean_ap = mx.center_distance_ap(ap_samples)
    report = {
        "voxel_accuracy": vox_correct / max(vox_total, 1),
        "point_miou": miou,
        "mean_ap": mean_ap,
        "center_hit_rate": gt_hit / max(gt_total, 1),
        "dropped_points": int(dropped),
        "scenes": len(samples),
    }
    for k, v in enumerate(iou):
        if not np.isnan(v):
            report[f"iou_class_{k + 1}"] = float(v)
    # keyed by semantic label like iou_class_k; a class without ground truth is NaN
    for k, row in enumerate(table, 1 + THING_SEMANTIC_OFFSET):
        if not np.isnan(row[0]):
            report.update({f"ap_class_{k}_{t:g}m": float(ap)
                           for t, ap in zip(mx.AP_THRESHOLDS, row)})
    return report


def infer(model: Model, sample: SceneSample, cfg: dict) -> dict:
    """Per-point labels for the input sample (0 where a point fell outside
    the grid; all 0 and no boxes when none fell inside) and decoded boxes.
    Multi-frame configs get their history view; predictions are reported
    for the current frame's points only."""
    view = training_view(sample, cfg, 0, cfg["train.seed"], allow_augment=False)
    try:
        with ad.no_grad():
            out = model.forward(view)
    except EmptyFrameError:
        return {"point_labels": [0] * len(sample.points), "boxes": []}
    pred_vox = np.argmax(out.seg_logits.data, axis=1).astype(np.int32) + 1
    point_pred = np.zeros(len(view.points), dtype=np.int32)
    point_pred[out.frame.kept] = vx.devoxelize(pred_vox, out.frame.point_to_voxel)
    labels = point_pred[:len(sample.points)]
    decoded = tasks.decode_boxes(out.heatmap.data, out.reg_map.data, out.geometry,
                                 cfg["detect.threshold"], cfg["detect.max_boxes"])
    return {
        "point_labels": labels.tolist(),
        "boxes": [{
            "center": [float(x) for x in box.center],
            "size": [float(x) for x in box.size],
            "yaw": float(box.yaw),
            "class_id": int(box.class_id),
            "score": score,
        } for box, score in decoded],
    }


def inspect_offsets(model: Model, sample: SceneSample, cfg: dict,
                    quantile: float = 0.0) -> np.ndarray:
    """Offset rows (u, v, h, head, height, point, du, dv, weight) from every
    attention block over the view `infer` sees, filtered to weights at or
    above the given quantile."""
    view = training_view(sample, cfg, 0, cfg["train.seed"], allow_augment=False)
    collector = OffsetCollector()
    with ad.no_grad():
        model.forward(view, collector=collector)
    rows = collector.stacked()
    if len(rows) == 0:
        return rows
    if quantile > 0:
        cut = np.quantile(rows[:, 8], quantile)
        rows = rows[rows[:, 8] >= cut]
    return rows


def format_offsets(rows: np.ndarray) -> str:
    header = "# u v h head height point du dv weight\n"
    body = "\n".join(" ".join(f"{x:.6g}" for x in row) for row in rows)
    return header + body + ("\n" if len(rows) else "")
