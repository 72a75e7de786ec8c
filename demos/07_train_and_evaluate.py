"""Train the full multi-task model on a few synthetic scenes (~1 minute).

A short overfit run on six small scenes: AdamW under a one-cycle schedule,
all four task losses fused by learned uncertainty weights. Afterwards the
checkpoint round-trips bit-exactly and the learned attention offsets are
dumped for inspection.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from lidarmt import config as cf
from lidarmt import data
from lidarmt import train as tr
from lidarmt.cli import scene_spec_from_config

cfg = cf.load_config(overrides={
    "scene.extent_min": (-4.0, -4.0, 0.0), "scene.extent_max": (4.0, 4.0, 4.0),
    "scene.objects_per_class": (1, 1, 0, 0), "scene.min_center_gap": 2.0,
    "model.base_channels": 8, "model.vfe_widths": (8, 8),
    "model.cross_space.head_dim_d2s": 16, "model.cross_space.head_dim_s2d": 16,
    "model.cross_space.ffn": 32, "model.cross_task.width": 32,
    "model.cross_task.head_dim": 8, "model.cross_task.ffn": 32,
    "model.cross_task.centers": 4, "train.steps": 250, "train.peak_lr": 3e-3,
})
spec = scene_spec_from_config(cfg)
scenes = [data.generate_scene(s, spec, frame_id=s) for s in range(6)]
print(f"dataset: {len(scenes)} scenes, ~{len(scenes[0].points)} points each")

t0 = time.time()
model, log = tr.train(cfg, samples=scenes)
print(f"trained {cfg['train.steps']} steps in {time.time() - t0:.0f}s")
for i in range(0, len(log.steps), 50):
    print(f"  step {log.steps[i]:4d}  lr {log.lr[i]:.5f}  loss {log.raw_loss[i]:7.3f}"
          f"  (ema {log.ema_loss[i]:7.3f})")

report = tr.evaluate(model, scenes, cfg)
print("\ntraining-set metrics:")
for key in ("voxel_accuracy", "point_miou", "mean_ap", "center_hit_rate"):
    print(f"  {key}: {report[key]:.3f}")

ckpt = Path("/tmp/lidarmt_demo.ckpt")
tr.save_model(ckpt, model, None, cfg, cfg["train.steps"])
loaded, _, _ = tr.load_model(ckpt)
a = model.forward(scenes[0])
b = loaded.forward(scenes[0])
assert np.array_equal(a.seg_logits.data, b.seg_logits.data)
print("\ncheckpoint round trip reproduces the forward bit-exactly: ok")

rows = tr.inspect_offsets(model, scenes[0], cfg, quantile=0.9)
radii = np.hypot(rows[:, 6], rows[:, 7])
print(f"learned offsets (top decile by weight): {len(rows)} rows, "
      f"radius min {radii.min():.2f} / max {radii.max():.2f} cells")
