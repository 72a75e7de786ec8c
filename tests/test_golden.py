"""Golden-output test: a seeded model on a seeded scene, pinned to recorded
arrays so that refactors which reorder the arithmetic prove they kept
behaviour.

Every residual branch of the cross-task decoder is live (its output
projections, feed-forward second layers and attention biases are drawn at
random instead of zero), and the 64 x 64 x 8 grid gives an 8 x 8 BEV, wider
than the 7 x 7 center window, so the windowed center attention masks keys.
The fixture holds `seg_logits`, `heatmap` and `reg_map` of the seeded model
and the loss and pre-clip gradient norm of each of three AdamW steps. The
stepped model itself is not pinned: AdamW's first steps scale rounding noise
in near-zero gradient entries by up to lr / (4 eps), so rounding differences
grow about tenfold per step, and the loss after the third update already moves
by 4e-13 of itself with the BLAS thread count alone.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when a
change is meant to alter these outputs.
"""

from pathlib import Path

import numpy as np

from lidarmt import cli
from lidarmt import config as cf
from lidarmt import data
from lidarmt import params as pp
from lidarmt import tasks
from lidarmt import train as tr
from lidarmt.model import Model

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_forward.npz"
OVERRIDES = {"scene.extent_min": (-16.0, -16.0, 0.0),
             "scene.extent_max": (16.0, 16.0, 4.0),
             "scene.objects_per_class": (6, 4, 4, 4)}
STEPS = 3


def golden_run() -> dict:
    cfg = cf.load_config(overrides=OVERRIDES)
    model = Model(cfg)
    assert model.hw_bev[0] > cfg["model.cross_task.window"]
    r = np.random.default_rng(0)
    for name, t in pp.collect(model.cross_task, "cross_task").items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("wo", "w2"):
            t.data[:] = r.normal(0, np.sqrt(1.0 / t.data.shape[0]), t.data.shape)
        elif leaf in ("bq", "bk", "bv", "bo"):
            t.data[:] = r.normal(0, 0.1, t.data.shape)
    scene = data.generate_scene(0, cli.scene_spec_from_config(cfg), frame_id=0)
    opt = tr.AdamW(model.parameters(), beta1=cfg["train.beta1"],
                   beta2=cfg["train.beta2"], weight_decay=cfg["train.weight_decay"])
    record, losses, norms = {}, [], []
    for step in range(STEPS):
        out = model.forward(scene)
        if step == 0:
            record = {"seg_logits": out.seg_logits.data, "heatmap": out.heatmap.data,
                      "reg_map": out.reg_map.data}
        total = tasks.uncertainty_combine(tr.compute_losses(model, out, scene),
                                          model.loss_weights)
        losses.append(float(total.data))
        opt.zero_grad()
        total.backward()
        norms.append(opt.clip_global_norm(cfg["train.grad_clip"]))
        opt.step(cfg["train.peak_lr"])
    return {**record, "loss": np.array(losses), "grad_norm": np.array(norms)}


def test_golden_outputs_and_three_adamw_steps():
    want = np.load(FIXTURE)
    got = golden_run()
    assert sorted(want.files) == sorted(got)
    for key in want.files:
        assert got[key].shape == want[key].shape, key
        scale = np.abs(want[key]).max()
        err = np.abs(got[key] - want[key]).max()
        assert err <= 1e-12 * scale, f"{key}: max abs error {err:.3e} vs scale {scale:.3e}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez(FIXTURE, **golden_run())
    print(f"wrote {FIXTURE}")
