import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lidarmt
from lidarmt import autodiff as ad
from lidarmt import checkpoint as ck
from lidarmt import cli
from lidarmt import config as cf
from lidarmt import data
from lidarmt import sparse
from lidarmt import train as tr
from lidarmt.model import EmptyFrameError, Model

from conftest import rng


TINY = {
    "scene.extent_min": (-4.0, -4.0, 0.0),
    "scene.extent_max": (4.0, 4.0, 4.0),
    "scene.objects_per_class": (1, 1, 0, 0),
    "scene.ground_density": 1.0,
    "scene.wall_density": 0.5,
    "scene.object_density": 4.0,
    "scene.min_center_gap": 2.0,
    "model.base_channels": 8,
    "model.vfe_widths": (8, 8),
    "model.cross_space.head_dim_d2s": 8,
    "model.cross_space.head_dim_s2d": 8,
    "model.cross_space.ffn": 16,
    "model.cross_task.width": 16,
    "model.cross_task.head_dim": 4,
    "model.cross_task.ffn": 16,
    "model.cross_task.centers": 4,
    "train.steps": 4,
    "train.log_every": 1,
}


def tiny_cfg(**kw):
    over = dict(TINY)
    over.update(kw)
    return cf.load_config(overrides=over)


def tiny_scenes(n=2):
    cfg = tiny_cfg()
    spec = cli.scene_spec_from_config(cfg)
    return [data.generate_scene(s, spec, frame_id=s) for s in range(n)], cfg


# -- config ---------------------------------------------------------------


def test_config_roundtrip_and_types(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("train.steps = 7\nmodel.vfe_widths = 4,4\naugment.enabled = true\n"
                 "# comment\ntrain.peak_lr = 1e-4\n")
    cfg = cf.load_config(p)
    assert cfg["train.steps"] == 7
    assert cfg["model.vfe_widths"] == (4, 4)
    assert cfg["augment.enabled"] is True
    assert cfg["train.peak_lr"] == pytest.approx(1e-4)


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("train.stpes = 7\n")
    with pytest.raises(cf.ConfigError):
        cf.load_config(p)


def test_reference_attention_hyperparameters():
    # stacked-block counts, head counts, per-head widths, and FFN widths of
    # the attention modules ship at their reference values
    cfg = cf.load_config()
    assert cfg["model.cross_space.blocks"] == 2
    assert cfg["model.cross_space.heads"] == 4
    assert cfg["model.cross_space.head_dim_d2s"] == 64
    assert cfg["model.cross_space.head_dim_s2d"] == 32
    assert cfg["model.cross_space.ffn"] == 256
    assert cfg["model.cross_task.layers"] == 3
    assert cfg["model.cross_task.heads"] == 4
    assert cfg["model.cross_task.head_dim"] == 32
    assert cfg["model.cross_task.ffn"] == 64


def test_config_hash_stable_and_sensitive():
    a = cf.load_config()
    b = cf.load_config()
    assert cf.config_hash(a) == cf.config_hash(b)
    c = cf.load_config(overrides={"train.steps": 999})
    assert cf.config_hash(a) != cf.config_hash(c)


def test_reference_config_parses_to_defaults(tmp_path):
    p = tmp_path / "ref.cfg"
    p.write_text(cf.reference_config())
    assert cf.load_config(p) == cf.load_config()


# -- schedule and optimizer -------------------------------------------------


def test_one_cycle_schedule_endpoints():
    peak, div = 1e-2, 25.0
    assert tr.one_cycle_lr(0, 100, peak, div) == pytest.approx(peak / div)
    assert tr.one_cycle_lr(30, 100, peak, div) == pytest.approx(peak)
    assert tr.one_cycle_lr(100, 100, peak, div, final_div=1000.0) == pytest.approx(peak / 1000)
    mid = tr.one_cycle_lr(65, 100, peak, div)
    assert peak / 1000 < mid < peak


def test_zero_learning_rate_leaves_parameters_unchanged():
    samples, _ = tiny_scenes(2)
    cfg = tiny_cfg(**{"train.peak_lr": 0.0, "train.div_factor": 1.0,
                      "train.final_div": 1.0, "train.steps": 2})
    before = Model(cfg).parameters()
    snapshot = {k: v.data.copy() for k, v in before.items()}
    model, _log = tr.train(cfg, samples=samples)
    after = model.parameters()
    for k in snapshot:
        np.testing.assert_array_equal(after[k].data, snapshot[k])


def test_adamw_moves_parameters():
    p = {"w": ad.parameter(np.ones(3))}
    opt = tr.AdamW(p)
    p["w"].grad = np.array([1.0, -1.0, 0.5])
    opt.step(0.1)
    assert not np.allclose(p["w"].data, 1.0)


# -- model forward contracts --------------------------------------------------


def test_forward_shape_contracts():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    out = model.forward(samples[0])
    m = out.frame.num_voxels
    assert out.seg_logits.shape == (m, 6)
    hb, wb = model.hw_bev
    assert out.heatmap.shape == (4, hb, wb)
    assert out.reg_map.shape == (8, hb, wb)
    assert out.aux_logits.shape[0] == len(out.bev_cells)
    assert len(out.aux_labels) == out.aux_logits.shape[0]


def test_forward_deterministic():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    a = model.forward(samples[0])
    b = model.forward(samples[0])
    np.testing.assert_array_equal(a.seg_logits.data, b.seg_logits.data)
    np.testing.assert_array_equal(a.heatmap.data, b.heatmap.data)


def test_disabled_cross_space_is_direct_scatter_gather():
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"model.cross_space.enabled": False})
    model = Model(cfg)
    frame = model.voxelize(samples[0])
    feats = __import__("lidarmt.voxel", fromlist=["voxel_feature_encode"]) \
        .voxel_feature_encode(frame, samples[0].points[frame.kept].astype(np.float64),
                              model.vfe)
    from lidarmt import backbone as bb
    full = sparse.SparseVoxelTensor(frame.indices, feats, model.grid.dims)
    scales = bb.encode(full, model.encoder)
    bott = scales[3]
    got = model.bev_from_bottleneck(bott)
    want = sparse.height_collapse(sparse.scatter_to_dense(bott))
    np.testing.assert_array_equal(got.features.data, want.data)
    bev = bb.bev_extract(got, model.bev_extractor)
    injected = model.inject_from_bev(bev, bott.coords)
    dense = sparse.height_expand(bev.features, model.n_heights)
    manual = sparse.gather_from_dense(dense, bott.coords,
                                      (bev.hw[1], bev.hw[0], model.n_heights))
    np.testing.assert_array_equal(injected.data, manual.data)


def test_multi_frame_changes_only_timestamps_and_count():
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"frames.history": 1})
    view = tr.training_view(samples[0], cfg, step=0, train_seed=0)
    n = len(samples[0].points)
    assert len(view.points) == 2 * n
    np.testing.assert_array_equal(view.points[:n], samples[0].points)
    hist = view.points[n:]
    np.testing.assert_array_equal(hist[:, :4], samples[0].points[:, :4])
    np.testing.assert_allclose(hist[:, 4], -cfg["frames.dt"], atol=1e-7)
    np.testing.assert_array_equal(view.labels[n:], samples[0].labels)


def test_training_with_augmentation_smoke():
    samples, _ = tiny_scenes(2)
    cfg = tiny_cfg(**{"augment.enabled": True, "train.steps": 3})
    _model, log = tr.train(cfg, samples=samples)
    assert len(log.steps) == 3
    assert all(math.isfinite(v) for v in log.raw_loss)
    assert len(log.grad_norm) == 3
    assert all(math.isfinite(v) and v > 0 for v in log.grad_norm)


def test_evaluation_and_inference_never_augment():
    samples, _ = tiny_scenes(2)
    cfg_aug = tiny_cfg(**{"augment.enabled": True})
    cfg_plain = tiny_cfg()
    model = Model(cfg_plain)  # same params either way (augment is data-side)
    rep_aug = tr.evaluate(model, samples, cfg_aug)
    rep_plain = tr.evaluate(model, samples, cfg_plain)
    assert rep_aug == rep_plain
    out_aug = tr.infer(model, samples[0], cfg_aug)
    out_plain = tr.infer(model, samples[0], cfg_plain)
    assert out_aug == out_plain


def test_infer_reports_current_frame_points_in_multi_frame_config():
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"frames.history": 2})
    model = Model(cfg)
    out = tr.infer(model, samples[0], cfg)
    assert len(out["point_labels"]) == len(samples[0].points)


def frames_with_no_voxel():
    """An empty frame and a frame with every point out of range."""
    samples, _ = tiny_scenes(1)
    empty = data.SceneSample(points=np.zeros((0, 5), np.float32),
                             labels=np.zeros(0, np.int32), boxes=[])
    away = samples[0].points.copy()
    away[:, :2] += 100.0
    return empty, data.SceneSample(points=away, labels=samples[0].labels, boxes=[])


@pytest.mark.parametrize("history", [0, 1])
def test_infer_on_frames_with_no_voxel(history):
    cfg = tiny_cfg(**{"frames.history": history})
    model = Model(cfg)
    for frame in frames_with_no_voxel():
        out = tr.infer(model, frame, cfg)
        assert out == {"point_labels": [0] * len(frame.points), "boxes": []}


@pytest.mark.parametrize("decoder", [True, False])
def test_forward_on_frames_with_no_voxel_raises_typed_error(decoder):
    model = Model(tiny_cfg(**{"model.cross_task.enabled": decoder}))
    for frame in frames_with_no_voxel():
        with pytest.raises(EmptyFrameError, match="no point"):
            model.forward(frame)


def test_infer_voxelizes_once(monkeypatch):
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    calls = []
    voxelize = model.voxelize
    monkeypatch.setattr(model, "voxelize", lambda s: calls.append(1) or voxelize(s))
    out = tr.infer(model, samples[0], cfg)
    assert len(calls) == 1
    assert len(out["point_labels"]) == len(samples[0].points) and any(out["point_labels"])


def test_multi_frame_jitter_is_bounded_and_deterministic():
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"frames.history": 1, "frames.jitter": 0.01})
    v1 = tr.training_view(samples[0], cfg, step=3, train_seed=0)
    v2 = tr.training_view(samples[0], cfg, step=3, train_seed=0)
    np.testing.assert_array_equal(v1.points, v2.points)
    n = len(samples[0].points)
    delta = v1.points[n:, :3] - samples[0].points[:, :3]
    assert 0 < np.abs(delta).max() < 0.1


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact_forward(tmp_path):
    samples, cfg = tiny_scenes(2)
    model, _log = tr.train(cfg, samples=samples, out_ckpt=tmp_path / "m.ckpt")
    ref = model.forward(samples[0])
    loaded, cfg2, ckdata = tr.load_model(tmp_path / "m.ckpt")
    assert ckdata.step == cfg["train.steps"]
    again = loaded.forward(samples[0])
    np.testing.assert_array_equal(again.seg_logits.data, ref.seg_logits.data)
    np.testing.assert_array_equal(again.heatmap.data, ref.heatmap.data)
    np.testing.assert_array_equal(again.reg_map.data, ref.reg_map.data)


def test_checkpoint_hash_mismatch_detected(tmp_path):
    samples, cfg = tiny_scenes(1)
    tr.train(cfg, samples=samples, out_ckpt=tmp_path / "m.ckpt")
    other = tiny_cfg(**{"train.steps": 5})
    with pytest.raises(ck.CheckpointError):
        tr.load_model(tmp_path / "m.ckpt", other)


def test_checkpoint_corrupt_magic(tmp_path):
    samples, cfg = tiny_scenes(1)
    tr.train(cfg, samples=samples, out_ckpt=tmp_path / "m.ckpt")
    raw = bytearray((tmp_path / "m.ckpt").read_bytes())
    raw[3] ^= 0x55
    (tmp_path / "m.ckpt").write_bytes(bytes(raw))
    from lidarmt.container import VersionError
    with pytest.raises(VersionError):
        tr.load_model(tmp_path / "m.ckpt")


def test_checkpoint_with_wrong_parameter_shape_rejected(tmp_path):
    cfg = tiny_cfg()
    tr.save_model(tmp_path / "m.ckpt", Model(cfg), None, cfg, step=0)
    saved = ck.load_checkpoint(tmp_path / "m.ckpt")
    saved.params["hm_head.bias"] = saved.params["hm_head.bias"][:1]
    ck.save_checkpoint(tmp_path / "m.ckpt", saved)
    with pytest.raises(ValueError, match=r"hm_head\.bias has shape \(1,\), "
                                         r"model expects \(4,\)"):
        tr.load_model(tmp_path / "m.ckpt")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_training_divergence_aborts_with_dump(tmp_path):
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"train.peak_lr": 1e9, "train.div_factor": 1.0,
                      "train.grad_clip": 0.0, "train.steps": 30})
    with pytest.raises(tr.TrainingDiverged,
                       match=r"non-finite loss at step \d+: "
                             r"(seg|det_hm|det_reg|aux_seg|weighted total)$"):
        tr.train(cfg, samples=samples, out_ckpt=tmp_path / "m.ckpt")
    assert (tmp_path / "m.ckpt.diverged").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("replace,term", [
    ({"det_reg": np.inf, "aux_seg": np.nan}, "det_reg"),      # first in order
    (dict.fromkeys(("seg", "det_hm", "det_reg", "aux_seg"), 1e308), "weighted total"),
])
def test_training_divergence_names_first_non_finite_term(monkeypatch, replace, term):
    samples, _ = tiny_scenes(1)
    real = tr.compute_losses

    def losses_at_step_1(model, out, sample):
        losses = real(model, out, sample)
        calls.append(1)
        if len(calls) == 2:
            losses.update({k: ad.constant(v) for k, v in replace.items()})
        return losses

    calls = []
    monkeypatch.setattr(tr, "compute_losses", losses_at_step_1)
    with pytest.raises(tr.TrainingDiverged, match=f"at step 1: {term}$"):
        tr.train(tiny_cfg(**{"train.steps": 2}), samples=samples)


# -- offsets -------------------------------------------------------------------


def test_inspect_offsets_counts_every_sampling_point():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    out = model.forward(samples[0])
    rows = tr.inspect_offsets(model, samples[0], quantile=0.0)
    heads = cfg["model.cross_space.heads"]
    pts = cfg["model.cross_space.points"]
    j = model.n_heights
    hb, wb = model.hw_bev
    q_s2d = hb * wb * j
    q_d2s = len(np.unique(out.frame.indices // 8, axis=0))
    blocks = cfg["model.cross_space.blocks"]
    want = blocks * (q_s2d + q_d2s) * heads * j * pts
    assert len(rows) == want
    assert np.isfinite(rows).all()


def test_inspect_offsets_quantile_filters():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    r = rng(0)
    for blk in model.cross_space.d2s_blocks + model.cross_space.s2d_blocks:
        blk.attn.logit_w.data[:] = r.normal(size=blk.attn.logit_w.data.shape)
    all_rows = tr.inspect_offsets(model, samples[0], quantile=0.0)
    top = tr.inspect_offsets(model, samples[0], quantile=0.9)
    assert 0 < len(top) < len(all_rows)
    assert top[:, 8].min() >= np.quantile(all_rows[:, 8], 0.9) - 1e-12


# -- CLI -----------------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    spec_file = tmp_path / "spec.cfg"
    lines = [f"{k} = {cf.format_value(v)}" for k, v in TINY.items()]
    spec_file.write_text("\n".join(lines) + "\n")
    dataset = tmp_path / "scenes.bin"
    assert cli.main(["gen-data", "--spec", str(spec_file), "--seeds", "0..2",
                     "--out", str(dataset)]) == 0
    assert len(data.read_dataset(dataset)) == 3

    ckpt = tmp_path / "model.ckpt"
    logf = tmp_path / "train.log"
    assert cli.main(["train", "--config", str(spec_file), "--out", str(ckpt),
                     "--data", str(dataset), "--log", str(logf)]) == 0
    assert ckpt.exists()
    assert "step=0" in logf.read_text()

    report = tmp_path / "report.kv"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(report)]) == 0
    stdout = capsys.readouterr().out
    assert "point_miou:" in stdout
    assert any(line.startswith("voxel_accuracy=") for line in
               report.read_text().splitlines())

    pred = tmp_path / "pred.json"
    assert cli.main(["infer", "--ckpt", str(ckpt), "--input", str(dataset),
                     "--index", "1", "--out", str(pred)]) == 0
    blob = json.loads(pred.read_text())
    assert len(blob["point_labels"]) == len(data.read_dataset(dataset)[1].points)

    offs = tmp_path / "offsets.txt"
    assert cli.main(["inspect-offsets", "--ckpt", str(ckpt), "--input", str(dataset),
                     "--quantile", "0.5", "--out", str(offs)]) == 0
    body = offs.read_text().splitlines()
    assert body[0].startswith("#")
    assert len(body) > 1


def test_cli_error_exit_code_and_message(tmp_path, capsys):
    rcode = cli.main(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                      "--data", str(tmp_path / "missing.bin")])
    assert rcode == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


# -- source --------------------------------------------------------------------


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so checks in the package raise typed errors."""
    package = Path(lidarmt.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
