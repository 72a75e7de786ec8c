import ast
import gc
import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lidarmt
from lidarmt import autodiff as ad
from lidarmt import backbone as bb
from lidarmt import checkpoint as ck
from lidarmt import cli
from lidarmt import config as cf
from lidarmt import container as cx
from lidarmt import data
from lidarmt import metrics
from lidarmt import params as pp
from lidarmt import sparse
from lidarmt import train as tr
from lidarmt import voxel as vx
from lidarmt.cross_space import OffsetCollector
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
    # an int widens to a float, and a bare value to a 1-tuple
    p.write_text("train.peak_lr = 1\nscene.extent_min = -8,-8,0\nmodel.vfe_widths = 8\n")
    cfg = cf.load_config(p)
    assert type(cfg["train.peak_lr"]) is float and cfg["train.peak_lr"] == 1.0
    assert cfg["scene.extent_min"] == (-8.0, -8.0, 0.0)
    assert all(type(x) is float for x in cfg["scene.extent_min"])
    assert cfg["model.vfe_widths"] == (8,)


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


@pytest.mark.parametrize("line,message", [
    ("train.steps = 2.5", "train.steps: expected an integer, got 2.5"),
    ("train.steps = true", "train.steps: expected an integer, got True"),
    ("train.steps = 1,2", "train.steps: expected an integer, got (1, 2)"),
    ("model.base_channels = 16.0", "model.base_channels: expected an integer, got 16.0"),
    ("detect.max_boxes = 3.7", "detect.max_boxes: expected an integer, got 3.7"),
    ("train.log_every = ten", "train.log_every: expected an integer, got 'ten'"),
    ("train.peak_lr = fast", "train.peak_lr: expected a number, got 'fast'"),
    ("train.grad_clip = false", "train.grad_clip: expected a number, got False"),
    ("model.vfe_widths = 16,16.5", "model.vfe_widths: expected an integer, got 16.5"),
    ("scene.extent_min = -8,-8,low", "scene.extent_min: expected a number, got 'low'"),
    ("augment.enabled = 1", "augment.enabled: expected true/false, got 1"),
])
def test_mistyped_config_value_fails_naming_its_key(tmp_path, capsys, line, message):
    cfg_file, ckpt = tmp_path / "c.cfg", tmp_path / "m.ckpt"
    cfg_file.write_text(line + "\n")
    with pytest.raises(cf.ConfigError) as err:
        cf.load_config(cfg_file)
    assert str(err.value) == message
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(ckpt),
                     "--data", str(tmp_path / "d.bin")]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not ckpt.exists()


def test_a_string_key_keeps_its_text_through_a_file_and_a_checkpoint(tmp_path):
    """data.path is typed by its key: a comma, `true` or digits stay text,
    and the other keys of the file parse as before."""
    p, ckpt = tmp_path / "c.cfg", tmp_path / "m.ckpt"
    for path in ("runs/a,b.bin", "true", "12"):
        p.write_text(f"data.path = {path}  # comment\nmodel.vfe_widths = 8,8\n")
        cfg = cf.load_config(p, overrides={k: v for k, v in TINY.items()
                                           if k != "model.vfe_widths"})
        assert cfg["data.path"] == path and cfg["model.vfe_widths"] == (8, 8)
        tr.save_model(ckpt, Model(cfg), None, cfg, step=0)
        loaded, stored, _ck = tr.load_model(ckpt)
        assert stored == cfg and cf.config_hash(stored) == cf.config_hash(cfg)
        assert loaded.cfg["data.path"] == path
    with pytest.raises(cf.ConfigError, match="^data.path: expected a string, got 3$"):
        cf.load_config(overrides={"data.path": 3})


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


def test_a_training_steps_graph_is_gone_before_the_next_forward(monkeypatch):
    """Step k's ForwardOut (and the tape it roots) dies when the step returns,
    by reference counting alone, before step k+1's forward begins."""
    samples, cfg = tiny_scenes(2)
    refs, alive = [], []
    forward = Model.forward

    def tracked(model, *args, **kwargs):
        alive.extend(ref() is not None for ref in refs[-1:])
        out = forward(model, *args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Model, "forward", tracked)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tr.train(cfg, samples=samples)
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) == cfg["train.steps"] and alive == [False] * (len(refs) - 1)


def test_the_trained_model_holds_no_gradients():
    samples, cfg = tiny_scenes(2)
    model, _log = tr.train(cfg, samples=samples)
    params = model.parameters()
    assert params and all(p.grad is None for p in params.values())


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


def test_aux_labels_are_the_per_cell_vote_on_a_non_square_grid_with_two_heights():
    cfg = tiny_cfg(**{"scene.extent_max": (4.0, 12.0, 8.0)})
    model = Model(cfg)
    assert model.hw_bev == (4, 2) and model.n_heights == 2
    r = rng(3)
    xyz = r.uniform(cfg["scene.extent_min"], cfg["scene.extent_max"], (400, 3))
    scene = data.SceneSample(points=np.column_stack([xyz, np.zeros((400, 2))]),
                             labels=r.integers(1, 7, 400), boxes=[])
    out = model.forward(scene)
    cells = out.frame.indices[:, :2] // 8
    np.testing.assert_array_equal(out.bev_cells, np.unique(cells, axis=0))
    ties = 0
    for (u, v), got in zip(out.bev_cells, out.aux_labels):
        votes = np.bincount(out.frame.voxel_labels[(cells == (u, v)).all(axis=1)],
                            minlength=7)[1:]
        ties += (votes == votes.max()).sum() > 1
        assert got == np.flatnonzero(votes == votes.max())[0] + 1
    assert ties > 0


def test_forward_deterministic():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    a = model.forward(samples[0])
    b = model.forward(samples[0])
    np.testing.assert_array_equal(a.seg_logits.data, b.seg_logits.data)
    np.testing.assert_array_equal(a.heatmap.data, b.heatmap.data)


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


@st.composite
def degenerate_frames(draw):
    """A frame of the tiny extent built from 1-2 degenerate parts, with zero
    boxes, a box at the extent's edge, or a box holding exactly one point."""
    cfg = tiny_cfg()
    lo, hi = np.array(cfg["scene.extent_min"]), np.array(cfg["scene.extent_max"])
    size = np.array(cfg["grid.voxel_size"])
    r = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["few", "one_voxel", "upper_faces",
                                               "non_finite", "out_of_range"]),
                              min_size=1, max_size=2, unique=True)):
        if kind == "few":
            xyz = r.uniform(lo, hi, (draw(st.integers(0, 4)), 3))
        elif kind == "one_voxel":
            cell = r.integers(0, np.round((hi - lo) / size).astype(int))
            n = draw(st.sampled_from([2, 50, 2000]))
            xyz = lo + (cell + r.uniform(0.05, 0.95, (n, 3))) * size
        elif kind == "upper_faces":
            xyz = r.uniform(lo, hi, (6, 3))
            axis = r.integers(0, 3, 6)
            inside = np.nextafter(hi.astype(np.float32), np.float32(-np.inf))
            xyz[np.arange(6), axis] = np.where(r.random(6) < 0.5, hi[axis], inside[axis])
        elif kind == "non_finite":
            xyz = r.uniform(lo, hi, (4, 3))
            xyz[np.arange(4), r.integers(0, 3, 4)] = [np.nan, np.inf, -np.inf, np.nan]
        else:
            xyz = np.where(r.random((5, 1)) < 0.5, hi + r.uniform(0, 3, (5, 3)),
                           lo - r.uniform(0.01, 3, (5, 3)))
        parts.append(xyz)
    xyz = np.concatenate(parts)
    labels = r.integers(1, data.NUM_CLASSES + 1, len(xyz))
    boxes = []
    box_kind = draw(st.sampled_from(["none", "edge", "one_point"]))
    if box_kind == "edge":
        center = np.where(r.random(3) < 0.5, lo, hi)
        boxes.append(data.Box(center=center, size=r.uniform(0.5, 3.0, 3),
                              yaw=r.uniform(-np.pi, np.pi), class_id=int(r.integers(1, 5))))
    elif box_kind == "one_point":
        box = data.Box(center=r.uniform(lo + 1, hi - 1), size=(1.0, 1.0, 1.0), yaw=0.0,
                       class_id=int(r.integers(1, 5)))
        keep = ~data.points_in_box(xyz, box)
        xyz = np.concatenate([xyz[keep], box.center[None].astype(np.float64)])
        labels = np.append(labels[keep], box.semantic_label)
        boxes.append(box)
    points = np.column_stack([xyz, r.uniform(0, 1, len(xyz)), np.zeros(len(xyz))])
    return data.SceneSample(points=points, labels=labels, boxes=boxes)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(frame=degenerate_frames(), history=st.integers(0, 1), augmented=st.booleans())
def test_degenerate_frames_through_every_entry_point(frame, history, augmented):
    """Train, infer, evaluate and inspect_offsets on degenerate frames: each
    returns finite values, the same bytes twice, or raises EmptyFrameError
    exactly when its view holds no in-range point; infer always returns."""
    cfg = tiny_cfg(**{"frames.history": history, "augment.enabled": augmented,
                      "train.steps": 2})
    model = Model(cfg)
    grid, seed = model.grid, cfg["train.seed"]

    def no_point(view):
        return not vx.in_range_mask(view.xyz, grid).any()

    def twice(fn, empty, as_bytes):
        if empty:
            with pytest.raises(EmptyFrameError) as info:
                fn()
            assert type(info.value) is EmptyFrameError
            return None
        first = fn()
        assert as_bytes(fn()) == as_bytes(first)
        return first

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty_step = any(no_point(tr.training_view(frame, cfg, s, seed)) for s in range(2))
        trained = twice(lambda: tr.train(cfg, samples=[frame]), empty_step,
                        lambda run: (repr(vars(run[1])), [p.data.tobytes() for p in
                                                         run[0].parameters().values()]))
        if trained is not None:
            model, log = trained
            assert all(math.isfinite(v) for v in log.raw_loss + log.grad_norm)
            assert all(math.isfinite(v) for vs in log.per_task.values() for v in vs)

        result = twice(lambda: tr.infer(model, frame, cfg), False, repr)
        labels = np.array(result["point_labels"])
        assert len(labels) == len(frame.points) and ((labels >= 0) & (labels <= 6)).all()
        np.testing.assert_array_equal(labels > 0, vx.in_range_mask(frame.xyz, grid))
        assert len(result["boxes"]) <= cfg["detect.max_boxes"]
        assert all(math.isfinite(b["score"]) for b in result["boxes"])
        if not (labels > 0).any():
            assert result["boxes"] == []

        empty_view = no_point(tr.training_view(frame, cfg, 0, seed, allow_augment=False))
        report = twice(lambda: tr.evaluate(model, [frame], cfg), empty_view, repr)
        if report is not None:
            for key, value in report.items():
                nan_when = {"mean_ap": not frame.boxes, "point_miou": empty_view}
                assert math.isnan(value) == nan_when.get(key, False), key
        rows = twice(lambda: tr.inspect_offsets(model, frame, cfg), empty_view,
                     lambda a: a.tobytes())
        if rows is not None:
            assert rows.shape[1] == 9 and np.isfinite(rows).all()


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


def test_a_27_tap_kernel_of_an_old_checkpoint_is_refused_by_name():
    cfg = cf.load_config()
    values = {name: t.data for name, t in Model(cfg).parameters().items()}
    assert values["encoder.stages.3.0.kernel"].shape == (9, 64, 64)
    values["encoder.stages.3.0.kernel"] = np.zeros((3, 3, 3, 64, 64))
    with pytest.raises(ValueError) as err:
        Model(cfg, values)
    assert err.type is ValueError
    assert str(err.value) == ("checkpoint/model mismatch: encoder.stages.3.0.kernel has "
                              "shape (3, 3, 3, 64, 64), model expects (9, 64, 64)")


def analytic_taps(name: str, dims) -> int:
    """Live taps of a backbone conv kernel, counted per axis: a submanifold
    conv keeps 3 offsets on an axis of size >= 2 and 1 otherwise; a stride-2
    conv and its upsample twin keep 3 where the coarse size is >= 2, else 2."""
    _, kind, i, *_ = name.split(".")
    level = {"stages": int(i), "downs": int(i), "ups": 2 - int(i), "fuses": 2 - int(i)}[kind]
    if kind in ("stages", "fuses"):
        return math.prod(3 if d >> level >= 2 else 1 for d in dims)
    return math.prod(3 if d >> (level + 1) >= 2 else 2 for d in dims)


@pytest.mark.parametrize("overrides,count", [
    ({}, 2_182_159 - 221_184),
    ({"scene.extent_min": (-16.0, -16.0, 0.0), "scene.extent_max": (16.0, 16.0, 4.0)},
     2_188_303 - 221_184),
], ids=["default", "infer-large"])
def test_parameter_count_is_the_analytic_live_tap_count(overrides, count):
    model = Model(cf.load_config(overrides=overrides))
    params = model.parameters()
    kernels = {n: t.data.shape for n, t in params.items() if n.endswith(".kernel")
               and n.split(".")[0] in ("encoder", "decoder")}
    assert len(kernels) == 17
    want = sum(t.data.size for n, t in params.items() if n not in kernels)
    want += sum(analytic_taps(n, model.grid.dims) * cin * cout
                for n, (_t, cin, cout) in kernels.items())
    assert sum(t.data.size for t in params.values()) == want == count


def record_paired_taps(monkeypatch, named: dict) -> dict:
    """Per kernel name, a mask of its taps that met at least one pair in any
    sparse conv call made after this, for the kernels in `named`."""
    names = {id(t): n for n, t in named.items()}
    paired = {}
    scatter = ad.tap_matmul_scatter

    def recording(features, kernel, pairs, n_out, bias):
        seen = np.array([p is None or len(p[0]) > 0 for p in pairs])
        paired[names[id(kernel)]] = paired.get(names[id(kernel)], False) | seen
        return scatter(features, kernel, pairs, n_out, bias)

    monkeypatch.setattr(ad, "tap_matmul_scatter", recording)
    return paired


@pytest.mark.parametrize("dims", [(32, 32, 8), (64, 64, 8)], ids=["default", "infer-large"])
def test_every_kept_tap_pairs_on_a_full_grid(monkeypatch, dims):
    r = rng(41)
    widths = bb.stage_widths(2)
    enc, dec = bb.init_encoder(widths, 1, r, dims), bb.init_decoder(widths, 8, r, dims)
    paired = record_paired_taps(monkeypatch, {**pp.collect(enc, "encoder"),
                                              **pp.collect(dec, "decoder")})
    coords = sparse.unpack_coords(np.arange(math.prod(dims)), dims)
    with ad.no_grad():
        scales = bb.encode(sparse.SparseVoxelTensor(coords, np.ones((len(coords), 1)), dims),
                           enc)
        bb.decode(scales, scales[3], dec)
    assert len(paired) == 17 and all(mask.all() for mask in paired.values())


def test_every_kept_tap_pairs_on_the_train_revisit_scenes(monkeypatch):
    """Except offset (-1, -1, 1) of the 1/4 -> 1/8 conv and its upsample twin.
    It needs a 1/4-scale site at odd x and odd y in the upper height cell,
    which these scenes never hold; the full-grid test above shows it pairs."""
    cfg = cf.load_config()
    model = Model(cfg)
    params = model.parameters()
    paired = record_paired_taps(monkeypatch, params)
    spec = cli.scene_spec_from_config(cfg)
    with ad.no_grad():
        for j in range(8):
            model.forward(data.generate_scene(1_000_003 + j, spec, frame_id=j))
    assert len(paired) == 17
    assert all(len(mask) == len(params[n].data) for n, mask in paired.items())
    never = {(n, int(t)) for n, mask in paired.items() for t in np.nonzero(~mask)[0]}
    corner = list(sparse.live_taps((8, 8, 2), (4, 4, 1), 2)).index(2)   # offset (-1, -1, 1)
    assert never == {("encoder.downs.2.kernel", corner), ("decoder.ups.0.kernel", corner)}


def test_rulebooks_are_built_once_per_frame(monkeypatch):
    """A new frame builds one rulebook per coordinate set and stride: 4 submanifold
    sets and 3 strided steps; a frame seen before builds none, with the same bytes."""
    cfg = cf.load_config(overrides={"scene.extent_min": (-16.0, -16.0, 0.0),
                                    "scene.extent_max": (16.0, 16.0, 4.0)})
    model = Model(cfg)
    assert model.grid.dims == (64, 64, 8)
    spec = cli.scene_spec_from_config(cfg)
    scenes = [data.generate_scene(2_000_003 + j, spec, frame_id=j) for j in range(2)]
    calls = []
    build = sparse._rulebook
    monkeypatch.setattr(sparse, "_rulebook", lambda *a: calls.append(a) or build(*a))
    outs = []
    with ad.no_grad():
        for scene, builds in zip(scenes + scenes, (7, 7, 0, 0)):
            before = len(calls)
            outs.append(model.forward(scene))
            assert len(calls) - before == builds
    for new, again in zip(outs[:2], outs[2:]):
        for name in ("seg_logits", "heatmap", "reg_map", "aux_logits"):
            assert np.array_equal(getattr(new, name).data, getattr(again, name).data)


def memo_index_bytes(memo: dict) -> int:
    """Bytes of the index arrays a frame memo holds, its child sets' memos
    included. Keys: 1 the submanifold rulebook; 2 (child coords, child keys,
    stride-2 rulebook, child memo); -2 the stride-2 rulebook transposed."""
    size = 0
    for key, pairs in memo.items():
        if key == 2:
            coords, keys, pairs, child = pairs
            size += coords.nbytes + keys.nbytes + memo_index_bytes(child)
        size += sum(a.nbytes + b.nbytes for a, b in filter(None, pairs))
    return size


BENCH_OVERRIDES = {   # the rulebook-relevant overrides of the bench workloads
    "train-revisit": {},
    "train-augment": {"augment.enabled": True, "frames.history": 1, "frames.jitter": 0.02},
    "infer-large": {"scene.extent_min": (-16.0, -16.0, 0.0),
                    "scene.extent_max": (16.0, 16.0, 4.0),
                    "scene.objects_per_class": (6, 4, 4, 4)},
}


@pytest.mark.parametrize("overrides", BENCH_OVERRIDES.values(), ids=BENCH_OVERRIDES.keys())
def test_a_frames_rulebooks_hold_30_to_45_bytes_per_key_byte(overrides):
    """The frame cache budgets the key bytes of its frames in place of the
    rulebook bytes they key; on the bench configs one stands for the other."""
    cfg = cf.load_config(overrides=overrides)
    model = Model(cfg)
    spec = cli.scene_spec_from_config(cfg)
    with ad.no_grad():
        for step in range(3):
            scene = data.generate_scene(1_000_003 + step, spec, frame_id=step)
            model.forward(tr.training_view(scene, cfg, step, cfg["train.seed"]))
    ratios = [memo_index_bytes(memo) / len(key[1]) for key, memo in sparse._FRAMES.items()]
    assert len(ratios) == 3 and all(30 <= x <= 45 for x in ratios), ratios


def memo_taps(memo: dict):
    """Every non-identity tap of a frame memo and of its child sets' memos."""
    for key, pairs in memo.items():
        if key == 2:
            yield from memo_taps(pairs[3])
            pairs = pairs[2]
        yield from filter(None, pairs)


@pytest.mark.parametrize("workload", ["train-augment", "infer-large"])
def test_every_rulebook_tap_of_a_bench_frame_has_increasing_rows(workload):
    """Voxel and child sites are key-ordered, and q -> q + d and c -> 2c + d keep
    key order: so every submanifold, strided and upsample tap of a frame's
    pyramid lists strictly increasing rows on both sides."""
    cfg = cf.load_config(overrides=BENCH_OVERRIDES[workload])
    scene = data.generate_scene(1_000_003, cli.scene_spec_from_config(cfg), frame_id=0)
    with ad.no_grad():
        Model(cfg).forward(tr.training_view(scene, cfg, 0, cfg["train.seed"]))
    (memo,) = sparse._FRAMES.values()
    kinds, child = [], memo
    for _stage in range(3):   # the three strided convs of the encoder
        kinds.append(set(child))
        child = child[2][3]
    assert kinds == [{1, 2, -2}] * 3 and set(child) == {1}
    taps = list(memo_taps(memo))
    assert len(taps) > 100
    for rows in taps:
        for side in rows:
            assert (np.diff(side) > 0).all()


def test_load_model_draws_no_initial_values(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    model = Model(cfg)
    tr.save_model(tmp_path / "m.ckpt", model, None, cfg, step=0)

    class NoNormal(np.random.Generator):
        def normal(self, *args, **kwargs):
            raise AssertionError("a loaded model drew initial values")

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: NoNormal(np.random.PCG64(seed)))
    loaded, _cfg, _ck = tr.load_model(tmp_path / "m.ckpt")
    for name, tensor in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].data, tensor.data)


def test_load_model_returns_the_saved_config_and_rejects_unknown_keys(tmp_path):
    cfg = tiny_cfg(**{"model.vfe_widths": (8,)})   # stored as the bare text "8"
    tr.save_model(tmp_path / "m.ckpt", Model(cfg), None, cfg, step=0)
    assert tr.load_model(tmp_path / "m.ckpt")[1] == cfg
    saved = ck.load_checkpoint(tmp_path / "m.ckpt")
    saved.config_text += "model.typo = 1\n"
    saved.config_hash = cf.config_hash(cf.parse_config_text(saved.config_text))
    ck.save_checkpoint(tmp_path / "m.ckpt", saved)
    with pytest.raises(cf.ConfigError, match="model.typo"):
        tr.load_model(tmp_path / "m.ckpt")


def test_a_checkpoint_saved_with_the_old_cross_space_switch_fails_typed(tmp_path):
    """The key left the config when the direct scatter/gather path was deleted;
    its parameter names did not change, so only the config can tell."""
    key = "model.cross_space.enabled"
    cfg = tiny_cfg()
    tr.save_model(tmp_path / "m.ckpt", Model(cfg), None, cfg, step=0)
    saved = ck.load_checkpoint(tmp_path / "m.ckpt")
    old = {**cfg, key: True}
    saved.config_text, saved.config_hash = cf.canonical_text(old), cf.config_hash(old)
    ck.save_checkpoint(tmp_path / "m.ckpt", saved)
    with pytest.raises(cf.ConfigError, match=f"unknown config key '{key}'"):
        tr.load_model(tmp_path / "m.ckpt")
    with pytest.raises(ck.CheckpointError, match="config hash mismatch"):
        tr.load_model(tmp_path / "m.ckpt", cfg)


@pytest.mark.parametrize("edit,named", [
    (lambda params: params.pop("hm_head.bias"), r"missing=\['hm_head\.bias'\] extra=\[\]"),
    (lambda params: params.update(extra=np.zeros(2)), r"missing=\[\] extra=\['extra'\]"),
], ids=["missing", "extra"])
def test_checkpoint_with_missing_or_extra_parameter_names_it(tmp_path, edit, named):
    cfg = tiny_cfg()
    tr.save_model(tmp_path / "m.ckpt", Model(cfg), None, cfg, step=0)
    saved = ck.load_checkpoint(tmp_path / "m.ckpt")
    edit(saved.params)
    ck.save_checkpoint(tmp_path / "m.ckpt", saved)
    with pytest.raises(KeyError, match=named):
        tr.load_model(tmp_path / "m.ckpt")


def test_checkpoint_write_that_fails_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    path = tmp_path / "m.ckpt"
    tr.save_model(path, Model(cfg), None, cfg, step=0)
    before = path.read_bytes()
    calls = []

    def failing_write_record(f, head, *arrays):
        calls.append(1)
        if len(calls) == 5:
            raise OSError("disk full")
        write_record(f, head, *arrays)

    write_record = cx.write_record
    monkeypatch.setattr(cx, "write_record", failing_write_record)
    with pytest.raises(OSError, match="disk full"):
        tr.save_model(path, Model(cfg), None, cfg, step=1)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class _Unprintable:
    def __format__(self, spec):
        raise RuntimeError("unprintable")


def _write_dataset(path, monkeypatch):
    encode = data._encode_sample
    monkeypatch.setattr(data, "_encode_sample", lambda s: encode(s) if s else f"{_Unprintable()}")
    data.write_dataset([tiny_scenes(1)[0][0], None], path)


def _write_report(path, monkeypatch):
    metrics.write_report({"a": 0.5, "b": _Unprintable()}, path)


def _run_cli(command):
    def run(path, monkeypatch):
        monkeypatch.setattr(tr, "load_model", lambda *a: (None, cf.load_config(), None))
        monkeypatch.setattr(data, "read_dataset", lambda p: [None])
        monkeypatch.setattr(tr, "infer", lambda *a: {"a": [1, 2], "b": _Unprintable()})
        monkeypatch.setattr(tr, "inspect_offsets", lambda *a: np.zeros((1, 3)))
        monkeypatch.setattr(tr, "format_offsets", lambda rows: f"{_Unprintable()}")
        args = cli.build_parser().parse_args(
            [command, "--ckpt", "m.ckpt", "--input", "d.bin", "--out", str(path)])
        args.fn(args)
    return run


@pytest.mark.parametrize("write", [_write_dataset, _write_report, _run_cli("infer"),
                                   _run_cli("inspect-offsets")],
                         ids=["dataset", "report", "cli-infer", "cli-inspect-offsets"])
def test_file_writer_that_fails_midway_keeps_the_previous_file(write, tmp_path, monkeypatch):
    path = tmp_path / "out"
    path.write_bytes(b"previous contents")
    with pytest.raises((RuntimeError, TypeError), match="unprintable|not JSON serializable"):
        write(path, monkeypatch)
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


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

    def losses_at_step_1(out, sample):
        losses = real(out, sample)
        calls.append(1)
        if len(calls) == 2:
            losses.update({k: ad.constant(v) for k, v in replace.items()})
        return losses

    calls = []
    monkeypatch.setattr(tr, "compute_losses", losses_at_step_1)
    with pytest.raises(tr.TrainingDiverged, match=f"at step 1: {term}$"):
        tr.train(tiny_cfg(**{"train.steps": 2}), samples=samples)


@pytest.mark.parametrize("bad,named", [(np.nan, None), (np.inf, None), (1e200, "global norm")])
def test_non_finite_gradient_under_a_finite_loss_stops_before_the_update(
        tmp_path, monkeypatch, bad, named):
    """A NaN norm would leave the clip factor at 1, and inf·0 is NaN too: both
    would reach the parameters. Step 1's backward writes `bad` into one leaf;
    1e200 is finite, but its square overflows the norm."""
    samples, _ = tiny_scenes(1)
    opts, calls, names, before = [], [], [], {}
    real_init, real_backward = tr.AdamW.__init__, ad.Tensor.backward

    def init(self, *args, **kw):
        real_init(self, *args, **kw)
        opts.append(self)

    def backward(self):
        real_backward(self)
        calls.append(1)
        if len(calls) == 2:
            params = opts[0].params
            before.update({k: p.data.copy() for k, p in params.items()})
            names[:] = [k for k, p in params.items() if p.grad is not None]
            p = params[names[len(names) // 2]]
            p.grad = p.grad.copy()   # leaves may share a gradient buffer
            p.grad.flat[p.grad.size // 2] = bad

    monkeypatch.setattr(tr.AdamW, "__init__", init)
    monkeypatch.setattr(ad.Tensor, "backward", backward)
    ckpt = tmp_path / "m.ckpt"
    with pytest.raises(tr.TrainingDiverged) as err:
        tr.train(tiny_cfg(**{"train.steps": 3}), samples=samples, out_ckpt=ckpt)
    assert str(err.value) == f"non-finite gradient at step 1: {named or names[len(names) // 2]}"
    assert len(calls) == 2 and opts[0].t == 1
    dumped = ck.load_checkpoint(str(ckpt) + ".diverged").params
    for k, p in opts[0].params.items():
        assert p.data.tobytes() == before[k].tobytes() == dumped[k].tobytes(), k
    assert not ckpt.exists()


@pytest.mark.parametrize("key,value", [
    ("train.steps", 0), ("train.steps", -1), ("train.log_every", 0),
    ("train.log_every", -1),
    ("train.grad_clip", -0.5), ("train.grad_clip", math.nan),
])
def test_train_rejects_steps_or_log_interval_below_one_before_writing(tmp_path, capsys,
                                                                      key, value):
    """And a negative train.grad_clip: each fails naming its key, writing nothing."""
    samples, _ = tiny_scenes(1)
    ckpt, logf = tmp_path / "m.ckpt", tmp_path / "train.log"
    low = 0 if key == "train.grad_clip" else 1
    message = f"{key} must be at least {low}, got {value}"
    with pytest.raises(cf.ConfigError, match=f"^{message}$"):
        tr.train(tiny_cfg(**{key: value}), out_ckpt=ckpt, log_path=logf, samples=samples)
    data.write_dataset(samples, tmp_path / "d.bin")
    (tmp_path / "c.cfg").write_text(f"{key} = {value}\n")
    assert cli.main(["train", "--config", str(tmp_path / "c.cfg"), "--out", str(ckpt),
                     "--data", str(tmp_path / "d.bin"), "--log", str(logf)]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not ckpt.exists() and not logf.exists()


@pytest.mark.parametrize("key", ["train.beta1", "train.beta2"])
@pytest.mark.parametrize("value", [-0.1, 1.0, 1.5, math.nan])
def test_train_rejects_a_beta_outside_0_to_1_before_writing(tmp_path, key, value):
    """β = 1 would divide by zero in AdamW's bias correction, β2 > 1 root a
    negative and β < 0 flip the moments' sign."""
    samples, _ = tiny_scenes(1)
    ckpt, logf = tmp_path / "m.ckpt", tmp_path / "train.log"
    with pytest.raises(cf.ConfigError,
                       match=f"^{key} must be at least 0 and below 1, got {value}$"):
        tr.train(tiny_cfg(**{key: value}), out_ckpt=ckpt, log_path=logf, samples=samples)
    assert not ckpt.exists() and not logf.exists()


@pytest.mark.parametrize("key", ["train.beta1", "train.beta2"])
@pytest.mark.parametrize("value", [0.0, 0.999])
def test_train_accepts_a_beta_at_either_end_of_0_to_1(key, value):
    samples, _ = tiny_scenes(1)
    model, log = tr.train(tiny_cfg(**{key: value, "train.steps": 2}), samples=samples)
    assert all(math.isfinite(x) for x in log.raw_loss + log.grad_norm)
    assert all(np.isfinite(p.data).all() for p in model.parameters().values())


# -- offsets -------------------------------------------------------------------


def test_inspect_offsets_counts_every_sampling_point():
    samples, cfg = tiny_scenes(1)
    model = Model(cfg)
    out = model.forward(samples[0])
    rows = tr.inspect_offsets(model, samples[0], cfg, quantile=0.0)
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
    all_rows = tr.inspect_offsets(model, samples[0], cfg, quantile=0.0)
    top = tr.inspect_offsets(model, samples[0], cfg, quantile=0.9)
    assert 0 < len(top) < len(all_rows)
    assert top[:, 8].min() >= np.quantile(all_rows[:, 8], 0.9) - 1e-12


def test_inspect_offsets_runs_on_the_inference_view():
    """With a history frame the offsets come from the view `infer` sees, not
    from the raw sample."""
    samples, _ = tiny_scenes(1)
    cfg = tiny_cfg(**{"frames.history": 1})
    model = Model(cfg)
    r = rng(1)
    for blk in model.cross_space.d2s_blocks + model.cross_space.s2d_blocks:
        blk.attn.offset_w.data[:] = 0.1 * r.normal(size=blk.attn.offset_w.data.shape)

    def offsets(sample):
        collector = OffsetCollector()
        model.forward(sample, collector=collector)
        return collector.stacked()

    view = tr.training_view(samples[0], cfg, 0, cfg["train.seed"], allow_augment=False)
    got = tr.inspect_offsets(model, samples[0], cfg)
    np.testing.assert_array_equal(got, offsets(view))
    raw = offsets(samples[0])
    assert got.shape == raw.shape and np.abs(got[:, 6:] - raw[:, 6:]).max() > 1e-3


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


@pytest.mark.parametrize("command", ["infer", "inspect-offsets"])
@pytest.mark.parametrize("index", [-1, 2])
def test_cli_rejects_sample_index_outside_dataset(tmp_path, capsys, command, index):
    samples, cfg = tiny_scenes(2)
    tr.save_model(tmp_path / "m.ckpt", Model(cfg), None, cfg, step=0)
    data.write_dataset(samples, tmp_path / "d.bin")
    out = tmp_path / "out"
    assert cli.main([command, "--ckpt", str(tmp_path / "m.ckpt"), "--input",
                     str(tmp_path / "d.bin"), "--index", str(index), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: IndexError: sample index {index} outside 0..1\n"
    assert not out.exists()


def test_gen_data_rejects_an_empty_seed_range(tmp_path, capsys):
    spec, out = tmp_path / "spec.cfg", tmp_path / "scenes.bin"
    spec.write_text("")
    assert cli.main(["gen-data", "--spec", str(spec), "--seeds", "5..3",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: ValueError: empty seed range '5..3': 3 is below 5\n"
    assert not out.exists()
    assert list(cli._parse_seed_range("3..5")) == [3, 4, 5]
    assert list(cli._parse_seed_range("7")) == [7]


def test_cli_error_exit_code_and_message(tmp_path, capsys):
    rcode = cli.main(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                      "--data", str(tmp_path / "missing.bin")])
    assert rcode == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


# -- source --------------------------------------------------------------------


def _package_trees():
    package = Path(lidarmt.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so checks in the package raise typed errors."""
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_module_level_imports():
    found = []
    for name, tree in _package_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{name}:{node.lineno} {alias.asname or alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in used]
    assert found == []


def test_every_function_in_the_package_reads_each_of_its_parameters():
    """Except `train.save_model`'s `opt`, which the benchmark passes."""
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if x is not None]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                found += [f"{name}:{node.name}({p})" for p in params if p not in read]
    assert found == ["train.py:save_model(opt)"]
