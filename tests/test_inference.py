"""Tape-free inference: forwards under `ad.no_grad()` give the same arrays as
recording forwards, build no tape, and `infer`/`evaluate` report what they
did before, plus the AP table."""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import cli
from lidarmt import config as cf
from lidarmt import data
from lidarmt import metrics as mx
from lidarmt import train as tr
from lidarmt.model import Model


@pytest.fixture(scope="module")
def setup():
    cfg = cf.load_config()
    spec = cli.scene_spec_from_config(cfg)
    scenes = [data.generate_scene(s, spec, frame_id=s) for s in range(2)]
    return Model(cfg), scenes, cfg


def _leaves(obj, path="out"):
    """(path, value) of every Tensor and ndarray reachable through dataclasses."""
    if isinstance(obj, (ad.Tensor, np.ndarray)):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{path}.{f.name}")


def test_no_grad_forward_is_bit_identical_and_tape_free(setup):
    model, scenes, cfg = setup
    for scene in scenes:
        taped = dict(_leaves(model.forward(scene)))
        with ad.no_grad():
            free = dict(_leaves(model.forward(scene)))
        assert taped.keys() == free.keys()
        assert any(isinstance(v, ad.Tensor) and v._vjp is not None for v in taped.values())
        for path, got in free.items():
            want = taped[path]
            if isinstance(got, ad.Tensor):
                assert got._vjp is None and not got.requires_grad, path
                got, want = got.data, want.data
            assert np.array_equal(got, want), path


def test_infer_matches_a_recording_forward(setup, monkeypatch):
    model, scenes, cfg = setup
    fast = [tr.infer(model, s, cfg) for s in scenes]
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)   # record as before
    assert [tr.infer(model, s, cfg) for s in scenes] == fast


def test_infer_evaluate_and_inspect_offsets_run_tape_free(setup, monkeypatch):
    model, scenes, cfg = setup
    recorded = []
    forward = Model.forward

    def spy(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        recorded.append(out.seg_logits.requires_grad)
        return out

    monkeypatch.setattr(Model, "forward", spy)
    tr.infer(model, scenes[0], cfg)
    tr.evaluate(model, scenes[:1], cfg)
    tr.inspect_offsets(model, scenes[0], cfg)
    assert recorded == [False, False, False]


def test_infer_on_all_nan_frame_returns_zeros_without_warning(setup):
    model, scenes, cfg = setup
    points = scenes[0].points.copy()
    points[:, :3] = np.nan
    sample = data.SceneSample(points=points, labels=scenes[0].labels, boxes=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = tr.infer(model, sample, cfg)
    assert result == {"point_labels": [0] * len(points), "boxes": []}


def test_evaluate_reports_ap_per_class_with_ground_truth(setup):
    model, scenes, cfg = setup
    report = tr.evaluate(model, scenes, cfg)
    classes = sorted({b.semantic_label for s in scenes for b in s.boxes})
    want = [f"ap_class_{k}_{t:g}m" for k in classes for t in mx.AP_THRESHOLDS]
    got = [k for k in report if k.startswith("ap_class_")]
    assert got == want and "ap_class_3_0.5m" in got
    aps = [report[k] for k in got]
    assert all(0.0 <= v <= 1.0 for v in aps)
    assert report["mean_ap"] == pytest.approx(np.mean(aps), abs=1e-15)
    assert "ap_class_3_0.5m: " in mx.format_report(report)
