"""The benchmark's tracer patches package callables by name and reads counts off
their results. These checks read bench/spans.py as text, so a refactor of the
package that would break a traced run (`--trace 1`) fails here first."""

import ast
import importlib
from pathlib import Path

import numpy as np

from lidarmt import backbone as bb
from lidarmt import sparse

from conftest import rng

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_layers() -> dict:
    """The LAYERS literal of bench/spans.py, parsed without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS")


def test_every_traced_target_resolves_to_a_callable():
    layers = traced_layers()
    assert "sparse.conv" in layers and "backbone.encode" in layers
    for targets in layers.values():
        for target in targets:
            module, path = target.split(":")
            owner = importlib.import_module(module)
            for attr in path.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), target


def test_encode_returns_the_four_scales_the_tracer_counts():
    """spans.py records backbone.sites_s1..s3 as len(result[1..3])."""
    r = rng(3)
    shape = (8, 8, 8)
    cells = r.choice(512, size=60, replace=False)
    t = sparse.SparseVoxelTensor(sparse.unpack_coords(cells, shape), r.normal(size=(60, 2)),
                                 shape)
    scales = bb.encode(t, bb.init_encoder(bb.stage_widths(2), 2, r, shape))
    assert len(scales) == 4
    assert [s.spatial_shape for s in scales] == [(8, 8, 8), (4, 4, 4), (2, 2, 2), (1, 1, 1)]
    assert all(isinstance(s, sparse.SparseVoxelTensor) and len(s) for s in scales)
    assert np.array_equal(scales[0].coords, t.coords)
