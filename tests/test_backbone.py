import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import backbone as bb
from lidarmt import params as pp
from lidarmt import sparse

from conftest import check_grads, check_grads_sampled, rng


def make_input(r, shape=(8, 8, 8), n=20, cin=3):
    w, h, d = shape
    cells = r.choice(w * h * d, size=min(n, w * h * d), replace=False)
    coords = np.column_stack([cells % w, (cells // w) % h, cells // (w * h)])
    return sparse.SparseVoxelTensor(coords, ad.parameter(r.normal(size=(len(coords), cin))),
                                    shape)


def test_encode_scale_shapes():
    r = rng(0)
    widths = bb.stage_widths(4)
    t = make_input(r, shape=(32, 32, 8), n=30)
    enc = bb.init_encoder(widths, 3, r, t.spatial_shape)
    scales = bb.encode(t, enc)
    assert [s.spatial_shape for s in scales] == [(32, 32, 8), (16, 16, 4), (8, 8, 2), (4, 4, 1)]
    assert [s.num_channels for s in scales] == [4, 8, 16, 16]


def test_encode_empty_input_gives_empty_scales():
    r = rng(1)
    widths = bb.stage_widths(4)
    t = sparse.SparseVoxelTensor(np.empty((0, 3)), np.empty((0, 3)), (8, 8, 8))
    scales = bb.encode(t, bb.init_encoder(widths, 3, r, t.spatial_shape))
    assert [len(s) for s in scales] == [0, 0, 0, 0]
    assert scales[-1].spatial_shape == (1, 1, 1)


def test_encode_single_voxel_coordinate_propagation():
    r = rng(2)
    widths = bb.stage_widths(4)
    t = sparse.SparseVoxelTensor(np.array([[5, 3, 6]]), r.normal(size=(1, 3)), (8, 8, 8))
    scales = bb.encode(t, bb.init_encoder(widths, 3, r, t.spatial_shape))
    # submanifold stages keep the site; strided stages halve its coordinates
    want = np.array([5, 3, 6])
    for s in scales:
        assert len(s) == 1
        np.testing.assert_array_equal(s.coords[0], want)
        want = want // 2


def test_decoder_coords_equal_encoder_coords():
    r = rng(3)
    widths = bb.stage_widths(4)
    t = make_input(r, n=24)
    enc = bb.init_encoder(widths, 3, r, t.spatial_shape)
    scales = bb.encode(t, enc)
    dec = bb.init_decoder(widths, scales[3].num_channels, r, t.spatial_shape)
    out = bb.decode(scales, scales[3], dec)
    np.testing.assert_array_equal(out.coords, scales[0].coords)
    np.testing.assert_array_equal(out.coords, t.coords)
    assert out.num_channels == widths[0]


def test_decoder_stage_coords_subset_of_encoder():
    r = rng(4)
    widths = bb.stage_widths(4)
    t = make_input(r, n=30)
    scales = bb.encode(t, bb.init_encoder(widths, 3, r, t.spatial_shape))
    # the strided-map image of each finer scale covers the coarser scale
    for fine, coarse in zip(scales[:-1], scales[1:]):
        fine_keys = {tuple(c // 2) for c in fine.coords}
        assert {tuple(c) for c in coarse.coords} <= fine_keys


def test_decode_rejects_mismatched_injection():
    r = rng(5)
    widths = bb.stage_widths(4)
    t = make_input(r, n=10)
    scales = bb.encode(t, bb.init_encoder(widths, 3, r, t.spatial_shape))
    dec = bb.init_decoder(widths, scales[3].num_channels, r, t.spatial_shape)
    wrong = sparse.SparseVoxelTensor(np.empty((0, 3), dtype=int),
                                     np.empty((0, scales[3].num_channels)),
                                     scales[3].spatial_shape)
    assert len(scales[3]) > 0
    with pytest.raises(sparse.CoordinateError):
        bb.decode(scales, wrong, dec)


def test_bev_extract_preserves_shape_and_zero_case():
    r = rng(6)
    p = bb.init_bev_extractor(4, r)
    out = bb.bev_extract(ad.Tensor(r.normal(size=(4, 6, 6))), p)
    assert out.data.shape == (4, 6, 6)
    for unit in (p.pre, p.down, p.mid, p.up, p.fuse):
        unit.bias.data[:] = 0.0
    zero = ad.Tensor(np.zeros((4, 6, 6)))
    np.testing.assert_allclose(bb.bev_extract(zero, p).data, 0.0, atol=1e-12)


def test_bev_extract_gradients():
    r = rng(7)
    p = bb.init_bev_extractor(2, r)
    bev = ad.parameter(r.normal(size=(2, 4, 4)))
    w = ad.constant(r.normal(size=(2, 4, 4)))
    tensors = [bev] + [t for _, t in pp.named_tensors(p)]

    def f():
        return ad.mul(bb.bev_extract(bev, p), w).sum()

    check_grads_sampled(f, tensors, n_per_tensor=3, rtol=1e-4)


def test_aux_head_zero_weights_and_selection():
    r = rng(8)
    feats = ad.Tensor(r.normal(size=(5, 6)))
    head = bb.LinearUnit(weight=ad.Tensor(np.zeros((6, 4))), bias=ad.Tensor(np.zeros(4)))
    np.testing.assert_array_equal(bb.aux_seg_head(feats, head).data, np.zeros((5, 4)))
    w = np.zeros((6, 4))
    w[2, 0] = 1.0
    w[5, 3] = 1.0
    head2 = bb.LinearUnit(weight=ad.Tensor(w), bias=ad.Tensor(np.zeros(4)))
    out = bb.aux_seg_head(feats, head2)
    np.testing.assert_allclose(out.data[:, 0], feats.data[:, 2])
    np.testing.assert_allclose(out.data[:, 3], feats.data[:, 5])


def test_aux_head_softmax_rows_sum_to_one():
    r = rng(9)
    feats = ad.Tensor(r.normal(size=(7, 5)))
    head = bb.LinearUnit(weight=ad.Tensor(r.normal(size=(5, 6))),
                         bias=ad.Tensor(r.normal(size=6)))
    probs = ad.softmax(bb.aux_seg_head(feats, head), axis=-1)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_bev_projection_roundtrip_identity_on_features():
    r = rng(10)
    widths = bb.stage_widths(4)
    t = make_input(r, n=16)
    scales = bb.encode(t, bb.init_encoder(widths, 3, r, t.spatial_shape))
    bott = scales[3]
    dense = sparse.scatter_to_dense(bott)
    back = sparse.gather_from_dense(dense, bott.coords, bott.spatial_shape)
    np.testing.assert_array_equal(back.data, bott.features.data)


def test_whole_backbone_gradient_check():
    r = rng(11)
    widths = bb.stage_widths(8)
    t = make_input(r, shape=(8, 8, 8), n=12, cin=3)
    enc = bb.init_encoder(widths, 3, r, t.spatial_shape)
    scales_probe = bb.encode(t, enc)
    dec = bb.init_decoder(widths, scales_probe[3].num_channels, r, t.spatial_shape)
    w = ad.constant(r.normal(size=(len(t), widths[0])))

    def f():
        scales = bb.encode(t, enc)
        out = bb.decode(scales, scales[3], dec)
        return ad.mul(out.features, w).sum()

    tensors = [t.features] + [x for _, x in pp.named_tensors(enc)] \
        + [x for _, x in pp.named_tensors(dec)]
    check_grads_sampled(f, tensors, n_per_tensor=2, rtol=1e-3, seed=1)
