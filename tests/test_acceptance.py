"""Acceptance suite: each criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The heavy training fixtures are shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from lidarmt import autodiff as ad
from lidarmt import backbone as bb
from lidarmt import checkpoint as ckpt_mod
from lidarmt import cli
from lidarmt import config as cf
from lidarmt import cross_space as xs
from lidarmt import cross_task as xt
from lidarmt import data
from lidarmt import params as pp
from lidarmt import sparse
from lidarmt import tasks
from lidarmt import train as tr
from lidarmt import voxel as vx
from lidarmt.model import Model

from conftest import check_grads, check_grads_sampled, live_cross_task, rng


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def default_scenes(n=20):
    cfg = cf.load_config()
    spec = cli.scene_spec_from_config(cfg)
    return [data.generate_scene(s, spec, frame_id=s) for s in range(n)]


@pytest.fixture(scope="module")
def scenes():
    return default_scenes()


OVERFIT_OVERRIDES = {"train.steps": 1000}


@pytest.fixture(scope="module")
def overfit(scenes):
    cfg = cf.load_config(overrides=OVERFIT_OVERRIDES)
    t0 = time.time()
    model, log = tr.train(cfg, samples=scenes)
    elapsed = time.time() - t0
    report = tr.evaluate(model, scenes, cfg)
    return model, log, report, elapsed, cfg


# -- criterion 1: formula oracles ---------------------------------------------


def test_criterion_1_formula_oracles():
    t0 = time.time()
    r = rng(101)
    worst = 0.0

    for _ in range(100):  # voxel max-pool
        m, c = int(r.integers(1, 5)), int(r.integers(1, 6))
        n = int(r.integers(m, 13))
        gid = r.integers(0, m, size=n)
        gid[:m] = np.arange(m)  # every group non-empty
        vals = ad.Tensor(r.normal(size=(n, c)))
        got = ad.segment_max(vals, gid, m).data
        for g in range(m):
            want = vals.data[gid == g].max(axis=0)
            worst = max(worst, np.abs(got[g] - want).max())

    spec = vx.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                            range_max=(3, 3, 3))
    for _ in range(100):  # majority voting
        n = int(r.integers(1, 40))
        pts = r.uniform(0, 3, size=(n, 3))
        labels = r.integers(1, 7, size=n)
        frame = vx.group_and_vote(pts, labels, spec)
        for row in range(frame.num_voxels):
            hist = np.bincount(labels[frame.point_to_voxel == row], minlength=7)[1:]
            worst = max(worst, abs(float(frame.voxel_labels[row] - (np.argmax(hist) + 1))))

    for _ in range(100):  # class-embedding init
        m, k, c = int(r.integers(1, 9)), int(r.integers(1, 6)), int(r.integers(1, 7))
        raw = r.uniform(0.05, 1.0, size=(m, k))
        pred = raw / raw.sum(axis=1, keepdims=True)
        feats = r.normal(size=(m, c))
        got = xt.init_class_embedding(ad.Tensor(pred), ad.Tensor(feats)).data
        for j in range(k):
            num = sum(pred[i, j] * feats[i] for i in range(m))
            den = sum(pred[i, j] for i in range(m))
            worst = max(worst, np.abs(got[j] - num / den).max())

    for _ in range(100):  # deformable attention, scalar case
        c = int(r.integers(2, 6))
        p = xs.init_deform_attn(c, 1, int(r.integers(1, 5)), 1, 1, r)
        p.offset_w.data[:] = 0.2 * r.normal(size=p.offset_w.data.shape)
        p.offset_b.data[:] = r.uniform(-0.4, 0.4, size=2)
        maps = ad.Tensor(r.normal(size=(1, 5, 5, c)))
        q = ad.Tensor(r.normal(size=(1, c)))
        ref = np.array([[r.uniform(1.0, 3.0), r.uniform(1.0, 3.0)]])
        got = xs.mh_deform_attn(q, ref, maps, p).data[0]
        off = q.data[0] @ p.offset_w.data + p.offset_b.data
        u, v = ref[0] + off
        u0, v0 = int(np.floor(u)), int(np.floor(v))
        du, dv = u - u0, v - v0
        val = ((1 - du) * (1 - dv) * maps.data[0, v0, u0]
               + du * (1 - dv) * maps.data[0, v0, u0 + 1]
               + (1 - du) * dv * maps.data[0, v0 + 1, u0]
               + du * dv * maps.data[0, v0 + 1, u0 + 1])
        worst = max(worst, np.abs(got - (val @ p.value_w.data) @ p.out_w.data).max())

    def softmax_rows(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    for _ in range(100):  # class->voxel and voxel->class cross-attention
        k, m, c = int(r.integers(1, 5)), int(r.integers(1, 8)), int(r.integers(2, 7))
        mha = xt.init_mha(c, c, c, 1, c, r)
        mha.wo.data[:] = np.eye(c)
        for b in (mha.bq, mha.bv, mha.bo):
            b.data[:] = 0.0
        eps = r.normal(size=(k, c))
        vox = r.normal(size=(m, c))
        got3 = xt.attend(ad.Tensor(eps), ad.Tensor(vox), mha).data
        want3 = softmax_rows((eps @ mha.wq.data) @ (vox @ mha.wk.data).T
                             / math.sqrt(c)) @ (vox @ mha.wv.data)
        worst = max(worst, np.abs(got3 - want3).max())
        got4 = xt.attend(ad.Tensor(vox), ad.Tensor(eps), mha).data
        want4 = softmax_rows((vox @ mha.wq.data) @ (eps @ mha.wk.data).T
                             / math.sqrt(c)) @ (eps @ mha.wv.data)
        worst = max(worst, np.abs(got4 - want4).max())

    for _ in range(100):  # dynamic kernel
        m, k, c = int(r.integers(1, 8)), int(r.integers(1, 6)), int(r.integers(2, 6))
        phi = bb.LinearUnit(weight=ad.Tensor(r.normal(size=(2 * c, c))),
                            bias=ad.Tensor(r.normal(size=c)))
        v_r = r.normal(size=(m, 2 * c))
        eps = r.normal(size=(k, c))
        got = xt.dynamic_kernel_logits(ad.Tensor(v_r), ad.Tensor(eps), phi).data
        want = (v_r @ phi.weight.data + phi.bias.data) @ eps.T / math.sqrt(c)
        worst = max(worst, np.abs(got - want).max())

    from test_tasks import lovasz_jaccard_oracle
    for _ in range(100):  # Lovasz-softmax
        m, k = int(r.integers(1, 9)), int(r.integers(2, 5))
        raw = r.uniform(0.05, 1.0, size=(m, k))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = r.integers(1, k + 1, size=m)
        got = float(tasks.lovasz_softmax(ad.Tensor(probs), labels).data)
        worst = max(worst, abs(got - lovasz_jaccard_oracle(probs, labels)))

    elapsed = time.time() - t0
    _report(1, "formula oracles", worst < 1e-10 and elapsed < 60,
            f"max abs err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: sparse-conv equivalence ---------------------------------------


def _dense_conv_shifted(dense, kernel, bias, stride):
    """Independent dense 3D correlation via padded shifts; (W,H,D,C) layout."""
    w, h, d, cin = dense.shape
    cout = kernel.shape[-1]
    padded = np.pad(dense, ((1, 1), (1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(bias, (w // stride, h // stride, d // stride, cout)).copy()
    for ix, dx in enumerate((-1, 0, 1)):
        for iy, dy in enumerate((-1, 0, 1)):
            for iz, dz in enumerate((-1, 0, 1)):
                shifted = padded[1 + dx: 1 + dx + w: stride,
                                 1 + dy: 1 + dy + h: stride,
                                 1 + dz: 1 + dz + d: stride]
                out += shifted @ kernel[ix, iy, iz]
    return out


def test_criterion_2_sparse_conv_equivalence():
    t0 = time.time()
    r = rng(202)
    worst = 0.0
    for i in range(200):
        w, h, d = (int(r.integers(2, 5)) * 2 for _ in range(3))  # even, <= 8
        cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
        n = int(r.integers(1, min(w * h * d, 30) + 1))
        cells = r.choice(w * h * d, size=n, replace=False)
        coords = np.column_stack([cells % w, (cells // w) % h, cells // (w * h)])
        t = sparse.SparseVoxelTensor(coords, r.normal(size=(n, cin)), (w, h, d))
        kernel = ad.Tensor(r.normal(size=(27, cin, cout)))   # every tap lives on these grids
        bias = ad.Tensor(r.normal(size=cout))
        dense = np.zeros((w, h, d, cin))
        dense[coords[:, 0], coords[:, 1], coords[:, 2]] = t.features.data
        if i % 2 == 0:
            out = sparse.submanifold_conv3d(t, kernel, bias)
            want = _dense_conv_shifted(dense, kernel.data.reshape(3, 3, 3, cin, cout),
                                       bias.data, stride=1)
        else:
            out = sparse.strided_conv3d(t, kernel, bias)
            want = _dense_conv_shifted(dense, kernel.data.reshape(3, 3, 3, cin, cout),
                                       bias.data, stride=2)
        for row, (x, y, z) in enumerate(out.coords):
            worst = max(worst, np.abs(out.features.data[row] - want[x, y, z]).max())
    _report(2, "sparse-conv equivalence", worst < 1e-12,
            f"max abs err {worst:.2e}, {time.time() - t0:.1f}s")


# -- criterion 3: gradient suite -------------------------------------------------


def test_criterion_3_gradient_suite():
    t0 = time.time()
    r = rng(303)

    # voxel feature encoder
    spec = vx.VoxelGridSpec(voxel_size=(1, 1, 1), range_min=(0, 0, 0),
                            range_max=(3, 3, 3))
    pts = r.uniform(0, 3, size=(9, 3))
    feats = np.column_stack([pts, r.uniform(0, 1, (9, 2))])
    frame = vx.group_and_vote(pts, np.ones(9, dtype=int), spec)
    vfe = vx.init_vfe_params(11, [6, 5], r, out_dim=4)
    wv = ad.constant(r.normal(size=(frame.num_voxels, 4)))
    check_grads(lambda: ad.mul(vx.voxel_feature_encode(frame, feats, vfe), wv).sum(),
                [t for pair in vfe.weights for t in pair] + list(vfe.out_proj))

    # sparse convolutions
    coords = np.array([[1, 1, 1], [2, 1, 1], [3, 3, 2], [0, 0, 0]])
    t = sparse.SparseVoxelTensor(coords, ad.parameter(r.normal(size=(4, 2))), (4, 4, 4))
    k3 = ad.parameter(r.normal(size=(27, 2, 3)))
    b3 = ad.parameter(r.normal(size=3))
    w_sub = ad.constant(r.normal(size=(4, 3)))
    check_grads(lambda: ad.mul(sparse.submanifold_conv3d(t, k3, b3).features,
                               w_sub).sum(), [t.features, k3, b3])
    n_str = len(sparse.strided_conv3d(t, k3, b3))
    w_str = ad.constant(r.normal(size=(n_str, 3)))
    check_grads(lambda: ad.mul(sparse.strided_conv3d(t, k3, b3).features,
                               w_str).sum(), [t.features, k3, b3])
    # the upsample runs back onto the fine sites its coarse sites were strided from
    fine = sparse.SparseVoxelTensor(np.array([[0, 0, 0], [2, 2, 2], [3, 2, 3]]),
                                    np.zeros((3, 0)), (4, 4, 4))
    coarse = sparse.strided_conv3d(fine, ad.Tensor(np.zeros((27, 0, 3))), ad.Tensor(np.zeros(3)))
    assert coarse.coords.tolist() == [[0, 0, 0], [1, 1, 1]]
    coarse = coarse.with_features(ad.parameter(r.normal(size=(2, 3))))
    w_up = ad.constant(r.normal(size=(3, 2)))
    k_up = ad.parameter(r.normal(size=(27, 3, 2)))
    b_up = ad.parameter(r.normal(size=2))
    check_grads(lambda: ad.mul(sparse.upsample_conv3d(coarse, fine, k_up, b_up).features,
                               w_up).sum(),
                [coarse.features, k_up, b_up])

    # BEV extractor
    bevp = bb.init_bev_extractor(2, r)
    bev_map = ad.parameter(r.normal(size=(2, 4, 4)))
    w_bev = ad.constant(r.normal(size=(2, 4, 4)))
    check_grads_sampled(lambda: ad.mul(bb.bev_extract(bev_map, bevp), w_bev).sum(),
                        [bev_map] + [x for _, x in pp.named_tensors(bevp)],
                        n_per_tensor=3, rtol=1e-4, seed=31)

    # deformable attention block (away from bilinear kinks)
    dp = xs.init_deform_attn(3, 2, 2, 2, 2, r)
    dp.offset_w.data[:] = 0.1 * r.normal(size=dp.offset_w.data.shape)
    dp.offset_b.data[:] = r.uniform(0.1, 0.4, dp.offset_b.data.shape) \
        * r.choice([-1, 1], dp.offset_b.data.shape)
    dp.logit_w.data[:] = 0.4 * r.normal(size=dp.logit_w.data.shape)
    maps = ad.parameter(r.normal(size=(2, 4, 4, 3)))
    q = ad.parameter(r.normal(size=(2, 3)))
    refs = np.array([[1.3, 1.7], [2.2, 0.6]])
    w_at = ad.constant(r.normal(size=(2, 3)))
    check_grads(lambda: ad.mul(xs.mh_deform_attn(q, refs, maps, dp), w_at).sum(),
                [q, maps] + [x for _, x in pp.named_tensors(dp)], rtol=1e-4)

    # cross-task layer + dynamic kernel
    ctp = live_cross_task(xt.init_cross_task(4, voxel_dim=6, bev_dim=4, grid_hw=(4, 4),
                                             rng=r, n_layers=1, n_heads=2, head_dim=2,
                                             ffn_hidden=6, window=3), r)
    eps = ad.parameter(r.normal(size=(3, 4)))
    vox = ad.parameter(r.normal(size=(5, 6)))
    bev_rows = ad.parameter(r.normal(size=(16, 4)))
    centers = xt.CenterQuerySet(queries=ad.parameter(r.normal(size=(2, 4))),
                                positions=np.array([[1, 1], [2, 2]]),
                                scores=np.ones(2), class_ids=np.ones(2, dtype=int))
    w_e = ad.constant(r.normal(size=(3, 4)))
    w_s = ad.constant(r.normal(size=(5, 3)))

    def f_xt():
        e, cen, v = xt.decode_queries(eps, centers, vox, bev_rows, (4, 4), ctp)
        s = xt.dynamic_kernel_logits(ad.concat([vox, v], axis=1), e, ctp.kernel_proj)
        return ad.mul(e, w_e).sum() + ad.mul(s, w_s).sum()

    check_grads_sampled(f_xt, [eps, vox, bev_rows, centers.queries]
                        + [x for _, x in pp.named_tensors(ctp)],
                        n_per_tensor=2, rtol=1e-4, seed=32)

    # losses
    target = np.zeros((2, 3, 3))
    target[0, 1, 1] = 1.0
    hm_logits = ad.parameter(r.normal(size=(2, 3, 3)))
    check_grads(lambda: tasks.focal_heatmap_loss(ad.sigmoid(hm_logits), target),
                [hm_logits])
    reg_t = r.normal(size=(8, 3, 3))
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = mask[0, 2] = True
    reg_p = ad.parameter(r.normal(size=(8, 3, 3)))
    check_grads(lambda: tasks.l1_box_loss(reg_p, reg_t, mask), [reg_p])
    logits = ad.parameter(r.normal(size=(6, 4)))
    labels = r.integers(1, 5, size=6)
    check_grads(lambda: tasks.ce_loss(logits, labels), [logits])
    check_grads(lambda: tasks.lovasz_softmax(ad.softmax(logits, axis=-1), labels),
                [logits], rtol=1e-3)
    lw = tasks.LossWeights.create(("a", "b", "c"))
    lw.log_vars.data[:] = r.normal(size=3) * 0.3
    losses = {"a": ad.constant(0.5), "b": ad.constant(1.5), "c": ad.constant(0.1)}
    check_grads(lambda: tasks.uncertainty_combine(losses, lw), [lw.log_vars])

    # end-to-end micro-scale check through the uncertainty-combined loss
    micro = cf.load_config(overrides={
        "scene.extent_min": (-4.0, -4.0, 0.0), "scene.extent_max": (4.0, 4.0, 4.0),
        "scene.objects_per_class": (1, 0, 0, 0), "scene.ground_density": 0.2,
        "scene.wall_density": 0.0, "scene.object_density": 0.5,
        "model.base_channels": 8, "model.vfe_widths": (8,),
        "model.cross_space.head_dim_d2s": 4, "model.cross_space.head_dim_s2d": 4,
        "model.cross_space.blocks": 1, "model.cross_space.ffn": 8,
        "model.cross_task.width": 8, "model.cross_task.head_dim": 2,
        "model.cross_task.ffn": 8, "model.cross_task.layers": 1,
        "model.cross_task.centers": 4,
    })
    scene = data.generate_scene(5, cli.scene_spec_from_config(micro))
    model = Model(micro)
    # off-lattice offsets keep the FD probe away from bilinear kinks
    for blk in model.cross_space.d2s_blocks + model.cross_space.s2d_blocks:
        blk.attn.offset_b.data[:] = r.uniform(0.1, 0.4, blk.attn.offset_b.data.shape) \
            * r.choice([-1, 1], blk.attn.offset_b.data.shape)

    def f_end():
        out = model.forward(scene)
        losses = tr.compute_losses(out, scene)
        return tasks.uncertainty_combine(losses, model.loss_weights)

    n_vox = model.voxelize(scene).num_voxels
    assert n_vox <= 40, f"micro scene has {n_vox} voxels"
    check_grads_sampled(f_end, list(model.parameters().values()),
                        n_per_tensor=1, rtol=1e-3, seed=33)

    elapsed = time.time() - t0
    _report(3, "gradient suite", elapsed < 300, f"{elapsed:.0f}s")


# -- criterion 4: structural invariants -------------------------------------------


def test_criterion_4_structural_invariants(tmp_path):
    r = rng(404)
    ok = True
    detail = []

    # attention rows sum to 1: deformable (via collector) and MHA flavors
    dp = xs.init_deform_attn(3, 2, 3, 2, 2, r)
    dp.logit_w.data[:] = r.normal(size=dp.logit_w.data.shape)
    maps = ad.Tensor(r.normal(size=(2, 4, 4, 3)))
    q = ad.Tensor(r.normal(size=(5, 3)))
    refs = np.column_stack([r.uniform(0.5, 3, 5), r.uniform(0.5, 3, 5)])
    col = xs.OffsetCollector()
    xs.mh_deform_attn(q, refs, maps, dp, collector=col,
                      query_meta=np.column_stack([refs, np.zeros(5)]))
    rows = col.stacked()
    sums = rows[:, 8].reshape(5, 2, 2, 2).sum(axis=(2, 3))  # over (height, point)
    if np.abs(sums - 1).max() > 1e-6:
        ok, detail = False, ["deformable weights"]

    # scatter/gather and collapse/expand inverses
    cells = r.choice(3 * 4 * 2, size=6, replace=False)
    coords = np.column_stack([cells % 3, (cells // 3) % 4, cells // 12])
    t = sparse.SparseVoxelTensor(coords, r.normal(size=(6, 5)), (3, 4, 2))
    dense = sparse.scatter_to_dense(t)
    back = sparse.gather_from_dense(dense, t.coords, t.spatial_shape)
    if not np.array_equal(back.data, t.features.data):
        ok, detail = False, detail + ["scatter/gather"]
    x = ad.Tensor(r.normal(size=(5, 2, 4, 3)))
    if not np.array_equal(sparse.height_expand(sparse.height_collapse(x), 2).data,
                          x.data):
        ok, detail = False, detail + ["collapse/expand"]

    # decoder coords equal encoder coords; checkpoint round trip bit-exact
    over = {"scene.extent_min": (-4.0, -4.0, 0.0),
            "scene.extent_max": (4.0, 4.0, 4.0),
            "scene.objects_per_class": (1, 0, 0, 0),
            "scene.ground_density": 1.0, "model.base_channels": 8,
            "model.vfe_widths": (8, 8), "model.cross_space.head_dim_d2s": 8,
            "model.cross_space.head_dim_s2d": 8, "model.cross_space.ffn": 16,
            "model.cross_task.width": 16, "model.cross_task.head_dim": 4,
            "model.cross_task.ffn": 16, "model.cross_task.centers": 4,
            "train.steps": 3}
    cfg = cf.load_config(overrides=over)
    scene = data.generate_scene(1, cli.scene_spec_from_config(cfg))
    model = Model(cfg)
    frame = model.voxelize(scene)
    feats = vx.voxel_feature_encode(frame, scene.points[frame.kept].astype(np.float64),
                                    model.vfe)
    full = sparse.SparseVoxelTensor(frame.indices, feats, model.grid.dims)
    scales = bb.encode(full, model.encoder)
    injected = scales[3].with_features(ad.Tensor(r.normal(
        size=scales[3].features.data.shape)))
    decoded = bb.decode(scales, injected, model.decoder)
    if not np.array_equal(decoded.coords, scales[0].coords):
        ok, detail = False, detail + ["decoder coords"]

    model2, _ = tr.train(cfg, samples=[scene], out_ckpt=tmp_path / "m.ckpt")
    ref = model2.forward(scene)
    loaded, _cfg, _ck = tr.load_model(tmp_path / "m.ckpt")
    again = loaded.forward(scene)
    same = (np.array_equal(again.seg_logits.data, ref.seg_logits.data)
            and np.array_equal(again.heatmap.data, ref.heatmap.data)
            and np.array_equal(again.reg_map.data, ref.reg_map.data))
    if not same:
        ok, detail = False, detail + ["checkpoint round trip"]

    _report(4, "structural invariants", ok, ";".join(detail))


# -- criterion 5: end-to-end overfit ----------------------------------------------


def test_criterion_5_overfit(overfit):
    model, _log, report, elapsed, cfg = overfit
    assert cfg["model.base_channels"] == 16
    assert Model(cfg).grid.dims == (32, 32, 8)
    ok = (report["voxel_accuracy"] >= 0.95 and report["point_miou"] >= 0.90
          and report["center_hit_rate"] >= 0.90 and elapsed <= 900)
    _report(5, "end-to-end overfit",
            ok, f"acc {report['voxel_accuracy']:.4f} miou {report['point_miou']:.4f} "
                f"hits {report['center_hit_rate']:.2f} in {elapsed:.0f}s")


# -- criterion 6: cross-task ablation direction ------------------------------------


def _last_pass_means(log, n_scenes):
    return {k: float(np.mean(v[-n_scenes:])) for k, v in log.per_task.items()}


# The decoder is judged on the raw losses of the two tasks it feeds: `seg`
# (the dynamic-kernel head) and `det_hm` (the heatmap its center queries write
# into). Each is the mean over the last pass over the scenes of the 1000-step
# overfit run, against one run that differs only in `model.cross_task.enabled`.
# The uncertainty-weighted total sum(exp(-s_k) * L_k + s_k) is not compared:
# its learned log-variances s_k settle at different values in the two models
# whatever the task error is, so the total ranks the s_k as much as the losses.
def test_criterion_6_ablation_direction(overfit, scenes):
    _model, log_on, _report_on, _elapsed, _cfg = overfit
    cfg_off = cf.load_config(overrides={**OVERFIT_OVERRIDES,
                                        "model.cross_task.enabled": False})
    _m_off, log_off = tr.train(cfg_off, samples=scenes)
    on = _last_pass_means(log_on, len(scenes))
    off = _last_pass_means(log_off, len(scenes))
    ok = on["seg"] < off["seg"] and on["det_hm"] < off["det_hm"]
    _report(6, "ablation direction", ok,
            "last-pass mean loss with decoder vs without: "
            + ", ".join(f"{k} {on[k]:.5f} vs {off[k]:.5f}" for k in on))


# -- criterion 7: multi-frame contract ---------------------------------------------


def test_criterion_7_multi_frame(scenes):
    cfg = cf.load_config(overrides={"train.steps": 1000, "frames.history": 1})
    view = tr.training_view(scenes[0], cfg, step=0, train_seed=0)
    n = len(scenes[0].points)
    contract = (len(view.points) == 2 * n
                and np.array_equal(view.points[:n], scenes[0].points)
                and np.array_equal(view.points[n:, :4], scenes[0].points[:, :4])
                and np.allclose(view.points[n:, 4], -cfg["frames.dt"], atol=1e-7))
    assert contract, "multi-frame view must change only timestamps and count"

    model, _log = tr.train(cfg, samples=scenes)
    report = tr.evaluate(model, scenes, cfg)
    ok = (report["voxel_accuracy"] >= 0.95 and report["point_miou"] >= 0.90
          and report["center_hit_rate"] >= 0.90)
    _report(7, "multi-frame contract", ok,
            f"acc {report['voxel_accuracy']:.4f} miou {report['point_miou']:.4f} "
            f"hits {report['center_hit_rate']:.2f}")
