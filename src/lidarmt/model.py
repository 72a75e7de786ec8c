"""End-to-end model assembly.

Forward wiring: voxel feature encoder -> sparse encoder -> sparse-to-dense
attention -> 2D BEV extractor -> {detection heads, auxiliary seg head,
dense-to-sparse attention -> voxel decoder -> cross-task decoder ->
dynamic-kernel segmentation logits}. Every BEV map between these stages is a
plain (n_heights*C, H, W) tensor (`sparse.height_collapse`'s layout). The
center branch proposes queries from heatmap peaks and writes refined
score/box residuals back into the dense detection maps at its cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import cross_space as xsp
from . import cross_task as xtk
from . import params as pp
from . import sparse
from . import voxel as vx
from .config import ConfigError
from .data import NUM_CLASSES, NUM_THING, SceneSample
from .tasks import REG_CHANNELS, BevGeometry, LossWeights

DOWNSAMPLE = 8  # three stride-2 stages


class EmptyFrameError(ValueError):
    """The frame holds no voxel: it is empty or every point is out of range."""


@dataclass
class ForwardOut:
    frame: vx.VoxelizedFrame
    seg_logits: ad.Tensor            # (M, K) at full-resolution voxels
    heatmap: ad.Tensor               # (K_thing, Hb, Wb) probabilities
    reg_map: ad.Tensor               # (8, Hb, Wb)
    aux_logits: ad.Tensor            # (M_bev, K) at the occupied BEV cells
    aux_labels: np.ndarray           # (M_bev,) majority voxel label per cell
    bev_cells: np.ndarray            # (M_bev, 2) occupied (u, v) cells
    geometry: BevGeometry
    proposals: xtk.CenterQuerySet | None


class Model:
    """Holds parameters and geometry; forward() is pure given both. Given
    `values` (a checkpoint's arrays by name) it keeps them and draws nothing."""

    def __init__(self, cfg: dict, values: dict | None = None):
        self.cfg = cfg
        self.grid = vx.VoxelGridSpec(voxel_size=cfg["grid.voxel_size"],
                                     range_min=cfg["scene.extent_min"],
                                     range_max=cfg["scene.extent_max"])
        w, h, d = self.grid.dims
        if any(dim % DOWNSAMPLE for dim in (w, h, d)):
            raise ConfigError(f"grid dims {self.grid.dims} must divide by {DOWNSAMPLE}")
        self.hw_bev = (h // DOWNSAMPLE, w // DOWNSAMPLE)
        self.n_heights = d // DOWNSAMPLE
        c = cfg["model.base_channels"]
        widths = bb.stage_widths(c)
        bottleneck = widths[3]
        self.bev_channels = bottleneck * self.n_heights

        # with `values`, `normal` gives zeros: allocated, but no page is touched
        rng = np.random.default_rng(cfg["model.seed"]) if values is None else \
            SimpleNamespace(normal=lambda loc=0.0, scale=1.0, size=None: np.zeros(size))
        self.vfe = vx.init_vfe_params(11, list(cfg["model.vfe_widths"]), rng, out_dim=c)
        self.encoder = bb.init_encoder(widths, c, rng, self.grid.dims)
        self.cross_space = xsp.init_cross_space(
            bottleneck, self.hw_bev, self.n_heights, rng,
            n_heads=cfg["model.cross_space.heads"],
            head_dim_d2s=cfg["model.cross_space.head_dim_d2s"],
            head_dim_s2d=cfg["model.cross_space.head_dim_s2d"],
            n_points=cfg["model.cross_space.points"],
            ffn_hidden=cfg["model.cross_space.ffn"],
            n_blocks=cfg["model.cross_space.blocks"],
        )
        self.bev_extractor = bb.init_bev_extractor(self.bev_channels, rng)
        self.hm_head = bb.conv2d_unit(rng, self.bev_channels, NUM_THING)
        self.hm_head.bias.data[:] = -2.19  # start near sigmoid ~ 0.1
        self.reg_head = bb.conv2d_unit(rng, self.bev_channels, REG_CHANNELS)
        self.aux_head = bb.linear_unit(rng, self.bev_channels, NUM_CLASSES)
        self.decoder = bb.init_decoder(widths, bottleneck, rng, self.grid.dims)
        if cfg["model.cross_task.enabled"]:
            self.cross_task = xtk.init_cross_task(
                cfg["model.cross_task.width"], voxel_dim=c,
                bev_dim=self.bev_channels, grid_hw=self.hw_bev, rng=rng,
                n_layers=cfg["model.cross_task.layers"],
                n_heads=cfg["model.cross_task.heads"],
                head_dim=cfg["model.cross_task.head_dim"],
                ffn_hidden=cfg["model.cross_task.ffn"],
                window=cfg["model.cross_task.window"],
            )
            width = cfg["model.cross_task.width"]
            self.center_score = bb.linear_unit(rng, width, 1, scale=1e-2)
            self.center_reg = bb.linear_unit(rng, width, REG_CHANNELS, scale=1e-2)
            self.seg_linear = None
        else:
            self.cross_task = None
            self.center_score = None
            self.center_reg = None
            self.seg_linear = bb.linear_unit(rng, c, NUM_CLASSES)
        self.loss_weights = LossWeights.create(("seg", "det_hm", "det_reg", "aux_seg"))
        self.geometry = BevGeometry(
            origin=(float(self.grid.lo[0]), float(self.grid.lo[1])),
            cell_size=(float(self.grid.size[0]) * DOWNSAMPLE,
                       float(self.grid.size[1]) * DOWNSAMPLE),
            shape=self.hw_bev)
        if values is None:
            return
        names = self.parameters()
        if set(names) != set(values):
            missing = sorted(set(names) - set(values))[:4]
            extra = sorted(set(values) - set(names))[:4]
            raise KeyError(f"checkpoint/model mismatch: missing={missing} extra={extra}")
        for name, tensor in names.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ValueError(f"checkpoint/model mismatch: {name} has shape "
                                 f"{arr.shape}, model expects {tensor.data.shape}")
            tensor.data = arr

    # -- parameter registry ---------------------------------------------------

    def containers(self) -> dict:
        reg = {"vfe": self.vfe, "encoder": self.encoder, "decoder": self.decoder,
               "bev_extractor": self.bev_extractor, "hm_head": self.hm_head,
               "reg_head": self.reg_head, "aux_head": self.aux_head,
               "loss_weights": self.loss_weights, "cross_space": self.cross_space}
        if self.cross_task is not None:
            reg["cross_task"] = self.cross_task
            reg["center_score"] = self.center_score
            reg["center_reg"] = self.center_reg
        if self.seg_linear is not None:
            reg["seg_linear"] = self.seg_linear
        return reg

    def parameters(self) -> dict:
        out = {}
        for name, obj in self.containers().items():
            out.update(pp.collect(obj, name))
        return out

    # -- forward pieces ---------------------------------------------------------

    def voxelize(self, sample: SceneSample) -> vx.VoxelizedFrame:
        return vx.group_and_vote(sample.xyz, sample.labels, self.grid)

    def forward(self, sample: SceneSample, collector=None) -> ForwardOut:
        frame = self.voxelize(sample)
        if not frame.num_voxels:
            raise EmptyFrameError("no point of the frame falls inside the voxel grid")
        kept_feats = sample.points[frame.kept].astype(np.float64)
        feats = vx.voxel_feature_encode(frame, kept_feats, self.vfe)
        full = sparse.frame_tensor(frame.indices, feats, self.grid.dims)

        scales = bb.encode(full, self.encoder)
        bottleneck = scales[3]

        bev = bb.bev_extract(xsp.sparse_to_dense(bottleneck, self.cross_space, collector),
                             self.bev_extractor)
        hb, wb = self.hw_bev
        bev_rows = ad.reshape(ad.transpose(bev, (1, 2, 0)), (hb * wb, self.bev_channels))

        hm_logits = ad.conv2d(bev, self.hm_head.weight, self.hm_head.bias)
        reg_map = ad.conv2d(bev, self.reg_head.weight, self.reg_head.bias)

        cells = np.unique(bottleneck.coords[:, :2], axis=0)    # the aux loss sums in this order
        cell_rows = sparse.pack_coords(cells, (wb, hb))

        injected = xsp.dense_to_sparse(bev, bottleneck.coords, self.cross_space, collector)
        injected_t = bottleneck.with_features(injected)
        decoded = bb.decode(scales, injected_t, self.decoder)

        aux_feats = ad.gather_rows(bev_rows, cell_rows)
        voxel_cells = sparse.pack_coords(frame.indices[:, :2] // DOWNSAMPLE, (wb, hb))
        aux_labels = vx.majority_vote(voxel_cells, frame.voxel_labels, hb * wb)[cell_rows]
        aux_logits = bb.aux_seg_head(aux_feats, self.aux_head)

        proposals = None
        if self.cross_task is not None:
            aux_pred = ad.softmax(aux_logits, axis=-1)
            eps0 = xtk.init_class_embedding(aux_pred, aux_feats)
            eps0 = eps0 @ self.cross_task.proj_class.weight + self.cross_task.proj_class.bias
            with ad.no_grad():   # proposals pick cells: backward never reaches them
                base_prob = ad.sigmoid(hm_logits).data
            proposals = xtk.propose_centers(base_prob, bev_rows,
                                            self.cfg["model.cross_task.centers"],
                                            self.cross_task.proj_center,
                                            self.cross_task.pos_emb)
            eps, centers, refined = xtk.decode_queries(
                eps0, proposals, decoded.features, bev_rows, self.hw_bev,
                self.cross_task)
            v_r = ad.concat([decoded.features, refined], axis=1)
            seg_logits = xtk.dynamic_kernel_logits(v_r, eps, self.cross_task.kernel_proj)

            score_delta = centers @ self.center_score.weight + self.center_score.bias
            reg_delta = centers @ self.center_reg.weight + self.center_reg.bias
            cell_idx = sparse.pack_coords(proposals.positions, (wb, hb))
            hm_rows = sparse.pack_coords(np.column_stack(
                [proposals.positions, proposals.class_ids - 1]), (wb, hb, NUM_THING))
            hm_delta = ad.reshape(ad.put_rows(score_delta, hm_rows, NUM_THING * hb * wb),
                                  (NUM_THING, hb, wb))
            reg_delta_map = ad.transpose(
                ad.reshape(ad.put_rows(reg_delta, cell_idx, hb * wb),
                           (hb, wb, REG_CHANNELS)), (2, 0, 1))
            hm_logits = hm_logits + hm_delta
            reg_map = reg_map + reg_delta_map
        else:
            seg_logits = bb.aux_seg_head(decoded.features, self.seg_linear)

        return ForwardOut(frame=frame, seg_logits=seg_logits,
                          heatmap=ad.sigmoid(hm_logits), reg_map=reg_map,
                          aux_logits=aux_logits, aux_labels=aux_labels,
                          bev_cells=cells, geometry=self.geometry,
                          proposals=proposals)
