"""Span tracer for per-layer timing, applied to lidarmt from outside the package.

`Tracer.install()` replaces the public callables listed in LAYERS with
wrappers that record a span (name, start, end, parent span, op id) and, for
some layers, counts taken from the call's result. `uninstall()` puts the
originals back, so untraced calls run the unmodified program. Spans stay in
memory until `write()`.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# Span name -> the callables it covers, as "module:attribute" or
# "module:Class.method". A function imported by name into other lidarmt
# modules (such as the sparse convs in backbone) is replaced at every binding.
LAYERS = {
    "data.view": ["lidarmt.train:training_view"],
    "data.generate": ["lidarmt.data:generate_scene"],
    "data.write": ["lidarmt.data:write_dataset"],
    "data.read": ["lidarmt.data:read_dataset"],
    "voxel.group": ["lidarmt.voxel:group_and_vote"],
    "voxel.vfe": ["lidarmt.voxel:voxel_feature_encode"],
    "sparse.conv": ["lidarmt.sparse:submanifold_conv3d",
                    "lidarmt.sparse:strided_conv3d",
                    "lidarmt.sparse:upsample_conv3d"],
    "backbone.encode": ["lidarmt.backbone:encode"],
    "backbone.decode": ["lidarmt.backbone:decode"],
    "backbone.bev_extract": ["lidarmt.backbone:bev_extract"],
    "backbone.aux_head": ["lidarmt.backbone:aux_seg_head"],
    "cross_space.s2d": ["lidarmt.cross_space:sparse_to_dense"],
    "cross_space.d2s": ["lidarmt.cross_space:dense_to_sparse"],
    "cross_task.embed": ["lidarmt.cross_task:init_class_embedding"],
    "cross_task.propose": ["lidarmt.cross_task:propose_centers"],
    "cross_task.decode": ["lidarmt.cross_task:decode_queries"],
    "cross_task.logits": ["lidarmt.cross_task:dynamic_kernel_logits"],
    "model.forward": ["lidarmt.model:Model.forward"],
    "tasks.loss": ["lidarmt.train:compute_losses",
                   "lidarmt.tasks:uncertainty_combine"],
    "tasks.decode_boxes": ["lidarmt.tasks:decode_boxes"],
    "autodiff.backward": ["lidarmt.autodiff:Tensor.backward"],
    "train.zero_grad": ["lidarmt.train:AdamW.zero_grad"],
    "train.clip": ["lidarmt.train:AdamW.clip_global_norm"],
    "train.adamw": ["lidarmt.train:AdamW.step"],
    "checkpoint.save": ["lidarmt.checkpoint:save_checkpoint"],
    "checkpoint.load": ["lidarmt.checkpoint:load_checkpoint"],
    "metrics.score": ["lidarmt.metrics:confusion_matrix", "lidarmt.metrics:miou",
                      "lidarmt.metrics:center_distance_ap"],
}

# Layers that run once per set-up or per input block rather than once per op:
# reported as the median per call, not per op.
PER_CALL = ("data.generate", "data.write", "data.read",
            "checkpoint.save", "checkpoint.load")


COUNTS = ("data.points", "voxel.voxels", "voxel.dropped_points",
          "sparse.conv_calls", "sparse.rulebook_misses",
          "backbone.sites_s1", "backbone.sites_s2", "backbone.sites_s3",
          "tasks.boxes")


def _rulebook_size():
    """Entries in the sparse module's rulebook cache, or None if it has none."""
    cache = getattr(sys.modules["lidarmt.sparse"], "_RULEBOOK_CACHE", None)
    return len(cache) if isinstance(cache, dict) else None


def _count_result(name, result, counts):
    if name == "data.view":
        counts["data.points"] = len(result.points)
    elif name == "voxel.group":
        counts["voxel.voxels"] = result.num_voxels
        counts["voxel.dropped_points"] = result.dropped
    elif name == "backbone.encode":
        for s in (1, 2, 3):
            counts[f"backbone.sites_s{s}"] = len(result[s])
    elif name == "tasks.decode_boxes":
        counts["tasks.boxes"] = len(result)


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or None, op]
        self.counts = []   # (name, value, op)
        self.op = -1
        self._stack = []
        self._undo = []

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for target in targets:
                self._patch(name, target)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, name, target):
        mod_name, path = target.split(":")
        module = importlib.import_module(mod_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owners = [getattr(module, cls_name)]
        else:
            attr = path
            owners = [module]
        original = getattr(owners[0], attr)
        wrapper = self._wrap(name, original)
        if owners[0] is module:
            owners = [m for key, m in list(sys.modules.items())
                      if key.startswith("lidarmt") and m is not None
                      and any(v is original for v in vars(m).values())]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        conv = name == "sparse.conv"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.op]
            spans.append(span)
            stack.append(index)
            before = _rulebook_size() if conv else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            found = {}
            if conv:
                after = _rulebook_size()
                found["sparse.conv_calls"] = 1
                found["sparse.rulebook_misses"] = (
                    -1 if before is None else int(after != before))
            else:
                _count_result(name, result, found)
            for key, value in found.items():
                counts.append((key, value, span[4]))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Per-layer metrics, name -> (value, unit), over the traced steady ops
    given as (op id, start, end): per-op medians of inclusive span time and
    of counts, per-call medians for PER_CALL layers, plus
    model.forward_self_ms, sparse.rulebook_hit_ratio and trace.coverage."""
    op_ids = {op for op, _s, _e in ops}
    window = {op: (s, e) for op, s, e in ops}
    per_op = {op: {} for op in op_ids}
    per_call = {name: [] for name in PER_CALL}
    child_time = {}
    covered = {op: 0.0 for op in op_ids}
    for name, start, end, parent, op in tracer.spans:
        dur = end - start
        if name in per_call:
            per_call[name].append(dur * 1e3)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + dur
        if op not in op_ids:
            continue
        acc = per_op[op]
        acc[name + "_ms"] = acc.get(name + "_ms", 0.0) + dur * 1e3
        lo, hi = window[op]
        if parent is None and start >= lo and end <= hi:
            covered[op] += dur
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if name == "model.forward" and op in op_ids:
            acc = per_op[op]
            self_ms = (end - start - child_time.get(i, 0.0)) * 1e3
            acc["model.forward_self_ms"] = acc.get("model.forward_self_ms", 0.0) + self_ms
    for name, value, op in tracer.counts:
        if op in op_ids:
            per_op[op][name] = per_op[op].get(name, 0) + value

    out = {}
    for name in LAYERS:
        key = name + "_ms"
        if name in PER_CALL:
            out[key] = (_median(per_call[name]), "ms")
        else:
            out[key] = (_median([per_op[op].get(key, 0.0) for op in op_ids]), "ms")
    out["model.forward_self_ms"] = (_median(
        [per_op[op].get("model.forward_self_ms", 0.0) for op in op_ids]), "ms")
    for name in COUNTS:
        out[name] = (_median([per_op[op].get(name, 0) for op in op_ids]), "count")
    calls = sum(per_op[op].get("sparse.conv_calls", 0) for op in op_ids)
    misses = sum(per_op[op].get("sparse.rulebook_misses", 0) for op in op_ids)
    # Negative misses mean the program has no rulebook cache dict to read.
    hit_ratio = 1.0 - misses / calls if calls and misses >= 0 else -1.0
    out["sparse.rulebook_hit_ratio"] = (hit_ratio, "ratio")
    op_time = sum(e - s for _op, s, e in ops)
    out["trace.coverage"] = (sum(covered.values()) / op_time, "ratio")
    return out

