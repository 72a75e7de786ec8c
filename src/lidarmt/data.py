"""Synthetic LiDAR-like scenes: generation, multi-frame concatenation,
augmentation, and dataset file I/O.

A scene is a ground plane, boundary walls, and a handful of yawed boxes
("things") whose surfaces are point-sampled. Six semantic classes:

    1 ground   2 wall   3 vehicle   4 pedestrian   5 cyclist   6 barrier

Classes 1-2 are stuff, 3-6 are things with boxes; a box's class_id is its
thing index in [1, 4] and its semantic label is class_id + 2.

Point columns are (x, y, z, intensity, timestamp); arrays are float32 /
int32 so the 32-bit on-disk round trip is exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import container as cx

CLASS_NAMES = ("ground", "wall", "vehicle", "pedestrian", "cyclist", "barrier")
NUM_CLASSES = 6
NUM_STUFF = 2
NUM_THING = 4
THING_SEMANTIC_OFFSET = NUM_STUFF  # semantic label = box class_id + offset

# (l, w, h) sampling ranges per thing class, meters
_SIZE_RANGES = {
    1: ((3.5, 4.6), (1.7, 2.0), (1.4, 1.8)),   # vehicle
    2: ((0.5, 0.7), (0.5, 0.7), (1.5, 1.9)),   # pedestrian
    3: ((1.6, 2.0), (0.5, 0.7), (1.3, 1.7)),   # cyclist
    4: ((2.0, 3.0), (0.3, 0.5), (0.9, 1.2)),   # barrier
}

_DATASET_MAGIC = b"LMTDATA\x00"
_DATASET_VERSION = 2


def labels_in_range(labels: np.ndarray, k: int = NUM_CLASSES) -> bool:
    """Every label is a class id in 1..k."""
    return labels.size == 0 or bool(labels.min() >= 1 and labels.max() <= k)


class PlacementError(Exception):
    """A box does not fit the extent, or the scene stays too crowded to place it."""


class PoseError(Exception):
    """A history frame has no pose mapping it into the current frame."""


@dataclass
class Box:
    """An upright oriented box: center (m), size l/w/h (m), yaw in [-pi, pi)."""

    center: np.ndarray
    size: np.ndarray
    yaw: float
    class_id: int  # thing class in [1, NUM_THING]

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float32)
        self.size = np.asarray(self.size, dtype=np.float32)
        self.yaw = float(np.float32(self.yaw))  # f32-exact so file round trips are bitwise
        if not (self.size > 0).all():
            raise ValueError("box size must be strictly positive")
        if not (-math.pi <= self.yaw < math.pi):
            raise ValueError(f"yaw {self.yaw} outside [-pi, pi)")
        if not 1 <= self.class_id <= NUM_THING:
            raise ValueError(f"class_id {self.class_id} outside [1, {NUM_THING}]")

    @property
    def semantic_label(self) -> int:
        return self.class_id + THING_SEMANTIC_OFFSET


@dataclass
class SceneSample:
    """One frame: points (N, 5), per-point labels (N,), boxes, and a frame id."""

    points: np.ndarray
    labels: np.ndarray
    boxes: list[Box]
    frame_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32).reshape(-1, 5)
        self.labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)
        if len(self.labels) != len(self.points):
            raise ValueError("labels and points disagree in length")

    def validate(self) -> None:
        if not np.isfinite(self.points).all():
            raise ValueError("non-finite point data")
        if (self.points[:, 4] > 0).any():
            raise ValueError("timestamps must be <= 0")
        if not labels_in_range(self.labels):
            raise ValueError("labels outside [1, K]")

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]


@dataclass
class SceneSpec:
    """Scene description: extent, object counts per thing class, densities."""

    extent_min: tuple = (0.0, 0.0, 0.0)
    extent_max: tuple = (16.0, 16.0, 4.0)
    objects_per_class: tuple = (2, 1, 1, 1)  # vehicle, pedestrian, cyclist, barrier
    ground_density: float = 3.0      # points / m^2
    wall_density: float = 1.0        # points / m^2 of wall surface
    object_density: float = 6.0      # points / m^2 of box surface
    ground_noise: float = 0.02       # sigma of ground z jitter, m
    wall_height: float = 2.5
    min_center_gap: float = 0.0      # extra spacing between box centers, m
    max_retries: int = 100

    def __post_init__(self):
        lo = np.asarray(self.extent_min, dtype=np.float64)
        hi = np.asarray(self.extent_max, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("extents must have 3 components")
        if not (hi > lo).all():
            raise ValueError("extent_max must exceed extent_min per axis")
        if len(self.objects_per_class) != NUM_THING:
            raise ValueError(f"objects_per_class needs {NUM_THING} counts")
        if any(n < 0 for n in self.objects_per_class):
            raise ValueError("object counts must be >= 0")


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def points_in_box(xyz: np.ndarray, box: Box, tol: float = 1e-9) -> np.ndarray:
    """Membership mask: |box-frame coordinate| <= half size (+tol) on all axes."""
    local = xyz.astype(np.float64) - box.center.astype(np.float64)
    with np.errstate(invalid="ignore"):   # as in concat_frames: a non-finite point is in no box
        local[:, :2] = local[:, :2] @ yaw_matrix(box.yaw)  # inverse rotation
    half = box.size.astype(np.float64) / 2.0
    return (np.abs(local) <= half + tol).all(axis=1)


def _sample_box_surface(box: Box, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the box surface plus ~10% interior points.

    Surface samples are pulled inward by a hair so membership tests are
    unambiguous at the boundary.
    """
    l, w, h = (float(v) for v in box.size)
    n_interior = max(1, n // 10)
    n_surface = max(1, n - n_interior)
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n_surface, p=areas / areas.sum())
    local = rng.uniform(-0.5, 0.5, size=(n_surface, 3))
    for axis in range(3):
        lo_face, hi_face = 2 * axis, 2 * axis + 1
        local[faces == lo_face, axis] = -0.5
        local[faces == hi_face, axis] = 0.5
    interior = rng.uniform(-0.5, 0.5, size=(n_interior, 3))
    local = np.concatenate([local, interior]) * (1.0 - 1e-4)
    local *= np.array([l, w, h])
    xy = local[:, :2] @ yaw_matrix(box.yaw).T
    out = np.empty((len(local), 3))
    out[:, :2] = xy + box.center[:2].astype(np.float64)
    out[:, 2] = local[:, 2] + float(box.center[2])
    return out


def _bev_corners(box: Box) -> np.ndarray:
    l, w = float(box.size[0]), float(box.size[1])
    local = np.array([[-l, -w], [l, -w], [l, w], [-l, w]]) / 2.0
    return local @ yaw_matrix(box.yaw).T + box.center[:2].astype(np.float64)


def _bev_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    """Separating-axis test on two BEV rectangles given by their corners."""
    for rect in (ca, cb):
        for i in range(4):
            edge = rect[(i + 1) % 4] - rect[i]
            axis = np.array([-edge[1], edge[0]])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def generate_scene(seed: int, spec: SceneSpec, frame_id: int = 0) -> SceneSample:
    """Deterministically synthesize one scene from (seed, spec)."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(spec.extent_min, dtype=np.float64)
    hi = np.asarray(spec.extent_max, dtype=np.float64)

    # BEV corners, f32 centres and margins of the placed boxes. A margin bounds
    # its box's half-diagonal: boxes two margins apart cannot overlap.
    boxes: list[Box] = []
    corners, xy, reach = [], np.empty((0, 2), np.float32), np.empty(0)
    for cls, count in enumerate(spec.objects_per_class, start=1):
        (lr, wr, hr) = _SIZE_RANGES[cls]
        for _ in range(count):
            for attempt in range(spec.max_retries + 1):
                size = np.array([rng.uniform(*lr), rng.uniform(*wr), rng.uniform(*hr)])
                margin = 0.5 * math.hypot(size[0], size[1]) + 0.2
                if min((hi[:2] - margin) - (lo[:2] + margin)) < 0:  # rng.uniform's test
                    raise PlacementError(f"class-{cls} box needs {2 * margin:.2f} m; extent "
                                         f"is {spec.extent_min}..{spec.extent_max}")
                cx = rng.uniform(lo[0] + margin, hi[0] - margin)
                cy = rng.uniform(lo[1] + margin, hi[1] - margin)
                yaw = rng.uniform(-math.pi, math.pi)
                cand = Box(center=np.array([cx, cy, size[2] / 2]), size=size,
                           yaw=yaw, class_id=cls)
                dist = np.sqrt(((cand.center[:2] - xy) ** 2).sum(axis=1))  # f32, as norm() per pair
                cc, near = _bev_corners(cand), np.flatnonzero(dist <= reach + margin)
                if (dist >= spec.min_center_gap).all() and not any(
                        _bev_overlap(cc, corners[j]) for j in near):
                    boxes.append(cand)
                    corners.append(cc)
                    xy = np.vstack([xy, cand.center[:2]])
                    reach = np.append(reach, margin)
                    break
            else:
                raise PlacementError(
                    f"could not place class-{cls} box after {spec.max_retries} retries")

    chunks, labels = [], []

    area = (hi[0] - lo[0]) * (hi[1] - lo[1])
    n_ground = int(round(spec.ground_density * area))
    if n_ground:
        g = np.empty((n_ground, 3))
        g[:, 0] = rng.uniform(lo[0], hi[0], n_ground)
        g[:, 1] = rng.uniform(lo[1], hi[1], n_ground)
        # plane sits a hair above the extent floor so z jitter stays in range
        g[:, 2] = lo[2] + 0.05 + rng.normal(0.0, spec.ground_noise, n_ground)
        chunks.append(g)
        labels.append(np.full(n_ground, 1, dtype=np.int32))

    wall_h = min(spec.wall_height, hi[2] - lo[2])
    inset = 0.05
    for fixed_axis, value in ((0, lo[0] + inset), (0, hi[0] - inset),
                              (1, lo[1] + inset), (1, hi[1] - inset)):
        run_axis = 1 - fixed_axis
        length = hi[run_axis] - lo[run_axis]
        n_wall = int(round(spec.wall_density * length * wall_h))
        if not n_wall:
            continue
        wpts = np.empty((n_wall, 3))
        wpts[:, fixed_axis] = value
        wpts[:, run_axis] = rng.uniform(lo[run_axis], hi[run_axis], n_wall)
        wpts[:, 2] = rng.uniform(lo[2], lo[2] + wall_h, n_wall)
        chunks.append(wpts)
        labels.append(np.full(n_wall, 2, dtype=np.int32))

    for box in boxes:
        surface = 2 * (box.size[0] * box.size[1] + box.size[0] * box.size[2]
                       + box.size[1] * box.size[2])
        n_obj = max(8, int(round(spec.object_density * float(surface))))
        pts = _sample_box_surface(box, n_obj, rng)
        chunks.append(pts)
        labels.append(np.full(len(pts), box.semantic_label, dtype=np.int32))

    xyz = np.concatenate(chunks) if chunks else np.empty((0, 3))
    lab = np.concatenate(labels) if labels else np.empty(0, dtype=np.int32)
    xyz32 = xyz.astype(np.float32)

    # membership is decided on the stored (float32) coordinates so the
    # label/point-in-box invariant survives quantization; a box holds only
    # points within its margin
    xyz64 = xyz32.astype(np.float64)
    for box, r in zip(boxes, reach):
        near = np.flatnonzero((np.abs(xyz64[:, 0] - box.center[0]) <= r)
                              & (np.abs(xyz64[:, 1] - box.center[1]) <= r))
        lab[near[points_in_box(xyz64[near], box)]] = box.semantic_label

    pts = np.zeros((len(xyz), 5), dtype=np.float32)
    pts[:, :3] = xyz32
    pts[:, 3] = rng.uniform(0.0, 1.0, len(xyz)).astype(np.float32)
    sample = SceneSample(points=pts, labels=lab, boxes=boxes, frame_id=frame_id)
    sample.validate()
    return sample


def concat_frames(current: SceneSample, history: list[SceneSample],
                  poses: list[np.ndarray], dt: float = 0.1) -> SceneSample:
    """Concatenate history scans into the current frame.

    `poses[k]` is the 4x4 rigid transform taking points of history[k] into
    the current frame; history[0] is the most recent scan and its timestamps
    are shifted by -dt, the next by -2*dt, and so on.
    """
    if len(poses) < len(history):
        raise PoseError(f"{len(history)} history frames but {len(poses)} poses")
    parts = [current.points]
    labels = [current.labels]
    for age, (frame, pose) in enumerate(zip(history, poses), start=1):
        if pose is None:
            raise PoseError(f"missing pose for history frame {age}")
        pose = np.asarray(pose, dtype=np.float64)
        if pose.shape != (4, 4):
            raise PoseError(f"pose must be 4x4, got {pose.shape}")
        moved = frame.points.copy()
        with np.errstate(invalid="ignore"):   # inf * 0: a non-finite point stays non-finite
            moved[:, :3] = (frame.points[:, :3].astype(np.float64) @ pose[:3, :3].T
                            + pose[:3, 3]).astype(np.float32)
        moved[:, 4] = (frame.points[:, 4].astype(np.float64) - age * dt).astype(np.float32)
        parts.append(moved)
        labels.append(frame.labels)
    return SceneSample(points=np.concatenate(parts), labels=np.concatenate(labels),
                       boxes=list(current.boxes), frame_id=current.frame_id)


@dataclass
class AugmentParams:
    flip_x: bool = False      # mirror across the x axis: y -> -y
    flip_y: bool = False      # mirror across the y axis: x -> -x
    rotation: float = 0.0     # global yaw about the origin, radians
    scale: float = 1.0


def draw_augment_params(seed: int) -> AugmentParams:
    """Stock augmentation draw: flips p=0.5, yaw U[-pi/4, pi/4], scale U[0.95, 1.05]."""
    rng = np.random.default_rng(seed)
    return AugmentParams(
        flip_x=bool(rng.random() < 0.5),
        flip_y=bool(rng.random() < 0.5),
        rotation=float(rng.uniform(-math.pi / 4, math.pi / 4)),
        scale=float(rng.uniform(0.95, 1.05)),
    )


def _wrap_angle(a: float) -> float:
    return float((a + math.pi) % (2 * math.pi) - math.pi)


def augment(sample: SceneSample, params: AugmentParams) -> SceneSample:
    """Apply flips, global rotation, then scale, about the coordinate origin.

    Points and boxes move together; labels are untouched.
    """
    if not 0.9 <= params.scale <= 1.1:
        raise ValueError(f"scale {params.scale} outside [0.9, 1.1]")

    pts = sample.points.astype(np.float64).copy()
    xyz = pts[:, :3]

    boxes = []
    centers = np.array([b.center for b in sample.boxes], dtype=np.float64).reshape(-1, 3)
    yaws = np.array([b.yaw for b in sample.boxes], dtype=np.float64)
    sizes = np.array([b.size for b in sample.boxes], dtype=np.float64).reshape(-1, 3)

    if params.flip_x:
        xyz[:, 1] = -xyz[:, 1]
        centers[:, 1] = -centers[:, 1]
        yaws = -yaws
    if params.flip_y:
        xyz[:, 0] = -xyz[:, 0]
        centers[:, 0] = -centers[:, 0]
        yaws = math.pi - yaws
    if params.rotation:
        rot = yaw_matrix(params.rotation).T
        with np.errstate(invalid="ignore"):   # as in concat_frames
            xyz[:, :2] = xyz[:, :2] @ rot
        centers[:, :2] = centers[:, :2] @ rot
        yaws = yaws + params.rotation
    if params.scale != 1.0:
        xyz *= params.scale
        centers *= params.scale
        sizes *= params.scale

    for i, b in enumerate(sample.boxes):
        boxes.append(Box(center=centers[i], size=sizes[i],
                         yaw=_wrap_angle(float(yaws[i])), class_id=b.class_id))
    pts[:, :3] = xyz
    return SceneSample(points=pts.astype(np.float32), labels=sample.labels.copy(),
                       boxes=boxes, frame_id=sample.frame_id)


# -- dataset files ------------------------------------------------------------

def write_dataset(samples: list[SceneSample], path) -> None:
    with cx.atomic_write(path) as f:
        cx.write_header(f, _DATASET_MAGIC, _DATASET_VERSION)
        cx.write_record(f, struct.pack("<I", len(samples)))
        for s in samples:
            cx.write_record(f, *_encode_sample(s))


def read_dataset(path) -> list[SceneSample]:
    with open(path, "rb") as f:
        r = cx.RecordReader(f, _DATASET_MAGIC, _DATASET_VERSION)
        (n,) = r.unpack("<I")
        r.end_record()
        out = [_read_sample(r) for _ in range(n)]
        r.end()
        return out


# One box on disk: center, size and yaw as f32, then the class id.
_BOX = np.dtype([("f", "<f4", 7), ("class_id", "<i4")])


def _encode_sample(s: SceneSample) -> tuple:
    """The record of one sample: (head, points, labels, boxes)."""
    boxes = np.array([(np.concatenate([b.center, b.size, [b.yaw]]), b.class_id)
                      for b in s.boxes], _BOX)
    return (struct.pack("<iII", s.frame_id, len(s.points), len(s.boxes)),
            np.asarray(s.points, "<f4", order="C"), np.asarray(s.labels, "<i4", order="C"),
            boxes)


def _read_sample(r: cx.RecordReader) -> SceneSample:
    frame_id, n_pts, n_boxes = r.unpack("<iII")
    pts, labels = r.read_array((n_pts, 5), "<f4"), r.read_array((n_pts,), "<i4")
    raw = r.read_array((n_boxes,), _BOX)
    r.end_record()
    if not labels_in_range(labels):
        raise cx.ContainerError(f"frame {frame_id}: label outside 1..{NUM_CLASSES}")
    try:
        boxes = [Box(center=f[:3], size=f[3:6], yaw=float(f[6]), class_id=c)
                 for f, c in zip(raw["f"], raw["class_id"].tolist())]
    except ValueError as e:
        raise cx.ContainerError(f"frame {frame_id}: invalid box: {e}") from None
    return SceneSample(points=pts, labels=labels, boxes=boxes, frame_id=frame_id)
