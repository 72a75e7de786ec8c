"""The three benchmark workloads, each driving lidarmt's public entry points
(`train.train`, `train.infer`, `train.save_model`, `train.load_model`) in a
closed loop with one client: the next op starts when the previous returns.

An op is one training step or one `infer` call; each handles one scene.
Training ops are timed from one `AdamW.step` return to the next, so the loop
inside `train.train` runs as users run it.

The speed of a shared host drifts by up to a quarter over minutes, for every
process alike. So a fixed reference kernel, which touches no lidarmt code, is
timed after every op, and reported times are scaled to the kernel's nominal
time: an op's scale is NOMINAL_REF_MS over the median kernel time of the ops
around it. The kernel's own time is never part of an op.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lidarmt import config as cf
from lidarmt import data
from lidarmt import metrics as mx
from lidarmt import train as tr
from lidarmt.cli import scene_spec_from_config
from lidarmt.model import Model

SCENES = 8          # fixed scene set of the training workloads
STEPS = 40          # train.steps of every train.train call
MIN_OPS = 100       # so that at least ten ops lie beyond the p90
MAX_WALL_S = 120.0  # stop adding calls or scenes after this, whatever the count
SETUP_REPEATS = 9   # infer-large set-ups per run; train runs time every call
LOSS_RTOL = 1e-6    # per-step loss against the reference
DIGEST_RTOL = 1e-9  # heatmap and seg_logits checksums against the reference
NOMINAL_REF_MS = 15.0  # reference kernel time that reported times are scaled to
REF_REPEATS = 6        # rounds of the reference kernel after each op
REF_WINDOW = 4         # an op is scaled by the kernel times of the 2*4+1 ops around it

WORKLOADS = {
    # Default config; one pass over the scene set fills the rulebook cache,
    # after which every lookup hits.
    "train-revisit": {"kind": "train", "warmup": SCENES,
                      "overrides": {"train.steps": STEPS}},
    # Augmented, two-frame input: new voxel geometry every step, so the
    # rulebook cache misses and the data and voxel layers do real work.
    # train.seed changes per call so no call repeats another's geometry.
    "train-augment": {"kind": "train", "warmup": 1,
                      "overrides": {"train.steps": STEPS, "augment.enabled": True,
                                    "frames.history": 1, "frames.jitter": 0.02}},
    # 32 x 32 m extent (64 x 64 x 8 grid), crowded scenes, a low detection
    # threshold so box decoding and scoring do real work with untrained weights.
    "infer-large": {"kind": "infer", "warmup": 1,
                    "overrides": {"scene.extent_min": (-16.0, -16.0, 0.0),
                                  "scene.extent_max": (16.0, 16.0, 4.0),
                                  "scene.objects_per_class": (6, 4, 4, 4),
                                  "detect.threshold": 0.1}},
}


def workload_config(name: str) -> dict:
    return cf.load_config(overrides=WORKLOADS[name]["overrides"])


def scene_seed(seed: int, index: int, held_out: bool = False) -> int:
    """Scene seeds of one benchmark seed; inference scenes never coincide
    with training scenes."""
    return (seed + 1) * 1_000_003 + (500_000 if held_out else 0) + index


@dataclass
class Run:
    """Everything one run measured. Latency and CPU lists hold steady ops
    only; `traced_ops` holds (op id, start, end) of the traced ones."""

    lat_ms: list = field(default_factory=list)
    traced_lat_ms: list = field(default_factory=list)
    cpu_ms: list = field(default_factory=list)
    ref_ms: list = field(default_factory=list)      # (wall, CPU) kernel ms after each op
    setup_s: list = field(default_factory=list)
    setup_ref_ms: list = field(default_factory=list)  # kernel wall ms of each set-up
    traced_ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    degenerate_failed: int = 0
    record: dict = field(default_factory=dict)
    config_hash: str = ""

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def add_op(self, start, end, cpu, ref, traced, op_id, ok) -> None:
        self.attempted += 1
        if not ok:
            return
        ms = (end - start) * 1e3
        if traced:
            self.traced_lat_ms.append(ms)
            self.traced_ops.append((op_id, start, end))
        else:
            self.lat_ms.append(ms)
            self.cpu_ms.append(cpu * 1e3)
            self.ref_ms.append(ref)

    def steady_s(self) -> float:
        return (sum(self.lat_ms) + sum(self.traced_lat_ms)) / 1e3

    def ops(self) -> int:
        return len(self.lat_ms) + len(self.traced_lat_ms)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


class ReferenceKernel:
    """A fixed mix of numpy and interpreter work; its time tracks the host's
    speed. Calling it returns its (wall, CPU) time in ms."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a, self.w = rng.standard_normal((2048, 64)), rng.standard_normal((64, 64))
        self.idx, self.v = rng.integers(0, 512, 20000), rng.standard_normal(20000)
        self.small = rng.standard_normal(16)

    def __call__(self) -> tuple:
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(REF_REPEATS):
            b = np.maximum(self.a @ self.w, 0.0)
            np.add.at(np.zeros(512), self.idx, self.v)
            b[np.argsort(self.idx, kind="stable")[:2048] % 2048].sum()
            x = self.small
            for _ in range(50):
                x = np.tanh(x * 0.5 + 0.1)
        t1, c1 = time.perf_counter(), time.process_time()
        return (t1 - t0) * 1e3, (c1 - c0) * 1e3


class StepClock:
    """Wall and CPU time at every AdamW.step return, then the reference
    kernel, then the times the next step starts from. Installed outside the
    tracer, so each boundary falls after the traced optimizer span ends."""

    def __init__(self, kernel, tracer=None, base_op=0):
        self.wall, self.cpu, self.ref = [], [], []
        self.resume, self.resume_cpu = [], []
        self.kernel, self.tracer, self.base_op = kernel, tracer, base_op
        self._orig = None

    def __enter__(self):
        self._orig = orig = tr.AdamW.step

        def step(opt, lr):
            result = orig(opt, lr)
            self.wall.append(time.perf_counter())
            self.cpu.append(time.process_time())
            if self.tracer is not None:
                self.tracer.op = self.base_op + len(self.wall)
            self.ref.append(self.kernel())
            self.resume.append(time.perf_counter())
            self.resume_cpu.append(time.process_time())
            return result

        tr.AdamW.step = step
        return self

    def __exit__(self, *exc):
        tr.AdamW.step = self._orig


class _Traced:
    """Context that installs the tracer when `on`, else does nothing."""

    def __init__(self, tracer, on):
        self.tracer = tracer if on else None

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()


def _keep_going(run: Run, seconds: float, t_start: float, tracer) -> bool:
    if time.perf_counter() - t_start > MAX_WALL_S:
        return False
    if tracer is not None and not run.traced_ops:
        return True
    return run.steady_s() < seconds or run.ops() < MIN_OPS


def run_train(name: str, seed: int, seconds: float, workdir: Path,
              reference: dict | None, tracer=None) -> Run:
    base_cfg = workload_config(name)
    warm = WORKLOADS[name]["warmup"]
    scene_spec = scene_spec_from_config(base_cfg)
    dataset, ckpt = workdir / "scenes.bin", workdir / "model.ckpt"
    vary_seed = base_cfg["augment.enabled"]
    expected = (reference or {}).get("calls", [])
    run = Run(config_hash=cf.config_hash(base_cfg))
    run.record["calls"] = []
    kernel = ReferenceKernel()
    t_start = time.perf_counter()
    call = 0
    while call == 0 or _keep_going(run, seconds, t_start, tracer):
        traced = tracer is not None and call % 2 == 1
        cfg = dict(base_cfg, **{"train.seed": call}) if vary_seed else base_cfg
        base_op = call * 1000
        t0 = time.perf_counter()
        with _Traced(tracer, traced):
            if traced:
                tracer.op = -1
            scenes = [data.generate_scene(scene_seed(seed, j), scene_spec, frame_id=j)
                      for j in range(SCENES)]
            data.write_dataset(scenes, dataset)
            if traced:
                tracer.op = base_op
            with StepClock(kernel, tracer if traced else None, base_op) as clock:
                try:
                    _model, log = tr.train(cfg, dataset_path=dataset, out_ckpt=ckpt)
                except Exception as exc:  # counted, reported, and the run goes on
                    log = None
                    run.attempted += STEPS - warm
                    run.fail(STEPS - warm, f"call {call}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if log is not None:
            losses = log.raw_loss
            if vary_seed or not run.record["calls"]:
                run.record["calls"].append(losses)
            # Without a per-call train.seed every call repeats the same training.
            ref_call = call if vary_seed else 0
            want = expected[ref_call] if ref_call < len(expected) else None
            for k in range(warm, len(clock.wall)):
                ok = _loss_ok(losses, k, want)
                if not ok:
                    run.fail(1, f"call {call} step {k}: loss {losses[k]!r}"
                                f" expected {want[k] if want else 'finite'}")
                run.add_op(clock.resume[k - 1], clock.wall[k],
                           clock.cpu[k] - clock.resume_cpu[k - 1], clock.ref[k],
                           traced, base_op + k, ok)
            bad_warm = [k for k in range(warm) if not _loss_ok(losses, k, want)]
            if bad_warm:
                run.problems.append(f"call {call}: warm-up steps {bad_warm} disagree")
            steady = clock.wall[-1] - clock.resume[warm - 1]
            kernel_s = sum(wall for wall, _cpu in clock.ref[:warm]) / 1e3
            run.setup_s.append(t1 - t0 - steady - kernel_s)
            run.setup_ref_ms.append(statistics.median(wall for wall, _cpu in clock.ref))
        call += 1
    return run


def _loss_ok(losses, k, want) -> bool:
    if not math.isfinite(losses[k]):
        return False
    return want is None or _close(losses[k], want[k], LOSS_RTOL)


class ForwardCapture:
    """Keeps the last Model.forward output so `infer` results can be checked
    against the heatmap and segmentation logits they came from."""

    def __init__(self):
        self.last = None
        self._orig = None

    def __enter__(self):
        self._orig = orig = Model.forward

        def forward(model, *args, **kwargs):
            self.last = orig(model, *args, **kwargs)
            return self.last

        Model.forward = forward
        return self

    def __exit__(self, *exc):
        Model.forward = self._orig


def scene_block(seed: int, block: int, scene_spec, path: Path) -> list:
    """Eight held-out scenes, passed through a dataset file as users pass them."""
    scenes = [data.generate_scene(scene_seed(seed, block * SCENES + j, held_out=True),
                                  scene_spec, frame_id=block * SCENES + j)
              for j in range(SCENES)]
    data.write_dataset(scenes, path)
    return data.read_dataset(path)


def digest(result: dict, out) -> list:
    """(labels CRC32, box count, heatmap sum, seg_logits absolute sum)."""
    labels = np.asarray(result["point_labels"], dtype=np.int32)
    return [zlib.crc32(labels.tobytes()), len(result["boxes"]),
            float(out.heatmap.data.sum()), float(np.abs(out.seg_logits.data).sum())]


def _infer_invariants(result: dict, n_points: int, cfg: dict) -> str | None:
    labels = np.asarray(result["point_labels"])
    if len(labels) != n_points:
        return f"{len(labels)} labels for {n_points} points"
    if len(labels) and (labels.min() < 0 or labels.max() > data.NUM_CLASSES):
        return "point label outside 0..6"
    if len(result["boxes"]) > cfg["detect.max_boxes"]:
        return f"{len(result['boxes'])} boxes exceed detect.max_boxes"
    if not all(math.isfinite(b["score"]) for b in result["boxes"]):
        return "non-finite box score"
    return None


def _digest_ok(got: list, want: list | None) -> bool:
    if want is None:
        return True
    return (got[0] == want[0] and got[1] == want[1]
            and _close(got[2], want[2], DIGEST_RTOL)
            and _close(got[3], want[3], DIGEST_RTOL))


def score(scene, result: dict) -> None:
    """Per-scene quality scoring as a user evaluates infer outputs."""
    labels = np.asarray(result["point_labels"], dtype=np.int32)
    kept = labels > 0
    _iou, _miou = mx.miou(mx.confusion_matrix(scene.labels[kept], labels[kept]))
    preds = [(data.Box(center=b["center"], size=b["size"], yaw=b["yaw"],
                       class_id=b["class_id"]), b["score"]) for b in result["boxes"]]
    mx.center_distance_ap([(preds, list(scene.boxes))])


def degenerate_frames(scene) -> list:
    """Sensor-dropout frames: one empty, one with every point out of range."""
    empty = data.SceneSample(points=np.zeros((0, 5), np.float32),
                             labels=np.zeros(0, np.int32), boxes=[])
    away = scene.points.copy()
    away[:, :2] += 100.0
    return [empty, data.SceneSample(points=away, labels=scene.labels, boxes=[])]


def run_infer(name: str, seed: int, seconds: float, workdir: Path,
              reference: dict | None, tracer=None) -> Run:
    cfg = workload_config(name)
    scene_spec = scene_spec_from_config(cfg)
    dataset, ckpt = workdir / "scenes.bin", workdir / "model.ckpt"
    expected = (reference or {}).get("scenes", [])
    run = Run(config_hash=cf.config_hash(cfg))
    run.record["scenes"] = []
    kernel = ReferenceKernel()
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with _Traced(tracer, rep == SETUP_REPEATS - 1):
            tr.save_model(ckpt, Model(cfg), None, cfg, 0)
            model, cfg, _ck = tr.load_model(ckpt, cfg)
            block = scene_block(seed, 0, scene_spec, dataset)
        run.setup_s.append(time.perf_counter() - t0)
        run.setup_ref_ms.append(kernel()[0])

    t_start = time.perf_counter()
    i = 0
    with ForwardCapture() as capture:
        while i < 1 or _keep_going(run, seconds, t_start, tracer):
            if i % SCENES == 0 and i:
                block = scene_block(seed, i // SCENES, scene_spec, dataset)
            scene = block[i % SCENES]
            traced = tracer is not None and i % 2 == 1
            with _Traced(tracer, traced):
                if traced:
                    tracer.op = i
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    result = tr.infer(model, scene, cfg)
                except Exception as exc:  # counted, reported, and the run goes on
                    result = None
                    problem = f"scene {i}: {type(exc).__name__}: {exc}"
                t1, c1 = time.perf_counter(), time.process_time()
                ref = kernel()
                if result is not None:
                    score(scene, result)
            ok = result is not None
            if ok:
                got = digest(result, capture.last)
                run.record["scenes"].append(got)
                problem = _infer_invariants(result, len(scene.points), cfg)
                if problem is None and not _digest_ok(
                        got, expected[i] if i < len(expected) else None):
                    problem = f"scene {i}: digest {got} expected {expected[i]}"
                ok = problem is None
            if i >= WORKLOADS[name]["warmup"]:
                if not ok:
                    run.fail(1, problem)
                run.add_op(t0, t1, c1 - c0, ref, traced, i, ok)
            elif not ok:
                run.problems.append(problem)
            i += 1

    # Degenerate frames are probed outside the timed load, so that the load
    # itself has no failing op; their outcome is reported on its own.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for frame in degenerate_frames(block[0]):
            try:
                result = tr.infer(model, frame, cfg)
            except Exception:  # the defect being counted
                run.degenerate_failed += 1
                continue
            if _infer_invariants(result, len(frame.points), cfg) or \
                    any(result["point_labels"]) or result["boxes"]:
                run.degenerate_failed += 1
    return run


def _scaled(values: list, refs: list) -> list:
    """Each value times NOMINAL_REF_MS over the median reference time of the
    REF_WINDOW ops on either side of it."""
    return [v * NOMINAL_REF_MS / statistics.median(refs[max(0, i - REF_WINDOW):
                                                         i + REF_WINDOW + 1])
            for i, v in enumerate(values)]


def end_to_end(run: Run, rss_mb: float, scale: bool = True) -> dict:
    """End-to-end metrics, scaled to the nominal host speed unless `scale`
    is false. A training set-up is scaled by the median kernel time of its
    train.train call, an inference set-up by the kernel run right after it."""
    lat, cpu, setup = run.lat_ms, run.cpu_ms, run.setup_s
    if scale:
        lat = _scaled(lat, [wall for wall, _cpu in run.ref_ms])
        cpu = _scaled(cpu, [cpu for _wall, cpu in run.ref_ms])
        setup = [s * NOMINAL_REF_MS / ref for s, ref in zip(setup, run.setup_ref_ms)]
    return {
        "scene_ms_p50": (statistics.median(lat), "ms"),
        "scene_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "scenes_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "cpu_ms_per_scene": (sum(cpu) / len(cpu), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


RUNNERS = {"train": run_train, "infer": run_infer}


def run_workload(name, seed, seconds, workdir, reference, tracer=None) -> Run:
    return RUNNERS[WORKLOADS[name]["kind"]](name, seed, seconds, workdir,
                                            reference, tracer)
