"""Flat typed key-value configuration with section-prefixed keys.

Files are plain text: `key = value` lines, `#` comments. Values are ints,
floats, booleans (true/false), comma-separated number tuples, or strings; a
string-typed key (`data.path`) keeps its value's text as written.
The canonical serialization of the full (defaults-merged) mapping is hashed
to pair checkpoints with the configuration that produced them.
"""

from __future__ import annotations

import hashlib

# key -> (default, doc). Paper-scale values are noted in the docs and appear
# commented in the reference config.
DEFAULTS = {
    "data.path": ("dataset.bin", "dataset file consumed by train/eval"),
    "scene.extent_min": ((-8.0, -8.0, 0.0), "scene extent minimum, meters"),
    "scene.extent_max": ((8.0, 8.0, 4.0), "scene extent maximum, meters"),
    "scene.objects_per_class": ((2, 1, 1, 1),
                                "object counts: vehicle, pedestrian, cyclist, barrier"),
    "scene.ground_density": (3.0, "ground points per square meter"),
    "scene.wall_density": (1.0, "wall points per square meter of wall"),
    "scene.object_density": (6.0, "object points per square meter of box surface"),
    "scene.ground_noise": (0.02, "sigma of ground z jitter, meters"),
    "scene.min_center_gap": (3.0, "minimum spacing between object centers, meters"),
    "grid.voxel_size": ((0.5, 0.5, 0.5), "voxel size, meters (paper scale: 0.1,0.1,0.2)"),
    "frames.history": (0, "history scans concatenated to each frame"),
    "frames.dt": (0.1, "time between scans, seconds"),
    "frames.jitter": (0.0, "coordinate jitter of history re-scans, meters"),
    "augment.enabled": (False, "apply flips/rotation/scale during training"),
    "model.seed": (0, "parameter init seed"),
    "model.vfe_widths": ((16, 16, 32, 32),
                         "voxel feature encoder layer widths (paper: 64,128,256,256)"),
    "model.base_channels": (16, "backbone base channels C (stages C,2C,4C,4C)"),
    "model.cross_space.heads": (4, "deformable attention heads"),
    "model.cross_space.head_dim_d2s": (64, "head width, dense-to-sparse direction"),
    "model.cross_space.head_dim_s2d": (32, "head width, sparse-to-dense direction"),
    "model.cross_space.points": (4, "sampling points per head per height"),
    "model.cross_space.blocks": (2, "stacked attention blocks per direction"),
    "model.cross_space.ffn": (256, "feed-forward width in attention blocks"),
    "model.cross_task.enabled": (True, "shared class/center query decoder"),
    "model.cross_task.width": (64, "query token width"),
    "model.cross_task.heads": (4, "attention heads"),
    "model.cross_task.head_dim": (32, "per-head width"),
    "model.cross_task.ffn": (64, "feed-forward width"),
    "model.cross_task.layers": (3, "stacked decoder layers"),
    "model.cross_task.centers": (16, "number of center queries"),
    "model.cross_task.window": (7, "BEV window size for center cross-attention"),
    "train.steps": (200, "optimization steps"),
    "train.peak_lr": (3e-3, "one-cycle peak learning rate"),
    "train.div_factor": (25.0, "initial lr = peak / div_factor"),
    "train.final_div": (1000.0, "final lr = peak / final_div"),
    "train.warmup_pct": (0.3, "fraction of steps spent warming up to the peak"),
    "train.weight_decay": (0.01, "decoupled weight decay"),
    "train.beta1": (0.9, "first-moment decay"),
    "train.beta2": (0.99, "second-moment decay"),
    "train.grad_clip": (10.0, "global gradient-norm clip, at least 0 (0 disables)"),
    "train.seed": (0, "training-time randomness seed (augmentation draws)"),
    "train.log_every": (20, "steps between log lines"),
    "detect.threshold": (0.3, "heatmap score threshold for decoding boxes"),
    "detect.max_boxes": (32, "maximum decoded boxes per scene"),
}


class ConfigError(Exception):
    pass


_KINDS = {bool: "true/false", int: "an integer", float: "a number", str: "a string"}


def parse_value(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if "," in text:
        parts = [parse_value(p) for p in text.split(",") if p.strip()]
        return tuple(parts)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config_text(text: str) -> dict:
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val if isinstance(DEFAULTS.get(key, (None,))[0], str) else parse_value(val)
    return out


def _coerce(key: str, value, default):
    """`value` typed as `default`: an int widens to a float and a bare value
    to a 1-tuple (e.g. one MLP layer); any other mismatch is a ConfigError."""
    if isinstance(default, tuple):
        return tuple(_coerce(key, x, default[0])
                     for x in (value if isinstance(value, tuple) else (value,)))
    if isinstance(default, float) and type(value) is int:
        value = float(value)
    if not isinstance(value, type(default)) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(f"{key}: expected {_KINDS[type(default)]}, got {value!r}")
    return value


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults merged with a config file and inline overrides; unknown keys
    are an error so typos never silently fall back."""
    cfg = {k: v for k, (v, _doc) in DEFAULTS.items()}
    merged = {}
    if path is not None:
        with open(path) as f:
            merged.update(parse_config_text(f.read()))
    if overrides:
        merged.update(overrides)
    for key, value in merged.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value, cfg[key])
    return cfg


def canonical_text(cfg: dict) -> str:
    return "".join(f"{k} = {format_value(cfg[k])}\n" for k in sorted(cfg))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()


def reference_config() -> str:
    """A fully documented config file with every key at its default."""
    lines = ["# lidarmt configuration: key = value, '#' starts a comment.",
             "# Paper-scale values are noted where the desk-scale default differs.", ""]
    section = None
    for key, (default, doc) in DEFAULTS.items():
        sec = key.split(".", 1)[0]
        if sec != section:
            lines.append(f"# --- {sec} ---")
            section = sec
        lines.append(f"{key} = {format_value(default)}  # {doc}")
    lines += ["", "# Paper-scale reference (uncomment to override):",
              "# grid.voxel_size = 0.1,0.1,0.2",
              "# model.vfe_widths = 64,128,256,256",
              "# model.base_channels = 32", ""]
    return "\n".join(lines)
