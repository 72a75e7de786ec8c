"""Command line interface: gen-data, train, eval, infer, inspect-offsets.

Exit code 0 on success; on failure a single machine-parsable line
`error: <kind>: <message>` goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as cf
from . import container as cx
from . import data
from . import metrics as mx
from . import train as tr
from .data import SceneSpec


def _parse_seed_range(text: str) -> range:
    """`a..b` with b >= a is inclusive on both ends; a bare integer is a single seed."""
    a, _, b = text.partition("..")
    seeds = range(int(a), int(b or a) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}: {b} is below {a}")
    return seeds


def scene_spec_from_config(cfg: dict) -> SceneSpec:
    return SceneSpec(
        extent_min=cfg["scene.extent_min"], extent_max=cfg["scene.extent_max"],
        objects_per_class=tuple(cfg["scene.objects_per_class"]),
        ground_density=cfg["scene.ground_density"],
        wall_density=cfg["scene.wall_density"],
        object_density=cfg["scene.object_density"],
        ground_noise=cfg["scene.ground_noise"],
        min_center_gap=cfg["scene.min_center_gap"],
    )


def _sample_at(path, index: int):
    samples = data.read_dataset(path)
    if not 0 <= index < len(samples):
        raise IndexError(f"sample index {index} outside 0..{len(samples) - 1}")
    return samples[index]


def cmd_gen_data(args) -> int:
    cfg = cf.load_config(args.spec)
    spec = scene_spec_from_config(cfg)
    seeds = _parse_seed_range(args.seeds)
    samples = [data.generate_scene(seed, spec, frame_id=seed) for seed in seeds]
    data.write_dataset(samples, args.out)
    print(f"wrote {len(samples)} scenes to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = cf.load_config(args.config)
    _model, log = tr.train(cfg, dataset_path=args.data, out_ckpt=args.out,
                           log_path=args.log)
    print(f"trained {len(log.steps)} steps, final loss {log.raw_loss[-1]:.6f} "
          f"(ema {log.ema_loss[-1]:.6f}), checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = cf.load_config(args.config) if args.config else None
    model, cfg, _data = tr.load_model(args.ckpt, cfg)
    samples = data.read_dataset(args.data)
    report = tr.evaluate(model, samples, cfg)
    sys.stdout.write(mx.format_report(report))
    if args.out:
        mx.write_report(report, args.out)
    return 0


def cmd_infer(args) -> int:
    cfg = cf.load_config(args.config) if args.config else None
    model, cfg, _data = tr.load_model(args.ckpt, cfg)
    result = tr.infer(model, _sample_at(args.input, args.index), cfg)
    with cx.atomic_write(args.out, "w") as f:
        json.dump(result, f)
    print(f"wrote predictions for sample {args.index} to {args.out}")
    return 0


def cmd_inspect_offsets(args) -> int:
    cfg = cf.load_config(args.config) if args.config else None
    model, cfg, _data = tr.load_model(args.ckpt, cfg)
    rows = tr.inspect_offsets(model, _sample_at(args.input, args.index), cfg,
                              args.quantile)
    with cx.atomic_write(args.out, "w") as f:
        f.write(tr.format_offsets(rows))
    print(f"wrote {len(rows)} offset rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lidarmt",
                                description="desk-scale multi-task LiDAR perception")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic scenes")
    g.add_argument("--spec", required=True, help="scene config file")
    g.add_argument("--seeds", required=True, help="seed range a..b (inclusive)")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train from a config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--data", default=None, help="dataset path (default from config)")
    t.add_argument("--log", default=None, help="training log file")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--config", default=None, help="must hash-match the checkpoint")
    e.add_argument("--out", default=None, help="write key=value report here")
    e.set_defaults(fn=cmd_eval)

    i = sub.add_parser("infer", help="predict labels and boxes for one sample")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--input", required=True, help="dataset file")
    i.add_argument("--index", type=int, default=0)
    i.add_argument("--config", default=None)
    i.add_argument("--out", required=True, help="JSON output path")
    i.set_defaults(fn=cmd_infer)

    o = sub.add_parser("inspect-offsets", help="dump learned attention offsets")
    o.add_argument("--ckpt", required=True)
    o.add_argument("--input", required=True, help="dataset file")
    o.add_argument("--index", type=int, default=0)
    o.add_argument("--quantile", type=float, default=0.0)
    o.add_argument("--config", default=None)
    o.add_argument("--out", required=True)
    o.set_defaults(fn=cmd_inspect_offsets)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # one parsable line, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
