"""Checkpoint files: named float64 parameter tensors, optimizer moments,
the training step, and the canonical config that produced the model.

Same container family as the dataset format: magic, version, little-endian
records. load(save(model)) round trips parameters bit-exactly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container as cx

_MAGIC = b"LMTCKPT\x00"
_VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class CheckpointData:
    config_text: str
    config_hash: str
    step: int
    params: dict = field(default_factory=dict)   # name -> float64 array
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt: CheckpointData) -> None:
    with cx.atomic_write(path) as f:
        cx.write_header(f, _MAGIC, _VERSION)
        cx.write_str(f, ckpt.config_hash)
        f.write(len(ckpt.config_text.encode()).to_bytes(4, "little"))
        f.write(ckpt.config_text.encode())
        cx.write_u64(f, ckpt.step)
        for table, tag in ((ckpt.params, "param"), (ckpt.adam_m, "adam_m"),
                           (ckpt.adam_v, "adam_v")):
            cx.write_u32(f, len(table))
            for name in sorted(table):
                cx.write_str(f, f"{tag}/{name}")
                cx.write_array(f, np.asarray(table[name], dtype=np.float64))


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        cx.check_header(f, _MAGIC, _VERSION)
        cfg_hash = cx.read_str(f)
        n = int.from_bytes(cx.read_exact(f, 4), "little")
        cfg_text = cx.read_exact(f, n).decode("utf-8")
        step = cx.read_u64(f)
        out = CheckpointData(config_text=cfg_text, config_hash=cfg_hash, step=step)
        for table in (out.params, out.adam_m, out.adam_v):
            count = cx.read_u32(f)
            for _ in range(count):
                name = cx.read_str(f)
                arr = cx.read_array(f)
                table[name.split("/", 1)[1]] = arr
        return out
