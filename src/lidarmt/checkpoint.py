"""Checkpoint files: the canonical config that produced the model, its hash,
the training step and the named float64 parameter tensors. No optimizer
state is stored, so training cannot resume bit-exactly from a checkpoint.

Same container family as the dataset format: magic, version, then CRC32-
checked records, one for the config and step and one per parameter.
load(save(model)) round trips parameters bit-exactly."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import container as cx

_MAGIC = b"LMTCKPT\x00"
_VERSION = 2


class CheckpointError(Exception):
    pass


@dataclass
class CheckpointData:
    config_text: str
    config_hash: str
    step: int
    params: dict = field(default_factory=dict)   # name -> float64 array


def save_checkpoint(path, ckpt: CheckpointData) -> None:
    with cx.atomic_write(path) as f:
        cx.write_header(f, _MAGIC, _VERSION)
        cx.write_record(f, cx.pack_str(ckpt.config_hash) + cx.pack_str(ckpt.config_text, "<I")
                        + struct.pack("<QI", ckpt.step, len(ckpt.params)))
        for name in sorted(ckpt.params):
            a = np.asarray(ckpt.params[name], dtype="<f8", order="C")
            cx.write_record(f, cx.pack_str(name) + struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape), a)


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        r = cx.RecordReader(f, _MAGIC, _VERSION)
        cfg_hash, cfg_text = r.read_str(), r.read_str("<I")
        step, count = r.unpack("<QI")
        r.end_record()
        out = CheckpointData(config_text=cfg_text, config_hash=cfg_hash, step=step)
        for _ in range(count):
            name = r.read_str()
            (ndim,) = r.unpack("<B")
            out.params[name] = r.read_array(r.unpack(f"<{ndim}I"), "<f8")
            r.end_record()
        r.end()
        return out
