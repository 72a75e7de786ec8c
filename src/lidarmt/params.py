"""Walking parameter containers: any nesting of dataclasses, lists, tuples,
and dicts whose leaves are autodiff Tensors, addressed by dotted names."""

from __future__ import annotations

import dataclasses

from . import autodiff as ad


def named_tensors(obj, prefix: str = ""):
    """Yield (name, Tensor) pairs for every Tensor reachable from obj."""
    if isinstance(obj, ad.Tensor):
        yield prefix, obj
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from named_tensors(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from named_tensors(item, f"{prefix}.{i}")
        return
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from named_tensors(obj[k], f"{prefix}.{k}")
        return
    # scalars, arrays and other leaves carry no parameters


def collect(obj, prefix: str = "") -> dict:
    return dict(named_tensors(obj, prefix))
