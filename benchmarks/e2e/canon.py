"""Canonical serialisation and digests of operation outputs.

Two outputs get the same digest only if every number in them is the same
bit for bit:

- floats are written with ``float.hex``, so ``-0.0`` and ``0.0`` differ
  and no decimal rounding hides a last-bit change;
- dataclasses become their fields, dicts are sorted by key, and a
  non-string key is written with ``repr``;
- numpy arrays keep their dtype and shape, numpy scalars become Python
  scalars;
- an object with a ``to_dict`` method (a characterised ``Library``) is
  serialised through it.

Anything else raises ``TypeError`` rather than falling back to ``repr``
or ``vars``, which could carry a memory address into the digest or
drop state kept outside ``__dict__``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any

import numpy as np


def _float(x: float) -> str:
    return "f:" + (repr(x) if math.isnan(x) or math.isinf(x) else x.hex())


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, np.generic):
        key = key.item()
    return repr(key)


def canonical(obj: Any) -> Any:
    """A JSON tree that identifies *obj* bit for bit."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.dtype.str, "shape": list(obj.shape),
                "data": [canonical(v) for v in obj.ravel().tolist()]}
    if isinstance(obj, dict):
        out: dict[str, Any] = {}
        for k, v in obj.items():
            name = _key(k)
            if name in out:
                raise ValueError(f"keys collide after canonicalisation: "
                                 f"{name!r}")
            out[name] = canonical(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(v) for v in obj),
                      key=lambda v: json.dumps(v, sort_keys=True))
    if callable(getattr(obj, "to_dict", None)):
        return {"__class__": type(obj).__name__,
                "to_dict": canonical(obj.to_dict())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name)
                  for f in dataclasses.fields(obj)}
        return {"__class__": type(obj).__name__, **canonical(fields)}
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def digest(obj: Any) -> str:
    """Short hex digest of :func:`canonical` of *obj*."""
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]
