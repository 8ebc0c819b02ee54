"""JSON serialization for the library's value types.

Floats are written with Python's shortest round-trip representation, so a
dump/load cycle reproduces every array bit for bit.
"""

from __future__ import annotations

import json

from .ellipsoids import Ellipsoid
from .frames import FrameSet, FrameStructureError, Subspace


def _field(data: dict, name: str):
    """The field ``name`` of a decoded JSON object."""
    if name not in data:
        raise FrameStructureError(f"missing field {name!r}")
    return data[name]


def _sizes(data) -> tuple[int, int]:
    """``n`` and ``k`` of a decoded JSON object; its array is checked by the type built."""
    if not isinstance(data, dict):
        raise FrameStructureError(f"expected a JSON object, got {type(data).__name__}")
    for name in ("n", "k"):
        value = _field(data, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise FrameStructureError(f"{name} must be an integer, got {value!r}")
    return data["n"], data["k"]


def frame_to_dict(frame: FrameSet) -> dict:
    return {"n": frame.n, "k": frame.k, "vectors": frame.vectors.tolist()}


def frame_from_dict(data: dict) -> FrameSet:
    n, k = _sizes(data)
    return FrameSet(n=n, k=k, vectors=_field(data, "vectors"))


def subspace_to_dict(subspace: Subspace) -> dict:
    return {"n": subspace.n, "k": subspace.k, "basis": subspace.basis.tolist()}


def subspace_from_dict(data: dict) -> Subspace:
    n, k = _sizes(data)
    return Subspace(n=n, k=k, basis=_field(data, "basis"))


def ellipsoid_to_dict(e: Ellipsoid) -> dict:
    return {"k": e.k, "matrix": e.matrix.tolist()}


def dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
