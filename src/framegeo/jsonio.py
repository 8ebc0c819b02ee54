"""JSON serialization for the library's value types.

Floats are written with Python's shortest round-trip representation, so a
dump/load cycle reproduces every array bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .ellipsoids import Ellipsoid
from .frames import FrameSet, Subspace


def frame_to_dict(frame: FrameSet) -> dict:
    return {"n": frame.n, "k": frame.k, "vectors": frame.vectors.tolist()}


def frame_from_dict(data: dict) -> FrameSet:
    return FrameSet(n=int(data["n"]), k=int(data["k"]),
                    vectors=np.array(data["vectors"], dtype=float))


def subspace_to_dict(subspace: Subspace) -> dict:
    return {"n": subspace.n, "k": subspace.k, "basis": subspace.basis.tolist()}


def subspace_from_dict(data: dict) -> Subspace:
    return Subspace(n=int(data["n"]), k=int(data["k"]),
                    basis=np.array(data["basis"], dtype=float))


def ellipsoid_to_dict(e: Ellipsoid) -> dict:
    return {"k": e.k, "matrix": e.matrix.tolist()}


def dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
