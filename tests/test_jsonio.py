import numpy as np

from framegeo import jsonio
from framegeo.ellipsoids import Ellipsoid
from framegeo.frames import FrameSet, Subspace, project_standard_basis
from framegeo.polytopes import equality_subspace


def test_frame_round_trip_is_bitwise():
    frame = project_standard_basis(equality_subspace(6, 3))
    back = jsonio.frame_from_dict(jsonio.frame_to_dict(frame))
    assert back.n == frame.n and back.k == frame.k
    assert np.array_equal(back.vectors, frame.vectors)


def test_subspace_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    q, r = np.linalg.qr(rng.standard_normal((7, 3)))
    sub = Subspace(n=7, k=3, basis=(q * np.sign(np.diag(r))).T)
    path = tmp_path / "subspace.json"
    jsonio.dump(jsonio.subspace_to_dict(sub), path)
    back = jsonio.subspace_from_dict(jsonio.load(path))
    assert np.array_equal(back.basis, sub.basis)


def test_dump_ends_with_newline(tmp_path):
    path = tmp_path / "x.json"
    jsonio.dump({"k": 1}, path)
    assert path.read_text().endswith("\n")


def test_ellipsoid_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3, 3))
    e = Ellipsoid(k=3, matrix=B @ B.T + 2.0 * np.eye(3))
    path = tmp_path / "ellipsoid.json"
    jsonio.dump(jsonio.ellipsoid_to_dict(e), path)
    data = jsonio.load(path)
    back = Ellipsoid(k=data["k"], matrix=data["matrix"])
    assert np.array_equal(back.matrix, e.matrix)


def test_file_round_trip_through_disk(tmp_path):
    frame = FrameSet(n=2, k=2, vectors=np.array([[1.0, 0.0], [0.0, 1.0]]) * (1.0 - 2.0 ** -52) ** 0.5)
    path = tmp_path / "frame.json"
    jsonio.dump(jsonio.frame_to_dict(frame), path)
    back = jsonio.frame_from_dict(jsonio.load(path))
    assert np.array_equal(back.vectors, frame.vectors)
